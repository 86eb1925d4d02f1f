// Figure 4 — bimodal value distributions keyed by string prefixes,
// stable across seeds.
//
// An XL prompt whose in-context values straddle two leading-digit regimes
// (e.g. 1.x vs 2.x) is evaluated under three seeds.  For each seed the
// bench snapshots the candidate set of the value's first token — the same
// token set appears with slightly altered logit probabilities — and builds
// the reachable-value distribution, whose bimodality coefficient and modes
// expose the two prefix-keyed clusters.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "eval/histogram.hpp"
#include "haystack/decoding_set.hpp"
#include "lm/generate.hpp"
#include "util/table.hpp"

int main() {
  using namespace lmpeel;
  core::Pipeline pipeline;
  const auto& tz = pipeline.tokenizer();
  const auto& data = pipeline.dataset(perf::SizeClass::XL);
  const auto builder = pipeline.builder(perf::SizeClass::XL);

  // Assemble an in-context set straddling two integer-prefix regimes:
  // half below 2 s, half in [2, 3) s.
  std::vector<perf::Sample> examples;
  for (std::size_t i = 0; i < data.size() && examples.size() < 6; ++i) {
    if (data[i].runtime < 1.9 && data[i].runtime > 1.2) {
      examples.push_back(data[i]);
    }
  }
  for (std::size_t i = 0; i < data.size() && examples.size() < 12; ++i) {
    if (data[i].runtime >= 2.2 && data[i].runtime < 3.0) {
      examples.push_back(data[i]);
    }
  }
  const auto& query = data[4242];
  const auto ids = builder.encode(tz, examples, query.config);

  // Snapshot the first-value-token candidates per seed.
  util::Table snapshot(
      {"seed", "token", "text", "prob"});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto ctx = ids;
    ctx.push_back(tz.space_token());
    std::vector<float> logits(pipeline.model().vocab_size());
    pipeline.model().next_logits(ctx, seed, logits);
    std::vector<float> probs(logits.size());
    lm::probabilities(logits, probs);
    std::vector<std::pair<float, int>> top;
    for (int v = 0; v < static_cast<int>(probs.size()); ++v) {
      if (probs[v] >= lm::kSelectableProb) top.emplace_back(probs[v], v);
    }
    std::sort(top.rbegin(), top.rend());
    for (const auto& [p, v] : top) {
      snapshot.add_row({std::to_string(seed), std::to_string(v),
                        tz.token_text(v), util::Table::num(p, 4)});
    }
  }
  bench::emit(
      "Fig. 4 — first-value-token candidates per seed "
      "(same token sets, jittered probabilities)",
      snapshot);

  // Reachable-value distribution per seed: bimodality and modes.
  util::Table dist_table({"seed", "sampled", "bimodality_coeff", "mode_1",
                          "mode_2"});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    lm::GenerateOptions gen;
    gen.sampler = {1.0, 0, 0.998};
    gen.stop_token = tz.newline_token();
    gen.seed = seed;
    gen.record_trace = true;
    const auto generation = lm::generate(pipeline.model(), ids, gen);
    const auto span = haystack::find_value_span(generation.trace, tz);
    if (!span.has_value()) {
      dist_table.add_row({std::to_string(seed), "-", "-", "-", "-"});
      continue;
    }
    haystack::DecodingOptions options;
    options.exact_limit = 50000;
    options.mc_samples = 20000;
    options.seed = seed;
    const auto set = haystack::build_decoding_set(
        generation.trace, tz, span->first, span->second, options);
    eval::Histogram hist(1.0, 3.5, 50);
    for (const auto& wv : set.values) hist.add(wv.value, wv.weight);
    const auto modes = hist.modes(0.03);
    dist_table.add_row(
        {std::to_string(seed), util::Table::num(set.sampled_value, 4),
         util::Table::num(hist.bimodality_coefficient(), 3),
         modes.empty() ? "-" : util::Table::num(modes[0], 3),
         modes.size() < 2 ? "-" : util::Table::num(modes[1], 3)});
  }
  bench::emit("Fig. 4 — reachable-value distribution per seed", dist_table);
  std::cout << "(paper: bimodal distributions from distinct string "
               "prefixes, e.g. 1.7 vs 2.7, across seeds; Sarle's "
               "coefficient > 0.555 indicates bimodality)\n";
  return 0;
}
