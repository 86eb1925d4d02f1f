// Logit explorer: generate one response with full tracing and dump the
// per-step candidate table plus the reachable-value haystack — the
// paper's §III-C instrumentation, interactively inspectable.
//
// Usage: logit_explorer [icl_count] [seed]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/pipeline.hpp"
#include "haystack/decoding_set.hpp"
#include "haystack/value_distribution.hpp"
#include "lm/generate.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lmpeel;
  const std::size_t icl_count = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 10;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;

  core::Pipeline pipeline;
  const auto& tz = pipeline.tokenizer();
  const auto& data = pipeline.dataset(perf::SizeClass::SM);

  util::Rng rng(seed);
  const auto subsets = perf::disjoint_subsets(data.size(), 1, icl_count, rng);
  std::vector<perf::Sample> examples;
  for (const std::size_t i : subsets[0]) examples.push_back(data[i]);
  const perf::Sample& query = data[1234];

  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto ids = builder.encode(tz, examples, query.config);

  lm::GenerateOptions options;
  options.sampler = {1.0, 0, 0.998};
  options.stop_token = tz.newline_token();
  options.seed = seed;
  options.record_trace = true;
  const auto generation = lm::generate(pipeline.model(), ids, options);
  std::cout << "response: '" << tz.decode(generation.tokens) << "'  (truth "
            << query.runtime << ")\n";

  for (std::size_t s = 0; s < generation.trace.length(); ++s) {
    const auto& step = generation.trace.step(s);
    std::cout << "step " << s << ": chose '"
              << tz.token_text(step.chosen) << "' from "
              << step.candidates.size() << " candidates; top:";
    for (std::size_t c = 0; c < std::min<std::size_t>(6, step.candidates.size());
         ++c) {
      std::cout << "  '" << tz.token_text(step.candidates[c].token) << "' "
                << util::Table::num(step.candidates[c].prob, 3);
    }
    std::cout << '\n';
  }

  const auto span = haystack::find_value_span(generation.trace, tz);
  if (!span.has_value()) {
    std::cout << "no well-formed value in the response\n";
    return 0;
  }
  haystack::DecodingOptions dopt;
  dopt.exact_limit = 100000;
  dopt.mc_samples = 30000;
  dopt.seed = seed;
  const auto set = haystack::build_decoding_set(generation.trace, tz,
                                                span->first, span->second,
                                                dopt);
  const haystack::ValueDistribution dist(set.values);
  std::cout << "\nhaystack: " << (set.exact ? "exact" : "Monte-Carlo")
            << ", permutations=" << set.permutations
            << ", support=" << dist.support_size() << '\n'
            << "  range [" << dist.min() << ", " << dist.max()
            << "], mean " << dist.mean() << ", median " << dist.median()
            << '\n'
            << "  closest reachable value to truth: "
            << dist.closest_to(query.runtime) << " (truth " << query.runtime
            << ")\n"
            << "  probability mass within 10% of truth: "
            << dist.mass_within(query.runtime, 0.10) << '\n';
  const auto moments =
      haystack::exact_moments(generation.trace, tz, span->first, span->second);
  std::cout << "  exact moments (DP, no enumeration): mass=" << moments.mass
            << " mean=" << moments.mean
            << " stddev=" << std::sqrt(moments.variance) << '\n';
  return 0;
}
