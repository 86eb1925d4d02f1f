// A/B harness for the quantized inference backend (DESIGN.md §17).
//
// The quantized backend is allowed to move logits by quantization error; it
// is NOT allowed to change conclusions.  This bench pins that contract with
// three gates, f32 reference vs int8 and fp16 variants of the same weights:
//
//   drift     max per-logit drift along a greedy rollout stays under a
//             bound (default 0.25, LMPEEL_QAB_DRIFT_MAX), and the measured
//             value is published as the quant.max_abs_logit_drift gauge;
//   ordering  a Fig. 2-style candidate panel — each candidate scored by
//             the log-probability of its rendered query block after a
//             shared ICL prefix — is ranked in exactly the same order by
//             every backend, and the §IV-style per-size-class cells rank
//             identically too;
//   campaign  a seeded LLAMBO generative campaign converges to the same
//             best configuration through the quantized surrogate as
//             through f32.
//
// The report names the dispatched kernel arch, so a run records which
// tier its conclusions held on.  Exit is nonzero on any gate failure.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "eval/metrics.hpp"
#include "eval/quant_ab.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "prompt/template.hpp"
#include "quant/arch.hpp"
#include "quant/quantized_lm.hpp"
#include "tune/campaign.hpp"
#include "tune/llambo_tuner.hpp"
#include "util/table.hpp"

namespace {

using namespace lmpeel;

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return (end == value || *end != '\0') ? fallback : parsed;
}

/// Generative-surrogate score of one candidate: log P(label | prompt).
/// Both models are deterministic, so the seed is immaterial.
double surrogate_score(lm::LanguageModel& model,
                       const std::vector<int>& context,
                       const std::vector<int>& label) {
  return lm::sequence_log_probability(model, context, label, /*seed=*/0);
}

std::size_t best_index(const tune::CampaignResult& result) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < result.evaluated.size(); ++i) {
    if (result.evaluated[i].runtime < result.evaluated[best].runtime) {
      best = i;
    }
  }
  return result.evaluated[best].config_index;
}

}  // namespace

int main() {
  core::Pipeline pipeline;
  const auto& tz = pipeline.tokenizer();
  const quant::Arch arch = quant::dispatched_arch();

  lm::TransformerConfig config;
  config.vocab = tz.vocab_size();
  config.d_model = bench::env_int("LMPEEL_QAB_DMODEL", 64);
  config.n_head = bench::env_int("LMPEEL_QAB_HEADS", 4);
  config.n_layer = bench::env_int("LMPEEL_QAB_LAYERS", 2);
  config.max_seq = bench::env_int("LMPEEL_QAB_MAXSEQ", 192);
  lm::TransformerLm f32(config, /*seed=*/1);
  quant::QuantizedLm int8(f32, quant::WeightFormat::kInt8, arch);
  quant::QuantizedLm fp16(f32, quant::WeightFormat::kFp16, arch);
  struct Variant {
    const char* name;
    lm::LanguageModel* model;
  };
  const std::vector<Variant> variants{{"int8", &int8}, {"fp16", &fp16}};
  std::cout << "reference: d_model " << config.d_model << ", layers "
            << config.n_layer << ", vocab " << config.vocab << " ("
            << f32.parameter_count() << " parameters), kernel arch "
            << quant::arch_name(arch) << "\n";
  bool ok = true;

  // ---- gate 1: bounded logit drift along a greedy rollout ---------------
  const double drift_max = env_double("LMPEEL_QAB_DRIFT_MAX", 0.25);
  const auto prompt = tz.encode("tune syr2k for the SM dataset");
  util::Table drift_table(
      {"variant", "steps", "max_drift", "rms_drift", "greedy_agrees"});
  for (const auto& v : variants) {
    const eval::DriftReport report =
        eval::logit_drift(f32, *v.model, prompt, /*steps=*/16);
    if (std::string(v.name) == "int8") {
      obs::Registry::global()
          .gauge("quant.max_abs_logit_drift")
          .set(static_cast<double>(report.max_abs_drift));
    }
    const bool drift_ok = report.max_abs_drift <= drift_max;
    ok = ok && drift_ok;
    drift_table.add_row(
        {v.name, std::to_string(report.steps),
         util::Table::num(static_cast<double>(report.max_abs_drift), 6),
         util::Table::num(report.rms_drift, 6),
         report.greedy_paths_agree ? "yes" : "no"});
    if (!drift_ok) {
      std::cout << v.name << " drift " << report.max_abs_drift
                << " exceeds bound " << drift_max << " FAILED\n";
    }
  }
  bench::emit("quant-ab: logit drift (bound " +
                  util::Table::num(drift_max, 2) + ")",
              drift_table);

  // ---- gate 2: candidate-panel and per-size orderings preserved ---------
  // Fig. 2-style: a fixed candidate panel, each candidate scored by the
  // log-probability of its own rendered query block after the shared ICL
  // prefix (encode_prefix + append_query split the prompt exactly there).
  // Candidates render to genuinely different token sequences, so the
  // scores separate by O(1) — the backend comparison tests ordering
  // robustness at realistic score gaps, not float-noise ties.
  const auto candidate_score = [&tz](lm::LanguageModel& model,
                                     const prompt::PromptBuilder& b,
                                     const std::vector<int>& prefix,
                                     const perf::Syr2kConfig& candidate) {
    std::vector<int> ids = prefix;
    b.append_query(tz, candidate, ids);
    const std::vector<int> query(ids.begin() +
                                     static_cast<std::ptrdiff_t>(prefix.size()),
                                 ids.end());
    return surrogate_score(model, prefix, query);
  };
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  std::vector<perf::Sample> icl(data.samples().begin(),
                                data.samples().begin() + 8);
  const auto prefix = builder.encode_prefix(tz, icl);
  const int panel = bench::env_int("LMPEEL_QAB_PANEL", 12);
  std::vector<perf::Syr2kConfig> candidates;
  for (int i = 0; i < panel; ++i) {
    const auto& sample =
        data[icl.size() + static_cast<std::size_t>(i) * 7 % (data.size() -
                                                             icl.size())];
    candidates.push_back(sample.config);
  }
  std::vector<double> f32_scores;
  for (const auto& candidate : candidates) {
    f32_scores.push_back(candidate_score(f32, builder, prefix, candidate));
  }
  util::Table ordering_table(
      {"variant", "panel_identical", "panel_rho", "size_cells_identical"});
  for (const auto& v : variants) {
    std::vector<double> scores;
    for (const auto& candidate : candidates) {
      scores.push_back(candidate_score(*v.model, builder, prefix, candidate));
    }
    const bool identical = eval::same_ranking(f32_scores, scores);
    const double rho = eval::spearman_rho(f32_scores, scores);

    // §IV-style table cells: mean candidate score per size class; the
    // ranking of the six cells is the table's conclusion.
    std::vector<double> f32_cells, var_cells;
    for (const perf::SizeClass size : perf::kAllSizes) {
      const auto& cell_data = pipeline.dataset(size);
      const auto cell_builder = pipeline.builder(size);
      std::vector<perf::Sample> cell_icl(cell_data.samples().begin(),
                                         cell_data.samples().begin() + 6);
      const auto cell_prefix = cell_builder.encode_prefix(tz, cell_icl);
      double f32_sum = 0.0, var_sum = 0.0;
      for (int i = 0; i < 4; ++i) {
        const auto& cell_cfg =
            cell_data[cell_icl.size() + static_cast<std::size_t>(i)].config;
        f32_sum += candidate_score(f32, cell_builder, cell_prefix, cell_cfg);
        var_sum += candidate_score(*v.model, cell_builder, cell_prefix,
                                   cell_cfg);
      }
      f32_cells.push_back(f32_sum / 4.0);
      var_cells.push_back(var_sum / 4.0);
    }
    const bool cells_identical = eval::same_ranking(f32_cells, var_cells);
    ok = ok && identical && cells_identical;
    ordering_table.add_row({v.name, identical ? "yes" : "NO",
                            util::Table::num(rho, 4),
                            cells_identical ? "yes" : "NO"});
  }
  bench::emit("quant-ab: surrogate orderings (panel " +
                  std::to_string(panel) + ")",
              ordering_table);

  // ---- gate 3: seeded LLAMBO campaign reaches the same best config ------
  // Generative mode scores candidates by label log-probability — pure
  // next_logits arithmetic, no sampling — so the only way the quantized
  // surrogate changes the campaign is by flipping a score comparison.
  const auto run = [&](lm::LanguageModel& model) {
    tune::LlamboOptions llambo;
    llambo.mode = tune::LlamboMode::Generative;
    llambo.warmup = 4;
    llambo.candidate_pool = 6;
    llambo.max_icl = 12;
    tune::LlamboTuner tuner(model, tz, perf::SizeClass::SM, llambo);
    tune::CampaignOptions options;
    options.budget =
        static_cast<std::size_t>(bench::env_int("LMPEEL_QAB_BUDGET", 12));
    options.seed = 3;
    return tune::run_campaign(tuner, pipeline.perf_model(),
                              perf::SizeClass::SM, options);
  };
  const auto f32_campaign = run(f32);
  util::Table campaign_table({"variant", "best_config", "same_best",
                              "same_eval_sequence", "best_runtime"});
  campaign_table.add_row(
      {"f32", std::to_string(best_index(f32_campaign)), "-", "-",
       util::Table::num(f32_campaign.best_runtime(), 5)});
  for (const auto& v : variants) {
    const auto campaign = run(*v.model);
    const bool same_best = best_index(campaign) == best_index(f32_campaign);
    bool same_sequence =
        campaign.evaluated.size() == f32_campaign.evaluated.size();
    for (std::size_t i = 0; same_sequence && i < campaign.evaluated.size();
         ++i) {
      same_sequence = campaign.evaluated[i].config_index ==
                      f32_campaign.evaluated[i].config_index;
    }
    ok = ok && same_best;
    campaign_table.add_row({v.name, std::to_string(best_index(campaign)),
                            same_best ? "yes" : "NO",
                            same_sequence ? "yes" : "no",
                            util::Table::num(campaign.best_runtime(), 5)});
  }
  bench::emit("quant-ab: seeded LLAMBO generative campaign", campaign_table);

  std::cout << (ok ? "all quant A/B gates passed\n"
                   : "quant A/B gate FAILED\n");
  return ok ? 0 : 1;
}
