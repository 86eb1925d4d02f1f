// §IV-C-1 — needles in a haystack: error-bounded hit rates of the LLM's
// reachable decodings versus XGBoost's point predictions.
//
// Paper: "over half of all LLM-generated values have 50% or less relative
// error … 20% within 10% … merely 3% within 1%", versus XGBoost trained on
// 100 samples at 95% / 52% / 6%.  The LLM column counts a hit when ANY
// reachable decoding lands within the bound (the hypothetical post-hoc
// decoder); the sampled column scores the value actually generated.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "eval/needles.hpp"
#include "gbt/random_search.hpp"
#include "obs/span.hpp"
#include "perf/dataset.hpp"
#include "sweep_haystack_observer.hpp"
#include "util/table.hpp"

namespace {

using namespace lmpeel;

/// XGBoost(100-example) hit rates over both sizes' held-out data.
std::vector<double> xgboost_hit_rates(int iterations) {
  std::vector<double> truth_all, pred_all;
  const perf::Syr2kModel model;
  for (const perf::SizeClass size :
       {perf::SizeClass::SM, perf::SizeClass::XL}) {
    const perf::Dataset data = perf::Dataset::generate(model, size, 42);
    const auto x = data.feature_matrix();
    const auto y = data.targets();
    const std::size_t cols = perf::ConfigSpace::kNumFeatures;
    util::Rng rng(7);
    const perf::Split split = perf::train_test_split(data.size(), 100, rng);
    std::vector<double> tx, ty;
    for (const std::size_t r : split.train) {
      tx.insert(tx.end(), x.begin() + r * cols, x.begin() + (r + 1) * cols);
      ty.push_back(y[r]);
    }
    gbt::RandomSearchOptions options;
    options.iterations = iterations;
    options.seed = 13;
    const auto search = gbt::random_search(tx, cols, ty, options);
    for (const std::size_t r : split.test) {
      truth_all.push_back(y[r]);
      pred_all.push_back(search.best_model.predict_row(
          std::span<const double>(x).subspan(r * cols, cols)));
    }
  }
  std::vector<double> rates;
  for (const double bound : eval::kErrorBounds) {
    rates.push_back(eval::hit_rate(truth_all, pred_all, bound));
  }
  return rates;
}

}  // namespace

int main() {
  obs::Span bench_span("bench.needles_vs_xgboost");
  core::Pipeline pipeline;
  core::SweepSettings settings;

  bench::HaystackObserver observer;
  observer.tz = &pipeline.tokenizer();
  observer.options.exact_limit = 20000;
  observer.options.mc_samples =
      static_cast<std::size_t>(bench::env_int("LMPEEL_NEEDLES_MC", 8000));
  run_llm_quality_sweep(pipeline, settings, &observer);

  const auto xgb =
      xgboost_hit_rates(bench::env_int("LMPEEL_TABLE1_ITERS", 30));

  const double n = static_cast<double>(observer.generations);
  util::Table table({"bound", "llm_sampled", "llm_any_reachable",
                     "xgboost_100", "paper_llm", "paper_xgb"});
  const char* paper_llm[] = {">0.50", "0.20", "0.03"};
  const char* paper_xgb[] = {"0.95", "0.52", "0.06"};
  for (std::size_t b = 0; b < 3; ++b) {
    table.add_row(
        {util::Table::num(eval::kErrorBounds[b], 2),
         util::Table::num(observer.sampled_hits[b] / n, 3),
         util::Table::num(observer.needle_hits[b] / n, 3),
         util::Table::num(xgb[b], 3), paper_llm[b], paper_xgb[b]});
  }
  bench::emit("§IV-C-1 — needle hit rates at the paper's error bounds",
              table);

  bool xgb_dominates = true;
  for (std::size_t b = 0; b < 3; ++b) {
    if (xgb[b] < observer.sampled_hits[b] / n) xgb_dominates = false;
  }
  std::cout << (xgb_dominates
                    ? "XGBoost dominates the sampled LLM at every bound — "
                      "matching the paper's conclusion.\n"
                    : "DEVIATION: XGBoost did not dominate at every "
                      "bound.\n");
  std::cout << "generations analysed: " << observer.generations << "\n";
  return 0;
}
