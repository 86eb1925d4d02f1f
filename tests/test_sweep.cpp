#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/reporting.hpp"

namespace lmpeel::core {
namespace {

/// A scaled-down sweep that still exercises every code path: both sizes,
/// both curations, two ICL counts, two sets, two seeds, three queries.
SweepSettings small_settings() {
  SweepSettings s;
  s.icl_counts = {1, 5};
  s.disjoint_sets = 2;
  s.seeds = 2;
  s.queries_per_setting = 3;
  return s;
}

class SweepFixture : public ::testing::Test {
 protected:
  static Pipeline& pipeline() {
    static Pipeline p;
    return p;
  }
  static const SweepResult& result() {
    static const SweepResult r =
        run_llm_quality_sweep(pipeline(), small_settings());
    return r;
  }
};

TEST_F(SweepFixture, ProducesOneSettingPerCellAndSeed) {
  // 2 sizes x 2 curations x 2 icl x 2 sets x 2 seeds = 32 settings.
  EXPECT_EQ(result().settings.size(), 32u);
  EXPECT_EQ(result().total_queries(), 32u * 3u);
}

TEST_F(SweepFixture, MostQueriesParse) {
  EXPECT_GT(result().total_parsed(), result().total_queries() * 3 / 4);
}

TEST_F(SweepFixture, MetricsFiniteWhenPresent) {
  for (const SettingResult& s : result().settings) {
    if (!s.r2.has_value()) continue;
    EXPECT_TRUE(std::isfinite(*s.r2)) << s.key.to_string();
    EXPECT_TRUE(std::isfinite(*s.mare));
    EXPECT_TRUE(std::isfinite(*s.msre));
    EXPECT_GE(*s.mare, 0.0);
    EXPECT_GE(*s.msre, 0.0);
  }
}

TEST_F(SweepFixture, TraceStructureRecorded) {
  std::size_t with_counts = 0;
  for (const SettingResult& s : result().settings) {
    for (const QueryRecord& q : s.queries) {
      if (q.candidate_counts.empty()) continue;
      ++with_counts;
      // Value tokens: int group, dot, >= 1 fraction group.
      EXPECT_GE(q.candidate_counts.size(), 3u);
      EXPECT_GE(q.permutations, 1.0);
    }
  }
  EXPECT_GT(with_counts, 0u);
}

TEST_F(SweepFixture, ReproducibleAcrossRuns) {
  const SweepResult again =
      run_llm_quality_sweep(pipeline(), small_settings());
  ASSERT_EQ(again.settings.size(), result().settings.size());
  for (std::size_t i = 0; i < again.settings.size(); ++i) {
    const auto& a = again.settings[i];
    const auto& b = result().settings[i];
    EXPECT_EQ(a.key.to_string(), b.key.to_string());
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (std::size_t q = 0; q < a.queries.size(); ++q) {
      EXPECT_EQ(a.queries[q].predicted.has_value(),
                b.queries[q].predicted.has_value());
      if (a.queries[q].predicted.has_value()) {
        EXPECT_DOUBLE_EQ(*a.queries[q].predicted, *b.queries[q].predicted);
      }
    }
  }
}

TEST_F(SweepFixture, ObserverSeesEveryQuery) {
  struct Counter : SweepObserver {
    std::size_t calls = 0;
    std::size_t with_trace = 0;
    void on_query(const SettingKey&, const QueryRecord& record,
                  const lm::GenerationTrace& trace,
                  const std::vector<std::string>& icl) override {
      ++calls;
      if (trace.length() > 0) ++with_trace;
      // The sweep opts its requests into the trace: a parsed value means
      // emitted tokens, so its trace cannot be empty.
      if (record.predicted.has_value()) {
        EXPECT_GT(trace.length(), 0u);
      }
      EXPECT_FALSE(icl.empty());
    }
  } counter;
  run_llm_quality_sweep(pipeline(), small_settings(), &counter);
  EXPECT_EQ(counter.calls, 32u * 3u);
  EXPECT_GT(counter.with_trace, counter.calls / 2);
}

TEST_F(SweepFixture, SummaryAggregatesConsistently) {
  const SweepSummary summary = summarize(result());
  EXPECT_EQ(summary.queries_total, result().total_queries());
  EXPECT_EQ(summary.queries_parsed, result().total_parsed());
  EXPECT_LE(summary.nonnegative_r2, summary.settings_with_metrics);
  EXPECT_GE(summary.best_r2, summary.r2.mean());
  EXPECT_LE(summary.copy_rate(), 1.0);
  const util::Table table = summary_table(summary);
  EXPECT_GT(table.rows(), 8u);
}

TEST_F(SweepFixture, SweepTableCoversAllCells) {
  const util::Table table = sweep_table(result());
  // 2 sizes x 2 curations x 2 icl counts = 8 rows.
  EXPECT_EQ(table.rows(), 8u);
  EXPECT_EQ(table.cols(), 9u);
}

TEST(SettingKey, ToStringIsHumanReadable) {
  SettingKey key{perf::SizeClass::XL, Curation::MinimalEditDistance, 25, 3,
                 1};
  EXPECT_EQ(key.to_string(), "XL/min-edit/icl=25/set=3/seed=1");
}

TEST(SettingResult, FinalizeRequiresTwoParsedQueries) {
  SettingResult s;
  QueryRecord q1;
  q1.truth = 1.0;
  q1.predicted = 1.1;
  s.queries.push_back(q1);
  s.finalize();
  EXPECT_FALSE(s.r2.has_value());
  QueryRecord q2;
  q2.truth = 2.0;
  q2.predicted = 1.9;
  s.queries.push_back(q2);
  s.finalize();
  ASSERT_TRUE(s.r2.has_value());
  EXPECT_EQ(s.parsed, 2u);
}

}  // namespace
}  // namespace lmpeel::core
