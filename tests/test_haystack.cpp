#include "haystack/decoding_set.hpp"
#include "haystack/permutations.hpp"
#include "haystack/value_distribution.hpp"

#include <gtest/gtest.h>

#include "lm/generate.hpp"
#include "lm/induction_lm.hpp"
#include "perf/dataset.hpp"
#include "prompt/template.hpp"

namespace lmpeel::haystack {
namespace {

/// Builds a synthetic trace over the tokenizer's id space: each step gets
/// explicit candidates with uniform probability.
lm::GenerationTrace synthetic_trace(
    const tok::Tokenizer& tz,
    const std::vector<std::vector<std::string>>& step_texts) {
  lm::GenerationTrace trace;
  for (const auto& texts : step_texts) {
    lm::Step step;
    for (const auto& t : texts) {
      int id;
      if (t == "\n") {
        id = tz.newline_token();
      } else if (t == ".") {
        id = tz.dot_token();
      } else {
        id = tz.vocab().number_token(t);
      }
      step.candidates.push_back(
          {id, 0.0f, 1.0f / static_cast<float>(texts.size())});
    }
    step.chosen = step.candidates.front().token;
    trace.add_step(std::move(step));
  }
  return trace;
}

TEST(FindValueSpan, LocatesWellFormedValue) {
  tok::Tokenizer tz;
  const auto trace =
      synthetic_trace(tz, {{"0"}, {"."}, {"002"}, {"215"}, {"5"}});
  const auto span = find_value_span(trace, tz);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->first, 0u);
  EXPECT_EQ(span->second, 5u);
}

TEST(FindValueSpan, RejectsValuelessTrace) {
  tok::Tokenizer tz;
  lm::GenerationTrace trace;
  lm::Step step;
  step.candidates.push_back({tz.newline_token(), 0.0f, 1.0f});
  step.chosen = tz.newline_token();
  trace.add_step(step);
  EXPECT_FALSE(find_value_span(trace, tz).has_value());
}

TEST(BuildDecodingSet, ExactEnumerationMatchesCombinatorics) {
  tok::Tokenizer tz;
  // 1 x 1 x 2 x 3 = 6 combinations, all well-formed.
  const auto trace = synthetic_trace(
      tz, {{"0"}, {"."}, {"002", "003"}, {"1", "2", "3"}});
  DecodingOptions options;
  const auto set = build_decoding_set(trace, tz, 0, 4, options);
  EXPECT_TRUE(set.exact);
  EXPECT_DOUBLE_EQ(set.permutations, 6.0);
  EXPECT_EQ(set.values.size(), 6u);
  EXPECT_DOUBLE_EQ(set.sampled_value, 0.0021);
  double mass = 0.0;
  for (const auto& wv : set.values) mass += wv.weight;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(BuildDecodingSet, TerminationCandidateShortensValue) {
  tok::Tokenizer tz;
  // Third step can terminate: "0.1" (via newline) or "0.12".
  const auto trace =
      synthetic_trace(tz, {{"0"}, {"."}, {"1"}, {"2", "\n"}});
  DecodingOptions options;
  const auto set = build_decoding_set(trace, tz, 0, 4, options);
  ASSERT_EQ(set.values.size(), 2u);
  EXPECT_DOUBLE_EQ(set.values[0].value, 0.1);
  EXPECT_DOUBLE_EQ(set.values[1].value, 0.12);
  EXPECT_NEAR(set.values[0].weight, 0.5, 1e-9);
}

TEST(BuildDecodingSet, MonteCarloApproximatesExact) {
  tok::Tokenizer tz;
  const auto trace = synthetic_trace(
      tz, {{"0"}, {"."}, {"002", "003", "004"}, {"1", "2", "3", "4"}});
  DecodingOptions exact_options;
  const auto exact = build_decoding_set(trace, tz, 0, 4, exact_options);
  DecodingOptions mc_options;
  mc_options.exact_limit = 1;  // force Monte-Carlo
  mc_options.mc_samples = 40000;
  mc_options.seed = 3;
  const auto mc = build_decoding_set(trace, tz, 0, 4, mc_options);
  EXPECT_FALSE(mc.exact);
  ValueDistribution de(exact.values), dm(mc.values);
  EXPECT_NEAR(de.mean(), dm.mean(), 2e-4);
  EXPECT_EQ(de.support_size(), dm.support_size());
}

TEST(ValueDistribution, WeightedStatistics) {
  ValueDistribution dist({{1.0, 1.0}, {3.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(dist.support_size(), 3u);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), 3.0);
  EXPECT_DOUBLE_EQ(dist.mean(), (1.0 + 3.0 + 2.0 * 2.0) / 4.0);
  EXPECT_DOUBLE_EQ(dist.median(), 2.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(1.0), 3.0);
}

TEST(ValueDistribution, NeedleQueries) {
  ValueDistribution dist({{1.0, 0.5}, {2.0, 0.5}});
  EXPECT_TRUE(dist.contains_within(1.05, 0.10));
  EXPECT_FALSE(dist.contains_within(1.5, 0.10));
  EXPECT_NEAR(dist.mass_within(1.0, 0.10), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(dist.closest_to(1.7), 2.0);
}

TEST(ExactMoments, MatchesEnumerationOnSmallTrace) {
  tok::Tokenizer tz;
  const auto trace = synthetic_trace(
      tz, {{"0"}, {"."}, {"002", "003"}, {"1", "22", "\n"}});
  DecodingOptions options;
  const auto set = build_decoding_set(trace, tz, 0, 4, options);
  ASSERT_TRUE(set.exact);
  const ValueDistribution dist(set.values);
  const auto moments = exact_moments(trace, tz, 0, 4);
  EXPECT_NEAR(moments.mass, 1.0, 1e-12);
  EXPECT_NEAR(moments.mean, dist.mean(), 1e-12);
  // variance against the enumerated distribution
  double var = 0.0;
  for (const auto& wv : dist.values()) {
    var += wv.weight * (wv.value - dist.mean()) * (wv.value - dist.mean());
  }
  EXPECT_NEAR(moments.variance, var, 1e-12);
}

TEST(ExactMoments, HandlesIntegerOnlyPathsAsMalformed) {
  tok::Tokenizer tz;
  // Second step can terminate before the dot: that path is malformed and
  // must be excluded from the mass.
  const auto trace =
      synthetic_trace(tz, {{"1"}, {".", "\n"}, {"5"}});
  const auto moments = exact_moments(trace, tz, 0, 3);
  EXPECT_NEAR(moments.mass, 0.5, 1e-12);
  EXPECT_NEAR(moments.mean, 1.5, 1e-12);
  EXPECT_NEAR(moments.variance, 0.0, 1e-12);
}

TEST(ExactMoments, AgreesWithMonteCarloOnRealTrace) {
  static perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  tok::Tokenizer tz;
  lm::InductionLm model(tz);
  util::Rng rng(4);
  const auto sets = perf::disjoint_subsets(data.size(), 1, 15, rng);
  std::vector<perf::Sample> icl;
  for (const std::size_t i : sets[0]) icl.push_back(data[i]);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  const auto ids = builder.encode(tz, icl, data[321].config);
  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 1.0};
  gen.stop_token = tz.newline_token();
  gen.seed = 9;
  gen.record_trace = true;
  const auto generation = lm::generate(model, ids, gen);
  ASSERT_EQ(generation.trace.length(), generation.tokens.size());
  const auto span = find_value_span(generation.trace, tz);
  ASSERT_TRUE(span.has_value());
  DecodingOptions options;
  options.exact_limit = 1;  // force Monte-Carlo
  options.mc_samples = 60000;
  const auto set = build_decoding_set(generation.trace, tz, span->first,
                                      span->second, options);
  const ValueDistribution dist(set.values);
  const auto moments =
      exact_moments(generation.trace, tz, span->first, span->second);
  EXPECT_GT(moments.mass, 0.5);
  EXPECT_NEAR(moments.mean, dist.mean(),
              std::abs(dist.mean()) * 0.05 + 1e-6);
}

TEST(TokenPositionStats, AggregatesAcrossTraces) {
  tok::Tokenizer tz;
  TokenPositionStats stats;
  const auto t1 =
      synthetic_trace(tz, {{"0"}, {"."}, {"002", "003"}, {"5"}});
  const auto t2 = synthetic_trace(
      tz, {{"1", "2", "3"}, {"."}, {"7"}});
  EXPECT_TRUE(stats.add_trace(t1, tz));
  EXPECT_TRUE(stats.add_trace(t2, tz));
  ASSERT_EQ(stats.per_position.size(), 4u);
  EXPECT_EQ(stats.per_position[0].count(), 2u);
  EXPECT_DOUBLE_EQ(stats.per_position[0].mean(), 2.0);  // (1 + 3)/2
  EXPECT_DOUBLE_EQ(stats.per_position[1].mean(), 1.0);  // "." always 1
  EXPECT_EQ(stats.per_position[3].count(), 1u);         // only t1 reached 4
  EXPECT_EQ(stats.traces_with_value, 2u);
  EXPECT_DOUBLE_EQ(stats.permutations.max(), 3.0);
}

TEST(TokenPositionStats, CountsValuelessTraces) {
  tok::Tokenizer tz;
  TokenPositionStats stats;
  lm::GenerationTrace empty;
  EXPECT_FALSE(stats.add_trace(empty, tz));
  EXPECT_EQ(stats.traces_without_value, 1u);
}

TEST(EndToEnd, InductionTraceYieldsLargeHaystack) {
  static perf::Dataset data =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  tok::Tokenizer tz;
  lm::InductionLm model(tz);
  util::Rng rng(1);
  const auto sets = perf::disjoint_subsets(data.size(), 1, 25, rng);
  std::vector<perf::Sample> icl;
  for (const std::size_t i : sets[0]) icl.push_back(data[i]);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  const auto ids = builder.encode(tz, icl, data[123].config);

  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 1.0};
  gen.stop_token = tz.newline_token();
  gen.seed = 5;
  gen.record_trace = true;
  const auto generation = lm::generate(model, ids, gen);
  ASSERT_EQ(generation.trace.length(), generation.tokens.size());
  const auto span = find_value_span(generation.trace, tz);
  ASSERT_TRUE(span.has_value());
  DecodingOptions options;
  options.exact_limit = 5000;
  options.mc_samples = 5000;
  const auto set = build_decoding_set(generation.trace, tz, span->first,
                                      span->second, options);
  EXPECT_GT(set.permutations, 1000.0);
  ValueDistribution dist(set.values);
  EXPECT_GT(dist.support_size(), 50u);
  // With exact enumeration the sampled value is necessarily inside the
  // reachable range; a Monte-Carlo estimate can miss a rare sampled path.
  if (set.exact) {
    EXPECT_GE(set.sampled_value, dist.min());
    EXPECT_LE(set.sampled_value, dist.max());
  } else {
    EXPECT_GT(set.sampled_value, 0.0);
  }
}

}  // namespace
}  // namespace lmpeel::haystack
