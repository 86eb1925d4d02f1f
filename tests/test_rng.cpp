#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace lmpeel::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, StreamsAreIndependent) {
  // Streams derived from the same seed must not collide or correlate.
  Rng a(42, 0), b(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, NearbyStreamIdsDecorrelated) {
  // SplitMix-mixed stream derivation: adjacent ids shouldn't produce
  // adjacent states.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 100; ++s) {
    firsts.insert(Rng(7, s).next());
  }
  EXPECT_EQ(firsts.size(), 100u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 6);
    ++counts[v - 2];
  }
  for (const int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalIsPositiveWithUnitMedian) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 10001; ++i) {
    const double x = rng.lognormal(0.0, 0.5);
    ASSERT_GT(x, 0.0);
    xs.push_back(x);
  }
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], 1.0, 0.05);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, CategoricalProportionalToWeights) {
  Rng rng(19);
  const double w[3] = {1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) ++counts[rng.categorical(w, 3)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.015);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(21);
  const double w[3] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.categorical(w, 3), 1u);
  }
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(23);
  const double w[2] = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(w, 2), std::runtime_error);
}

TEST(Rng, CategoricalWithTotalDrawsTheSame) {
  Rng weights_rng(27);
  std::vector<double> w(37);
  for (double& x : w) x = weights_rng.uniform() * 1e-3;
  w[5] = 0.0;
  const double total = Rng::categorical_total(w.data(), w.size());
  Rng a(29), b(29);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.categorical(w.data(), w.size()),
              b.categorical(w.data(), w.size(), total));
  }
  const double zeros[2] = {0.0, 0.0};
  EXPECT_THROW(Rng::categorical_total(zeros, 2), std::runtime_error);
  const double negative[2] = {1.0, -0.5};
  EXPECT_THROW(Rng::categorical_total(negative, 2), std::runtime_error);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(25);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v.begin(), v.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Mix64, InjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace lmpeel::util
