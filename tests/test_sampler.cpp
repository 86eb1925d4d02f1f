#include "lm/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "lm/language_model.hpp"

namespace lmpeel::lm {
namespace {

TEST(Greedy, PicksArgmax) {
  const std::vector<float> logits{0.1f, 2.0f, -1.0f};
  EXPECT_EQ(sample_greedy(logits), 1);
}

TEST(Greedy, IgnoresNegInf) {
  const std::vector<float> logits{kNegInf, -5.0f, kNegInf};
  EXPECT_EQ(sample_greedy(logits), 1);
}

TEST(Greedy, AllNegInfThrows) {
  const std::vector<float> logits{kNegInf, kNegInf};
  EXPECT_THROW(sample_greedy(logits), std::runtime_error);
}

TEST(Probabilities, SoftmaxWithMaskedEntries) {
  const std::vector<float> logits{0.0f, kNegInf, 0.0f};
  std::vector<float> probs(3);
  probabilities(logits, probs);
  EXPECT_NEAR(probs[0], 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(probs[1], 0.0f);
  EXPECT_NEAR(probs[2], 0.5f, 1e-6f);
}

TEST(Sample, ZeroTemperatureIsGreedy) {
  const std::vector<float> logits{0.0f, 3.0f, 1.0f};
  SamplerConfig config{0.0, 0, 1.0};
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sample(logits, config, rng), 1);
  }
}

TEST(Sample, NeverSelectsNegInf) {
  const std::vector<float> logits{kNegInf, 0.0f, kNegInf, 0.0f};
  SamplerConfig config{2.0, 0, 1.0};
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const int t = sample(logits, config, rng);
    EXPECT_TRUE(t == 1 || t == 3);
  }
}

TEST(Sample, FrequenciesTrackSoftmax) {
  // P(1)/P(0) = e^2 at temperature 1.
  const std::vector<float> logits{0.0f, 2.0f};
  SamplerConfig config{1.0, 0, 1.0};
  util::Rng rng(3);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += sample(logits, config, rng);
  const double expected = std::exp(2.0) / (1.0 + std::exp(2.0));
  EXPECT_NEAR(static_cast<double>(ones) / n, expected, 0.01);
}

TEST(Sample, TopKRestrictsSupport) {
  const std::vector<float> logits{3.0f, 2.0f, 1.0f, 0.0f};
  SamplerConfig config{5.0, 2, 1.0};  // high temp, but only top 2 eligible
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const int t = sample(logits, config, rng);
    EXPECT_TRUE(t == 0 || t == 1);
  }
}

TEST(Sample, TopPRestrictsToNucleus) {
  // One dominant token (p ~ 0.95) with tiny alternatives: top_p = 0.9
  // keeps only the dominant token.
  const std::vector<float> logits{5.0f, 0.0f, 0.0f, 0.0f};
  SamplerConfig config{1.0, 0, 0.9};
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(sample(logits, config, rng), 0);
  }
}

TEST(Sample, HighTemperatureFlattens) {
  const std::vector<float> logits{0.0f, 1.0f};
  SamplerConfig config{100.0, 0, 1.0};
  util::Rng rng(6);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += sample(logits, config, rng);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02);
}

// lm::sample as it was when it ordered the support with std::sort: the
// reference the sort-free implementation must reproduce draw for draw.
int frozen_sample(std::span<const float> logits, const SamplerConfig& config,
                  util::Rng& rng) {
  if (config.temperature <= 0.0) return sample_greedy(logits);
  struct Entry {
    int token;
    double weight;
  };
  float hi = kNegInf;
  for (const float l : logits) hi = std::max(hi, l);
  std::vector<Entry> entries;
  for (int i = 0; i < static_cast<int>(logits.size()); ++i) {
    if (logits[i] == kNegInf) continue;
    const double scaled =
        (static_cast<double>(logits[i]) - hi) / config.temperature;
    entries.push_back({i, std::exp(scaled)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.token < b.token;
  });
  if (config.top_k > 0 &&
      entries.size() > static_cast<std::size_t>(config.top_k)) {
    entries.resize(config.top_k);
  }
  if (config.top_p < 1.0) {
    double total = 0.0;
    for (const Entry& e : entries) total += e.weight;
    double cum = 0.0;
    std::size_t keep = 0;
    for (; keep < entries.size(); ++keep) {
      cum += entries[keep].weight;
      if (cum >= config.top_p * total) {
        ++keep;
        break;
      }
    }
    entries.resize(std::max<std::size_t>(1, keep));
  }
  double total = 0.0;
  for (const Entry& e : entries) total += e.weight;
  double r = rng.uniform() * total;
  for (const Entry& e : entries) {
    r -= e.weight;
    if (r < 0.0) return e.token;
  }
  return entries.back().token;
}

TEST(Sampler, BitIdenticalToFrozenImplementation) {
  util::Rng gen(21);
  std::vector<std::vector<float>> rows;
  for (const std::size_t vocab : {1u, 2u, 7u, 300u, 1761u}) {
    std::vector<float> plain(vocab), tied(vocab), masked(vocab),
        underflow(vocab), near(vocab);
    for (std::size_t v = 0; v < vocab; ++v) {
      // Logits one float ulp apart, rising with the token: their weights
      // differ only in low mantissa bits.
      near[v] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(1.0f) +
                                     static_cast<std::uint32_t>(v % 64));
      plain[v] = static_cast<float>(gen.normal(0.0, 3.0));
      // Few distinct values: long runs of equal weights.
      tied[v] = std::round(static_cast<float>(gen.normal(0.0, 1.5)));
      masked[v] = gen.uniform() < 0.4 ? kNegInf : plain[v];
      // Far below the max, exp() underflows to exactly 0 at every T here.
      underflow[v] = gen.uniform() < 0.5 ? -5000.0f + tied[v] : tied[v];
    }
    masked[vocab / 2] = 1.0f;  // keep the support non-empty
    rows.push_back(plain);
    rows.push_back(tied);
    rows.push_back(masked);
    rows.push_back(underflow);
    rows.push_back(near);
    rows.push_back(std::vector<float>(vocab, 0.5f));  // every weight equal
  }
  const std::pair<int, double> truncations[] = {
      {0, 1.0}, {5, 1.0}, {0, 0.9}, {50, 0.5}, {3, 0.99}};
  for (const double temperature : {0.3, 0.8, 1.0, 2.0}) {
    for (const auto& [top_k, top_p] : truncations) {
      const SamplerConfig config{temperature, top_k, top_p};
      for (std::size_t r = 0; r < rows.size(); ++r) {
        util::Rng want_rng(1000 + r), got_rng(1000 + r);
        for (int i = 0; i < 20; ++i) {
          const int want = frozen_sample(rows[r], config, want_rng);
          const int got = sample(rows[r], config, got_rng);
          ASSERT_EQ(got, want) << "T=" << temperature << " top_k=" << top_k
                               << " top_p=" << top_p << " row " << r
                               << " draw " << i;
        }
        // Both consumed the RNG stream identically.
        EXPECT_EQ(got_rng.uniform(), want_rng.uniform());
      }
    }
  }
}

}  // namespace
}  // namespace lmpeel::lm
