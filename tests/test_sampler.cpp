#include "lm/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "glibc_fma_expf.hpp"
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
// reference the sort-free implementation must reproduce draw for draw.  It
// is split in two so a test can order a row once for many draws.
struct Entry {
  int token;
  double weight;
};

// The support of `logits` at `temperature`, ordered.  `exp` is the
// weights' exp: the sampler's twin, or the host libm's.
std::vector<Entry> frozen_support(std::span<const float> logits,
                                  double temperature, double (*exp)(double)) {
  float hi = kNegInf;
  for (const float l : logits) hi = std::max(hi, l);
  std::vector<Entry> entries;
  for (int i = 0; i < static_cast<int>(logits.size()); ++i) {
    if (logits[i] == kNegInf) continue;
    const double scaled = (static_cast<double>(logits[i]) - hi) / temperature;
    entries.push_back({i, exp(scaled)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.token < b.token;
  });
  return entries;
}

// One draw from an ordered support under `config`'s top-k and top-p.
int frozen_draw(std::vector<Entry> entries, const SamplerConfig& config,
                util::Rng& rng) {
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

/// Rows the frozen-sampler comparison draws from.
std::vector<std::vector<float>> frozen_comparison_rows() {
  util::Rng gen(21);
  std::vector<std::vector<float>> rows;
  for (const std::size_t vocab : {1u, 2u, 7u, 300u, 1761u}) {
    std::vector<float> plain(vocab), tied(vocab), masked(vocab),
        underflow(vocab), near(vocab), zeros(vocab), tiny(vocab);
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
      // +0 and -0 at the max, so either may be the scan's maximum.
      const double u = gen.uniform();
      zeros[v] = u < 0.3 ? 0.0f : u < 0.6 ? -0.0f : -std::abs(plain[v]);
      // Non-zero logits below 1e-30 in magnitude: every difference from
      // the max is far below 2^-54, where exp(x) rounds to 1 + x.
      tiny[v] = static_cast<float>(gen.normal(0.0, 2e-31));
      if (tiny[v] == 0.0f) tiny[v] = 1e-35f;
    }
    masked[vocab / 2] = 1.0f;  // keep the support non-empty
    rows.push_back(plain);
    rows.push_back(tied);
    rows.push_back(masked);
    rows.push_back(underflow);
    rows.push_back(near);
    rows.push_back(zeros);
    rows.push_back(tiny);
    rows.push_back(std::vector<float>(vocab, 0.5f));  // every weight equal
  }
  // Campaign-shaped rows: the f32 model's vocabulary, logits with sd 0.23
  // spanning about 2.
  for (int r = 0; r < 3; ++r) {
    std::vector<float> row(1761);
    for (float& l : row) l = static_cast<float>(gen.normal(-1.0, 0.23));
    for (int k = 0; k < 4; ++k) row[gen.uniform_int(0, 1760)] += 0.6f;
    rows.push_back(std::move(row));
  }
  // Subnormal and underflowing weights: (l - hi) / T sweeps exp's
  // subnormal range [-745.2, -708.4] at each T and runs past it, and
  // exp's 512 <= |x| < 1024 branch, where the subnormal rounding is.
  {
    std::vector<float> row(1761);
    for (std::size_t v = 0; v < row.size(); ++v) {
      constexpr double kTemperatures[] = {0.3, 0.8, 1.0, 2.0};
      row[v] = static_cast<float>(-kTemperatures[v % 4] *
                                  gen.uniform(700.0, 760.0));
    }
    row[17] = 0.0f;
    rows.push_back(std::move(row));
  }
  {
    std::vector<float> row(1761);
    for (float& l : row) l = static_cast<float>(gen.uniform(-1600.0, 0.0));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Draws from every row at every config through lm::sample and through
/// frozen_sample with `exp`, comparing tokens and RNG state.
void expect_matches_frozen(double (*exp)(double)) {
  const std::vector<std::vector<float>> rows = frozen_comparison_rows();
  const std::pair<int, double> truncations[] = {
      {0, 1.0}, {5, 1.0}, {0, 0.9}, {50, 0.5}, {3, 0.99}, {0, 0.998}};
  for (const double temperature : {0.3, 0.8, 1.0, 2.0}) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::vector<Entry> support =
          frozen_support(rows[r], temperature, exp);
      for (const auto& [top_k, top_p] : truncations) {
        const SamplerConfig config{temperature, top_k, top_p};
        util::Rng want_rng(1000 + r), got_rng(1000 + r);
        for (int i = 0; i < 20; ++i) {
          const int want = frozen_draw(support, config, want_rng);
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

// The order and the walk, pinned on every host: the reference computes its
// weights through the same exp twin.
TEST(Sampler, BitIdenticalToFrozenImplementation) {
  expect_matches_frozen(detail::exp_scalar);
}

// And through the host's exp, where that is the libm the twin recomputes:
// the sampler draws what it drew when it called std::exp.
TEST(Sampler, BitIdenticalToFrozenImplementationWithLibmExp) {
  const std::string why = not_glibc_fma_exp();
  if (!why.empty()) GTEST_SKIP() << why;
  expect_matches_frozen([](double x) { return std::exp(x); });
}

// ---- greedy and validity scans ---------------------------------------------

// sample_greedy as a serial scan, frozen when it moved onto lanes.
int frozen_greedy(std::span<const float> logits) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(logits.size()); ++i) {
    if (logits[i] > logits[best]) best = i;
  }
  if (logits[best] == kNegInf) throw std::runtime_error("all -inf");
  return best;
}

// The serve engine's row check as a serial scan, frozen likewise.
bool frozen_sampleable(std::span<const float> logits) {
  bool any_generable = false;
  for (const float v : logits) {
    if (std::isnan(v)) return false;
    if (std::isinf(v) && v > 0.0f) return false;
    if (v != kNegInf) any_generable = true;
  }
  return any_generable;
}

/// Rows of length 1..40 and 1761 built from NaN, ±inf, ±0 and a few
/// repeated finite values, so ties, masked rows and poisoned rows all
/// occur, at every position relative to the 8-float lanes.
std::vector<std::vector<float>> scan_rows() {
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float values[] = {kNaN, kInf, kNegInf, kNegInf, kNegInf, 0.0f,
                          -0.0f, 1.5f, 1.5f, -2.0f, 3.0f, 3.0f};
  util::Rng gen(77);
  std::vector<std::vector<float>> rows;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(1761);
  for (const std::size_t n : lengths) {
    for (int r = 0; r < 60; ++r) {
      // Rare poison: most rows stay valid, and each kind is sometimes the
      // only special value in its row.
      const double special_rate =
          r % 3 == 0 ? 0.3 : 2.0 / static_cast<double>(n);
      std::vector<float> row(n);
      for (float& x : row) {
        x = gen.uniform() < special_rate
                ? values[gen.uniform_int(0, 4)]
                : values[gen.uniform_int(5, 11)];
      }
      if (r % 5 == 0) std::fill(row.begin(), row.end(), kNegInf);
      if (r % 5 == 0 && r % 2 == 0) row[gen.uniform_int(0, n - 1)] = kNaN;
      if (r % 7 == 0) row[0] = kNaN;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

TEST(Greedy, MatchesFrozenSerialScan) {
  for (const std::vector<float>& row : scan_rows()) {
    bool want_throws = false;
    int want = -1;
    try {
      want = frozen_greedy(row);
    } catch (const std::runtime_error&) {
      want_throws = true;
    }
    if (want_throws) {
      EXPECT_THROW(sample_greedy(row), std::runtime_error)
          << "length " << row.size();
    } else {
      EXPECT_EQ(sample_greedy(row), want) << "length " << row.size();
    }
  }
}

TEST(Sampleable, MatchesFrozenSerialScan) {
  int valid = 0, invalid = 0;
  for (const std::vector<float>& row : scan_rows()) {
    const bool want = frozen_sampleable(row);
    EXPECT_EQ(sampleable(row), want) << "length " << row.size();
    ++(want ? valid : invalid);
  }
  // Both outcomes are well represented.
  EXPECT_GT(valid, 500);
  EXPECT_GT(invalid, 500);
}

// ---- the exp twin ----------------------------------------------------------

/// Calls check(x, n) on batches of inputs: every table index of both signs,
/// every special branch, dense sweeps across the branch boundaries, and
/// 10.4M inputs of the sampler's form (double(l) - double(hi)) / T for
/// T in {0.3, 0.8, 1, 2}.
template <class Check>
void for_each_exp_batch(Check check) {
  std::vector<double> xs;
  const auto flush = [&] {
    check(xs.data(), xs.size());
    xs.clear();
  };
  // k·ln2/128 plus offsets: every k % 128, so every table entry.
  for (int k = -128 * 8; k <= 128 * 8; ++k) {
    for (const double off : {0.0, 1e-9, -1e-9, 0x1p-9, -0x1p-9}) {
      xs.push_back(k * 0x1.62e42fefa39efp-8 + off);
    }
  }
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double x :
       {0.0, -0.0, 0x1p-1074, -0x1p-1074, 0x1p-60, -0x1p-55, 0x1p-54,
        -0x1p-54, 0x1.fffffffffffffp-55, 1.0, -1.0, 511.9, -511.9, 512.0,
        -512.0, 600.0, -600.0, 709.78, 709.79, 1023.9, -708.0, -708.4,
        -710.0, -740.0, -745.13, -745.14, -745.2, -1023.9, 1024.0, -1024.0,
        1e300, -1e300, kInf, -kInf, kNaN, -kNaN}) {
    xs.push_back(x);
  }
  flush();
  // Dense sweeps: the subnormal range and both 512 and overflow edges.
  for (int i = 0; i <= 200000; ++i) {
    xs.push_back(-746.0 + 40.0 * i / 200000.0);
    xs.push_back(-512.5 + 1.0 * i / 200000.0);
    xs.push_back(511.5 + 1.0 * i / 200000.0);
    xs.push_back(709.0 + 1.0 * i / 200000.0);
  }
  flush();
  // Maxima from a small normal pool; each gap from a 64-bit mix (a
  // splitmix64 step, cheaper than the Rng's normal draws): a float with a
  // random mantissa and an exponent in [-24, 11], or 0 (a tie) one time
  // in 64.  l = hi - gap rounds to a float, as a logit is.
  util::Rng gen(2025);
  std::vector<float> maxima(4096);
  for (float& hi : maxima) hi = static_cast<float>(gen.normal(0.0, 4.0));
  std::uint64_t state = 2025;
  for (const double temperature : {0.3, 0.8, 1.0, 2.0}) {
    for (int batch = 0; batch < 650; ++batch) {
      for (int i = 0; i < 4000; ++i) {
        std::uint64_t z = state += 0x9e3779b97f4a7c15u;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
        z ^= z >> 31;
        const float hi = maxima[z & 4095];
        const auto exponent =
            static_cast<std::uint32_t>(127 - 24 + (z >> 12) % 36);
        const float gap =
            (z >> 18) % 64 == 0
                ? 0.0f
                : std::bit_cast<float>(exponent << 23 |
                                       static_cast<std::uint32_t>(z >> 41));
        const float l = hi - gap;
        xs.push_back((static_cast<double>(l) - hi) / temperature);
      }
      flush();
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The lane kernel against the scalar twin, on every host.
TEST(ExpTwin, LanesMatchScalar) {
  std::vector<double> out;
  std::uint64_t checked = 0, mismatches = 0;
  double first_bad = 0.0;
  for_each_exp_batch([&](const double* x, std::size_t n) {
    // Ragged lengths: every batch ends in a scalar tail of n % 4.
    out.resize(n);
    detail::exp_lanes(x, n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (bits(out[i]) != bits(detail::exp_scalar(x[i]))) {
        if (mismatches++ == 0) first_bad = x[i];
      }
    }
    checked += n;
  });
  EXPECT_GT(checked, 10'000'000u);
  EXPECT_EQ(mismatches, 0u) << "first at x = " << std::hexfloat << first_bad;
  // In place, as the sampler calls it.
  std::vector<double> x = {-1.0, -800.0, 0.0, -0.5, -2.0, 1e-300, -709.5};
  std::vector<double> want;
  for (const double v : x) want.push_back(detail::exp_scalar(v));
  detail::exp_lanes(x.data(), x.size(), x.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(bits(x[i]), bits(want[i]));
  }
}

// The scalar twin against the libm it recomputes.
TEST(ExpTwin, ScalarMatchesLibmExp) {
  const std::string why = not_glibc_fma_exp();
  if (!why.empty()) GTEST_SKIP() << why;
  // Through a volatile pointer, so the compiler can neither fold nor
  // vectorize the libm call.
  double (*volatile libm_exp)(double) = ::exp;
  std::uint64_t checked = 0, mismatches = 0;
  double first_bad = 0.0;
  for_each_exp_batch([&](const double* x, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (bits(detail::exp_scalar(x[i])) != bits(libm_exp(x[i]))) {
        if (mismatches++ == 0) first_bad = x[i];
      }
    }
    checked += n;
  });
  EXPECT_EQ(mismatches, 0u) << "of " << checked << ", first at x = "
                            << std::hexfloat << first_bad;
}

}  // namespace
}  // namespace lmpeel::lm
