// Deterministic, stream-splittable random number generation.
//
// Experiments in this repository are embarrassingly parallel (hundreds of
// independent prompt evaluations, cross-validation folds, tree fits).  To
// keep results bit-reproducible regardless of scheduling, every parallel
// work item derives its own independent stream from a (seed, stream-id)
// pair instead of sharing a sequential generator.  The generator is
// xoshiro256** seeded through SplitMix64, the standard recipe recommended
// by the xoshiro authors; stream derivation hashes the ids through
// SplitMix64 so that nearby ids yield uncorrelated states.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace lmpeel::util {

/// One step of the SplitMix64 sequence; also usable as a 64-bit mixer/hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of a 64-bit value (SplitMix64 finaliser).
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Combine two 64-bit values into one well-mixed value.
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

/// xoshiro256** PRNG with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also drive <random>
/// distributions, but the members below are preferred: they are stable
/// across standard-library implementations, which keeps recorded
/// experiment outputs portable.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Derives an independent stream for parallel work item `stream`.
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  /// exp(normal(mu, sigma)) — multiplicative measurement noise.
  double lognormal(double mu, double sigma) noexcept;
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Samples an index in [0, weights_size) proportionally to weights.
  /// All weights must be >= 0 and at least one must be > 0.
  std::size_t categorical(const double* weights, std::size_t n);
  /// The same draw given `total` = categorical_total(weights, n), for a
  /// caller drawing from one weight vector many times.
  std::size_t categorical(const double* weights, std::size_t n, double total);
  /// The weights' sum in index order, checked as categorical checks it.
  static double categorical_total(const double* weights, std::size_t n);

  /// Raw xoshiro256** state, for checkpointing a generator mid-stream.
  /// Restoring a saved state resumes the exact draw sequence.
  std::array<std::uint64_t, 4> state() const noexcept { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    s_ = state;
  }

  /// In-place Fisher–Yates shuffle of indices or any random-access range.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) {
    const auto n = last - first;
    for (auto i = n - 1; i > 0; --i) {
      const auto j = uniform_int(0, i);
      using std::swap;
      swap(first[i], first[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace lmpeel::util
