#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace lmpeel::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  // Feed both words through the mixer; the odd constant breaks the symmetry
  // hash_combine(a,b) == hash_combine(b,a).
  return mix64(a + 0x9e3779b97f4a7c15ULL * mix64(b));
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : Rng(hash_combine(seed, stream)) {}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  // Rejection-free Lemire-style bounded draw is overkill here; modulo bias
  // over a 64-bit source is < 2^-50 for every range in this project.
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::normal() noexcept {
  // Box–Muller; u clamped away from 0 so log() is finite.
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  const double v = uniform();
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(2.0 * std::numbers::pi * v);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::categorical_total(const double* weights, std::size_t n) {
  LMPEEL_CHECK(n > 0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    LMPEEL_CHECK_MSG(weights[i] >= 0.0, "negative categorical weight");
    total += weights[i];
  }
  LMPEEL_CHECK_MSG(total > 0.0, "all categorical weights are zero");
  return total;
}

std::size_t Rng::categorical(const double* weights, std::size_t n) {
  return categorical(weights, n, categorical_total(weights, n));
}

std::size_t Rng::categorical(const double* weights, std::size_t n,
                             double total) {
  double r = uniform() * total;
  for (std::size_t i = 0; i < n; ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  // Floating-point underflow can leave r marginally >= 0; return the last
  // category with nonzero weight.
  for (std::size_t i = n; i-- > 0;)
    if (weights[i] > 0.0) return i;
  return n - 1;
}

}  // namespace lmpeel::util
