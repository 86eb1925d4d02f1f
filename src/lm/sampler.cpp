#include "lm/sampler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "lm/language_model.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

int sample_greedy(std::span<const float> logits) {
  LMPEEL_CHECK(!logits.empty());
  int best = 0;
  for (int i = 1; i < static_cast<int>(logits.size()); ++i) {
    if (logits[i] > logits[best]) best = i;
  }
  LMPEEL_CHECK_MSG(logits[best] != kNegInf, "all logits are -inf");
  return best;
}

void probabilities(std::span<const float> logits, std::span<float> out) {
  LMPEEL_CHECK(logits.size() == out.size());
  float hi = kNegInf;
  for (const float l : logits) hi = std::max(hi, l);
  LMPEEL_CHECK_MSG(hi != kNegInf, "all logits are -inf");
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double e = logits[i] == kNegInf
                         ? 0.0
                         : std::exp(static_cast<double>(logits[i] - hi));
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& p : out) p *= inv;
}

namespace {

struct Entry {
  int token;
  double weight;  // unnormalised probability
};

/// Orders `entries` (built in ascending token order) by weight descending,
/// ties by token ascending — without a comparison sort.  Weights are exp()
/// results, so never negative, and the bit patterns of non-negative doubles
/// order exactly as their values do; the complement turns that into
/// descending order.  A stable LSD radix sort over all 64 bits of that key
/// therefore yields exactly this order.  A pass whose digit is the same for
/// every entry would move nothing and is skipped.
void order_by_weight(std::vector<Entry>& entries) {
  constexpr std::size_t kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::size_t kPasses = 64 / kDigitBits;
  const auto digit = [](const Entry& e, std::size_t pass) {
    const std::uint64_t key = ~std::bit_cast<std::uint64_t>(e.weight);
    return (key >> (pass * kDigitBits)) & (kBuckets - 1);
  };
  std::array<std::array<std::size_t, kBuckets>, kPasses> counts{};
  for (const Entry& e : entries) {
    for (std::size_t p = 0; p < kPasses; ++p) ++counts[p][digit(e, p)];
  }
  std::vector<Entry> scratch(entries.size());
  for (std::size_t p = 0; p < kPasses; ++p) {
    std::array<std::size_t, kBuckets>& slot = counts[p];
    if (std::find(slot.begin(), slot.end(), entries.size()) != slot.end()) {
      continue;
    }
    std::size_t at = 0;
    for (std::size_t& c : slot) at += std::exchange(c, at);
    for (const Entry& e : entries) scratch[slot[digit(e, p)]++] = e;
    entries.swap(scratch);
  }
}

}  // namespace

int sample(std::span<const float> logits, const SamplerConfig& config,
           util::Rng& rng) {
  LMPEEL_CHECK(!logits.empty());
  if (config.temperature <= 0.0) return sample_greedy(logits);

  // Work over the finite-logit support only.
  float hi = kNegInf;
  for (const float l : logits) hi = std::max(hi, l);
  LMPEEL_CHECK_MSG(hi != kNegInf, "all logits are -inf");

  std::vector<Entry> entries;
  entries.reserve(logits.size());
  for (int i = 0; i < static_cast<int>(logits.size()); ++i) {
    if (logits[i] == kNegInf) continue;
    const double scaled =
        (static_cast<double>(logits[i]) - hi) / config.temperature;
    entries.push_back({i, std::exp(scaled)});
  }
  order_by_weight(entries);

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

}  // namespace lmpeel::lm
