#include "eval/quant_ab.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace lmpeel::eval {

namespace {

/// Greedy pick with the same tie-break (lowest index) everywhere.
int argmax(std::span<const float> logits) {
  int best = 0;
  for (int v = 1; v < static_cast<int>(logits.size()); ++v) {
    if (logits[static_cast<std::size_t>(v)] >
        logits[static_cast<std::size_t>(best)]) {
      best = v;
    }
  }
  return best;
}

}  // namespace

DriftReport logit_drift(lm::LanguageModel& reference,
                        lm::LanguageModel& variant,
                        std::span<const int> prompt, int steps) {
  LMPEEL_CHECK(!prompt.empty() && steps >= 0);
  LMPEEL_CHECK(reference.vocab_size() == variant.vocab_size());
  const auto vocab = static_cast<std::size_t>(reference.vocab_size());
  std::vector<int> context(prompt.begin(), prompt.end());
  std::vector<float> ref_logits(vocab), var_logits(vocab);

  DriftReport report;
  double sq = 0.0;
  std::size_t compared = 0;
  for (int step = 0; step <= steps; ++step) {
    reference.next_logits(context, /*seed=*/0, ref_logits);
    variant.next_logits(context, /*seed=*/0, var_logits);
    for (std::size_t v = 0; v < vocab; ++v) {
      const float drift = std::abs(var_logits[v] - ref_logits[v]);
      report.max_abs_drift = std::max(report.max_abs_drift, drift);
      sq += static_cast<double>(drift) * drift;
    }
    compared += vocab;
    const int next = argmax(ref_logits);
    if (argmax(var_logits) != next) report.greedy_paths_agree = false;
    ++report.steps;
    if (step < steps) context.push_back(next);
  }
  report.rms_drift = compared > 0
                         ? std::sqrt(sq / static_cast<double>(compared))
                         : 0.0;
  return report;
}

std::vector<std::size_t> ranking_desc(std::span<const double> scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  return order;
}

bool same_ranking(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return ranking_desc(a) == ranking_desc(b);
}

}  // namespace lmpeel::eval
