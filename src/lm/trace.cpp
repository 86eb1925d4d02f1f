#include "lm/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lm/sampler.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

float Step::chosen_prob() const noexcept {
  for (const Candidate& c : candidates) {
    if (c.token == chosen) return c.prob;
  }
  return 0.0f;
}

bool Step::contains(int token) const noexcept {
  return std::any_of(candidates.begin(), candidates.end(),
                     [token](const Candidate& c) { return c.token == token; });
}

std::vector<int> GenerationTrace::tokens() const {
  std::vector<int> out;
  out.reserve(steps_.size());
  for (const Step& s : steps_) out.push_back(s.chosen);
  return out;
}

double GenerationTrace::permutations(std::size_t first,
                                     std::size_t last) const {
  LMPEEL_CHECK(first <= last && last <= steps_.size());
  double product = 1.0;
  for (std::size_t i = first; i < last; ++i) {
    product *= static_cast<double>(steps_[i].candidates.size());
    if (!std::isfinite(product)) {
      return std::numeric_limits<double>::max();
    }
  }
  return product;
}

Step make_step(std::span<const float> logits, int chosen) {
  // One softmax scratch row per thread, reused across calls (a sweep
  // records tens of thousands of steps per worker).
  thread_local std::vector<float> probs;
  probs.resize(logits.size());
  probabilities(logits, probs);

  const int n = static_cast<int>(logits.size());
  std::size_t survivors = 0;
  for (int i = 0; i < n; ++i) {
    if (probs[i] >= kSelectableProb) ++survivors;
  }
  // The sampled token must remain part of the recorded support even if its
  // mass fell below the threshold (possible under high temperature).
  const bool append_chosen =
      chosen >= 0 && !(probs[chosen] >= kSelectableProb);

  Step step;
  step.chosen = chosen;
  step.candidates.reserve(survivors + (append_chosen ? 1 : 0));
  for (int i = 0; i < n; ++i) {
    if (probs[i] >= kSelectableProb) {
      step.candidates.push_back({i, logits[i], probs[i]});
    }
  }
  std::sort(step.candidates.begin(), step.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.prob != b.prob) return a.prob > b.prob;
              return a.token < b.token;
            });
  if (append_chosen) {
    step.candidates.push_back({chosen, logits[chosen], probs[chosen]});
  }
  obs::Registry::global().counter("lm.trace.steps").add();
  obs::Registry::global().counter("lm.trace.candidates")
      .add(step.candidates.size());
  return step;
}

}  // namespace lmpeel::lm
