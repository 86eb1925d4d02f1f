#include "lm/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <limits>
#include <vector>

#include "lm/language_model.hpp"
#include "lm/sampler.hpp"
#include "util/rng.hpp"

namespace lmpeel::lm {
namespace {

TEST(MakeStep, KeepsOnlySelectableCandidatesSorted) {
  // Three strong tokens and a long sub-threshold tail.
  std::vector<float> logits(100, -30.0f);  // effectively zero mass
  logits[3] = 2.0f;
  logits[7] = 1.0f;
  logits[9] = 0.0f;
  const Step step = make_step(logits, 3);
  ASSERT_EQ(step.candidates.size(), 3u);
  EXPECT_EQ(step.candidates[0].token, 3);
  EXPECT_EQ(step.candidates[1].token, 7);
  EXPECT_EQ(step.candidates[2].token, 9);
  EXPECT_GT(step.candidates[0].prob, step.candidates[1].prob);
  EXPECT_EQ(step.chosen, 3);
  EXPECT_GT(step.chosen_prob(), 0.5f);
  EXPECT_TRUE(step.contains(7));
  EXPECT_FALSE(step.contains(42));
}

TEST(MakeStep, ChosenTokenAlwaysRecorded) {
  // Even if the sampled token fell below the selectability threshold it
  // must appear in the recorded support.
  std::vector<float> logits(10, kNegInf);
  logits[0] = 20.0f;
  logits[1] = 0.0f;  // ~2e-9 probability
  const Step step = make_step(logits, 1);
  EXPECT_TRUE(step.contains(1));
}

TEST(MakeStep, ProbabilitiesSumBelowOne) {
  std::vector<float> logits(5, 0.0f);
  const Step step = make_step(logits, 0);
  double sum = 0.0;
  for (const Candidate& c : step.candidates) sum += c.prob;
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

/// make_step as it stood before the scratch-buffer and exact-reserve
/// rewrite, frozen so the rewrite can be held to bit-identical output.
Step frozen_make_step(std::span<const float> logits, int chosen) {
  std::vector<float> probs(logits.size());
  probabilities(logits, probs);
  Step step;
  step.chosen = chosen;
  for (int i = 0; i < static_cast<int>(logits.size()); ++i) {
    if (probs[i] >= kSelectableProb) {
      step.candidates.push_back({i, logits[i], probs[i]});
    }
  }
  std::sort(step.candidates.begin(), step.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.prob != b.prob) return a.prob > b.prob;
              return a.token < b.token;
            });
  if (!step.contains(chosen) && chosen >= 0) {
    step.candidates.push_back({chosen, logits[chosen], probs[chosen]});
  }
  return step;
}

TEST(MakeStep, BitIdenticalToFrozenImplementation) {
  util::Rng rng(1234);
  std::size_t below_threshold_chosen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto vocab = static_cast<std::size_t>(trial % 2 == 0 ? 512 : 61);
    // Wide logits push part of the row under kSelectableProb; quantised
    // ones create equal probabilities so the token tie-break is exercised.
    const double scale = 0.5 + 0.05 * trial;
    std::vector<float> logits(vocab);
    for (float& l : logits) {
      l = trial % 3 == 0
              ? static_cast<float>(rng.uniform_int(-6, 6))
              : static_cast<float>(rng.normal(0.0, scale));
    }
    for (std::size_t i = 0; i < vocab; i += 7 + trial % 5) logits[i] = kNegInf;

    // The lowest-probability finite token: below the threshold on most
    // wide rows, which makes make_step append it after the sorted set.
    int weakest = -1;
    for (std::size_t i = 0; i < vocab; ++i) {
      if (logits[i] == kNegInf) continue;
      if (weakest < 0 || logits[i] < logits[weakest]) {
        weakest = static_cast<int>(i);
      }
    }
    const int chosen = trial % 4 == 0   ? weakest
                       : trial % 4 == 1 ? sample_greedy(logits)
                       : trial % 4 == 2 ? 0  // a -inf slot
                                        : -1;

    const Step expected = frozen_make_step(logits, chosen);
    const Step actual = make_step(logits, chosen);
    EXPECT_EQ(actual.chosen, expected.chosen);
    ASSERT_EQ(actual.candidates.size(), expected.candidates.size())
        << "trial " << trial;
    for (std::size_t c = 0; c < expected.candidates.size(); ++c) {
      EXPECT_EQ(actual.candidates[c].token, expected.candidates[c].token)
          << "trial " << trial << " candidate " << c;
      EXPECT_EQ(actual.candidates[c].logit, expected.candidates[c].logit);
      EXPECT_EQ(actual.candidates[c].prob, expected.candidates[c].prob);
    }
    if (chosen == weakest && !expected.candidates.empty() &&
        expected.candidates.back().prob < kSelectableProb) {
      ++below_threshold_chosen;
    }
  }
  EXPECT_GT(below_threshold_chosen, 10u);
}

GenerationTrace make_trace(const std::vector<std::size_t>& counts) {
  GenerationTrace trace;
  for (const std::size_t n : counts) {
    Step step;
    for (std::size_t i = 0; i < n; ++i) {
      step.candidates.push_back(
          {static_cast<int>(i), 0.0f, 1.0f / static_cast<float>(n)});
    }
    step.chosen = 0;
    trace.add_step(std::move(step));
  }
  return trace;
}

TEST(GenerationTrace, PermutationsAreProductOfCounts) {
  const GenerationTrace trace = make_trace({4, 1, 318, 537});
  EXPECT_DOUBLE_EQ(trace.permutations(0, 4), 4.0 * 318.0 * 537.0);
  EXPECT_DOUBLE_EQ(trace.permutations(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(trace.permutations(0, 0), 1.0);
}

TEST(GenerationTrace, PermutationsSaturateInsteadOfOverflow) {
  GenerationTrace trace = make_trace(std::vector<std::size_t>(400, 1000));
  EXPECT_EQ(trace.permutations(0, 400),
            std::numeric_limits<double>::max());
}

TEST(GenerationTrace, PermutationRangeChecked) {
  const GenerationTrace trace = make_trace({2, 2});
  EXPECT_THROW(trace.permutations(0, 3), std::runtime_error);
  EXPECT_THROW(trace.permutations(2, 1), std::runtime_error);
}

TEST(GenerationTrace, TokensCollectChosen) {
  GenerationTrace trace;
  Step a;
  a.candidates.push_back({5, 0.0f, 1.0f});
  a.chosen = 5;
  trace.add_step(a);
  Step b;
  b.candidates.push_back({9, 0.0f, 1.0f});
  b.chosen = 9;
  trace.add_step(b);
  EXPECT_EQ(trace.tokens(), (std::vector<int>{5, 9}));
}

}  // namespace
}  // namespace lmpeel::lm
