#include "lm/generate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "lm/induction_lm.hpp"
#include "serve/decoder.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::lm {
namespace {

/// A trivial deterministic model for exercising the generation loop:
/// always predicts (last token + 1) % vocab with logit 1, everything else
/// -inf, except that after `eos_after` tokens it predicts <eos>.
class CounterLm final : public LanguageModel {
 public:
  explicit CounterLm(int vocab, std::size_t eos_after = SIZE_MAX)
      : vocab_(vocab), eos_after_(eos_after) {}
  int vocab_size() const override { return vocab_; }
  void next_logits(std::span<const int> context, std::uint64_t /*seed*/,
                   std::span<float> out) override {
    std::fill(out.begin(), out.end(), kNegInf);
    if (context.size() >= eos_after_) {
      out[tok::kEos] = 1.0f;
      return;
    }
    const int last = context.empty() ? 0 : context.back();
    out[(last + 1) % vocab_] = 1.0f;
  }
  std::string name() const override { return "counter"; }

 private:
  int vocab_;
  std::size_t eos_after_;
};

/// Writes the seed it receives into its logits: the only generable token
/// is token_for(seed), so every sampled token and every logit row names
/// the seed of the call that produced it.
class SeedEchoLm final : public LanguageModel {
 public:
  static constexpr int kVocab = 64;
  static int token_for(std::uint64_t seed) {
    return tok::kNumSpecial +
           static_cast<int>(seed % (kVocab - tok::kNumSpecial));
  }
  int vocab_size() const override { return kVocab; }
  void next_logits(std::span<const int> /*context*/, std::uint64_t seed,
                   std::span<float> out) override {
    std::fill(out.begin(), out.end(), kNegInf);
    out[token_for(seed)] = 0.0f;
  }
  std::string name() const override { return "seed-echo"; }
};

TEST(Generate, EverySeededCallSeesItsRequestsSeed) {
  SeedEchoLm model;
  const std::vector<int> prompt{7, 8, 9};
  const auto echoed = [](std::span<const float> row) {
    return static_cast<int>(std::max_element(row.begin(), row.end()) -
                            row.begin());
  };

  // lm::generate: every step's logits come from options.seed.
  GenerateOptions opt;
  opt.max_tokens = 6;
  opt.seed = 11;
  const Generation gen = generate(model, prompt, opt);
  EXPECT_EQ(gen.tokens, std::vector<int>(6, SeedEchoLm::token_for(11)));

  // sequence_log_probability: the seed's own continuation is certain, any
  // other seed makes it ungenerable.
  const std::vector<int> twice(2, SeedEchoLm::token_for(12));
  EXPECT_EQ(sequence_log_probability(model, prompt, twice, 12), 0.0);
  EXPECT_EQ(sequence_log_probability(model, prompt, twice, 13),
            -std::numeric_limits<double>::infinity());

  // GenericBatchDecoder: three slots with distinct seeds, prefilled in
  // interleaved chunks and stepped in shuffled row orders.
  serve::GenericBatchDecoder decoder(model, /*slots=*/4);
  const std::vector<std::uint64_t> seeds{20, 21, 22, 23};  // slot 1 idle
  for (const std::size_t slot : {3u, 0u, 2u}) {
    decoder.start_chunked(slot, prompt, seeds[slot]);
  }
  std::vector<float> out(SeedEchoLm::kVocab);
  for (std::size_t round = 0; round < prompt.size(); ++round) {
    for (const std::size_t slot : {2u, 3u, 0u}) {
      bool done = false;
      EXPECT_EQ(decoder.prefill_chunk(slot, 1, out, &done), 1u);
      EXPECT_EQ(done, round + 1 == prompt.size());
      if (done) {
        EXPECT_EQ(echoed(out), SeedEchoLm::token_for(seeds[slot]))
            << "prefill of slot " << slot;
      }
    }
  }
  const std::vector<std::vector<std::size_t>> orders{
      {0, 2, 3}, {3, 0}, {2, 3, 0}, {3}};
  Tensor logits;
  for (const auto& order : orders) {
    std::vector<serve::BatchDecoder::Step> steps;
    for (const std::size_t slot : order) {
      steps.push_back({slot, SeedEchoLm::token_for(seeds[slot])});
    }
    decoder.step(steps, logits);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(echoed(logits.row(i)),
                SeedEchoLm::token_for(seeds[steps[i].slot]))
          << "step row " << i << " (slot " << steps[i].slot << ")";
    }
  }
}

TEST(Generate, EmitsUntilMaxTokens) {
  CounterLm model(50);
  const std::vector<int> prompt{10};
  GenerateOptions opt;
  opt.max_tokens = 5;
  opt.sampler = {0.0, 0, 1.0};
  opt.record_trace = true;
  const auto gen = generate(model, prompt, opt);
  EXPECT_EQ(gen.tokens, (std::vector<int>{11, 12, 13, 14, 15}));
  EXPECT_TRUE(gen.hit_max_tokens);
  EXPECT_EQ(gen.trace.length(), 5u);
}

TEST(Generate, TraceIsOptInAndChangesNoTokens) {
  CounterLm model(50, /*eos_after=*/4);
  const std::vector<int> prompt{10};
  GenerateOptions opt;
  opt.max_tokens = 6;
  opt.sampler = {0.0, 0, 1.0};
  const auto plain = generate(model, prompt, opt);
  EXPECT_EQ(plain.trace.length(), 0u);
  EXPECT_THROW(recorded_trace(plain), std::runtime_error);
  opt.record_trace = true;
  const auto traced = generate(model, prompt, opt);
  EXPECT_EQ(traced.tokens, plain.tokens);
  EXPECT_EQ(traced.hit_max_tokens, plain.hit_max_tokens);
  EXPECT_EQ(recorded_trace(traced).tokens(), traced.tokens);
}

TEST(Generate, StopsOnEosWithoutRecordingIt) {
  CounterLm model(50, /*eos_after=*/3);
  const std::vector<int> prompt{10};
  GenerateOptions opt;
  opt.max_tokens = 10;
  opt.sampler = {0.0, 0, 1.0};
  const auto gen = generate(model, prompt, opt);
  EXPECT_EQ(gen.tokens, (std::vector<int>{11, 12}));
  EXPECT_FALSE(gen.hit_max_tokens);
}

TEST(Generate, StopTokenHaltsBeforeEmission) {
  CounterLm model(50);
  const std::vector<int> prompt{10};
  GenerateOptions opt;
  opt.max_tokens = 10;
  opt.stop_token = 14;
  opt.sampler = {0.0, 0, 1.0};
  const auto gen = generate(model, prompt, opt);
  EXPECT_EQ(gen.tokens, (std::vector<int>{11, 12, 13}));
}

TEST(Generate, TraceRecordsChosenTokens) {
  CounterLm model(20);
  const std::vector<int> prompt{3};
  GenerateOptions opt;
  opt.max_tokens = 3;
  opt.sampler = {0.0, 0, 1.0};
  opt.record_trace = true;
  const auto gen = generate(model, prompt, opt);
  ASSERT_EQ(gen.trace.length(), gen.tokens.size());
  EXPECT_EQ(gen.trace.tokens(), gen.tokens);
  for (const auto& step : gen.trace.steps()) {
    EXPECT_EQ(step.candidates.size(), 1u);  // deterministic model
    EXPECT_FLOAT_EQ(step.chosen_prob(), 1.0f);
  }
}

TEST(SequenceLogProbability, DeterministicModelGivesZero) {
  CounterLm model(20);
  const std::vector<int> ctx{5};
  const std::vector<int> continuation{6, 7, 8};
  EXPECT_NEAR(sequence_log_probability(model, ctx, continuation, /*seed=*/0),
              0.0, 1e-6);
}

TEST(SequenceLogProbability, ImpossibleContinuationIsNegInf) {
  CounterLm model(20);
  const std::vector<int> ctx{5};
  const std::vector<int> wrong{9};
  EXPECT_EQ(sequence_log_probability(model, ctx, wrong, /*seed=*/0),
            -std::numeric_limits<double>::infinity());
}

TEST(SequenceLogProbability, MatchesSoftmaxForRealModel) {
  tok::Tokenizer tz;
  InductionLm model(tz);
  const auto ctx = tz.encode("alpha beta gamma alpha beta gamma alpha");
  // " beta" is the induction continuation; its log-prob must be finite
  // and dominate an unrelated word's.
  const auto beta = tz.encode(" beta");
  const auto delta = tz.encode(" gamma");
  const double lp_beta =
      sequence_log_probability(model, ctx, beta, /*seed=*/0);
  const double lp_gamma =
      sequence_log_probability(model, ctx, delta, /*seed=*/0);
  EXPECT_TRUE(std::isfinite(lp_beta));
  EXPECT_GT(lp_beta, lp_gamma);
}

}  // namespace
}  // namespace lmpeel::lm
