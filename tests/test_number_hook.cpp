#include "hook/number_hook_lm.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/pipeline.hpp"
#include "lm/generate.hpp"
#include "prompt/parser.hpp"
#include "prompt/render.hpp"
#include "prompt/template.hpp"
#include "util/str.hpp"

namespace lmpeel::lm {
namespace {

class HookFixture : public ::testing::Test {
 protected:
  static core::Pipeline& pipeline() {
    static core::Pipeline p;
    return p;
  }
  static std::vector<perf::Sample> examples(std::size_t count) {
    const auto& data = pipeline().dataset(perf::SizeClass::SM);
    util::Rng rng(5);
    const auto sets = perf::disjoint_subsets(data.size(), 1, count, rng);
    std::vector<perf::Sample> out;
    for (const std::size_t i : sets[0]) out.push_back(data[i]);
    return out;
  }
};

TEST_F(HookFixture, GbtGeneratorLearnsFromPromptText) {
  const auto builder = pipeline().builder(perf::SizeClass::SM);
  const auto& data = pipeline().dataset(perf::SizeClass::SM);
  const auto& query = data[4000];
  const std::string text =
      builder.user_text(examples(25), query.config);

  GbtNumberGenerator generator;
  const auto value = generator.generate(text);
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(*value, 0.0);
  // A surrogate fitted on 25 examples should land within the SM band.
  EXPECT_LT(*value, 1.0);
}

TEST_F(HookFixture, GbtGeneratorFallsBackWithTooFewExamples) {
  const auto builder = pipeline().builder(perf::SizeClass::SM);
  const auto& data = pipeline().dataset(perf::SizeClass::SM);
  const std::string text =
      builder.user_text(examples(2), data[100].config);
  GbtNumberGenerator generator;
  EXPECT_FALSE(generator.generate(text).has_value());
}

TEST_F(HookFixture, HookedGenerationEmitsGeneratorValue) {
  const auto builder = pipeline().builder(perf::SizeClass::SM);
  const auto& data = pipeline().dataset(perf::SizeClass::SM);
  const auto& query = data[2500];
  const auto icl = examples(25);
  const auto ids =
      builder.encode(pipeline().tokenizer(), icl, query.config);

  GbtNumberGenerator generator;
  NumberHookLm hooked(pipeline().model(), pipeline().tokenizer(), generator);

  GenerateOptions opt;
  opt.sampler = {1.0, 0, 1.0};
  opt.stop_token = pipeline().tokenizer().newline_token();
  opt.seed = 1;
  const auto generation = lm::generate(hooked, ids, opt);
  const auto parsed = prompt::parse_response(
      pipeline().tokenizer().decode(generation.tokens));
  ASSERT_TRUE(parsed.value.has_value());
  EXPECT_GE(hooked.hook_invocations(), 1u);

  // The emitted value equals the generator's own prediction for this
  // prompt (the hook force-decodes it).
  GbtNumberGenerator reference;
  const auto expected =
      reference.generate(builder.user_text(icl, query.config));
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(parsed.value_text, util::format_runtime(*expected, 5));
}

TEST_F(HookFixture, HookedPredictionsBeatPlainModel) {
  const auto builder = pipeline().builder(perf::SizeClass::SM);
  const auto& data = pipeline().dataset(perf::SizeClass::SM);
  const auto icl = examples(25);

  GbtNumberGenerator generator;
  NumberHookLm hooked(pipeline().model(), pipeline().tokenizer(), generator);

  double hook_err = 0.0, plain_err = 0.0;
  int counted = 0;
  for (const std::size_t qi : {100u, 900u, 3300u, 7777u, 9100u}) {
    const auto& query = data[qi];
    const auto ids =
        builder.encode(pipeline().tokenizer(), icl, query.config);
    GenerateOptions opt;
    opt.sampler = {1.0, 0, 1.0};
    opt.stop_token = pipeline().tokenizer().newline_token();
    opt.seed = 3;
    const auto hooked_gen = lm::generate(hooked, ids, opt);
    const auto plain_gen = lm::generate(pipeline().model(), ids, opt);
    const auto hooked_parsed = prompt::parse_response(
        pipeline().tokenizer().decode(hooked_gen.tokens));
    const auto plain_parsed = prompt::parse_response(
        pipeline().tokenizer().decode(plain_gen.tokens));
    if (!hooked_parsed.value || !plain_parsed.value) continue;
    ++counted;
    hook_err += std::abs(*hooked_parsed.value - query.runtime) / query.runtime;
    plain_err += std::abs(*plain_parsed.value - query.runtime) / query.runtime;
  }
  ASSERT_GE(counted, 3);
  EXPECT_LT(hook_err, plain_err);
}

TEST_F(HookFixture, HookLeavesNonPerformancePromptsAlone) {
  // A prompt that does not end with "Performance:" (candidate-sampling
  // shape) must pass through unchanged.
  GbtNumberGenerator generator;
  NumberHookLm hooked(pipeline().model(), pipeline().tokenizer(), generator);
  const auto& tz = pipeline().tokenizer();
  std::vector<int> ids{tok::kBos, tok::kUser};
  tz.encode_append("alpha beta gamma alpha beta", ids);
  ids.push_back(tok::kAssistant);
  std::vector<float> hooked_logits(hooked.vocab_size());
  std::vector<float> base_logits(hooked.vocab_size());
  hooked.next_logits(ids, /*seed=*/0, hooked_logits);
  pipeline().model().next_logits(ids, /*seed=*/0, base_logits);
  for (std::size_t v = 0; v < base_logits.size(); ++v) {
    EXPECT_FLOAT_EQ(hooked_logits[v], base_logits[v]);
  }
  EXPECT_EQ(hooked.hook_invocations(), 0u);
}

// Counts generate() calls per prompt text around the reference generator.
class CountingGenerator final : public NumberGenerator {
 public:
  std::optional<double> generate(const std::string& prompt_text) override {
    {
      const std::lock_guard lock(mutex_);
      ++calls_[prompt_text];
    }
    return inner_.generate(prompt_text);
  }
  std::string name() const override { return inner_.name(); }
  std::map<std::string, int> calls() const {
    const std::lock_guard lock(mutex_);
    return calls_;
  }

 private:
  GbtNumberGenerator inner_;
  mutable std::mutex mutex_;
  std::map<std::string, int> calls_;
};

TEST_F(HookFixture, InterleavedPromptsAreFittedOnce) {
  // Four threads share one hooked model and walk six prompts, each thread
  // in its own order and twice over, so generations of different prompts
  // interleave.  Every prompt is fitted exactly once, and every thread
  // gets the same response per prompt.
  const auto builder = pipeline().builder(perf::SizeClass::SM);
  const auto& data = pipeline().dataset(perf::SizeClass::SM);
  const auto icl = examples(25);
  std::vector<std::vector<int>> prompts;
  for (const std::size_t qi : {100u, 900u, 2500u, 3300u, 7777u, 9100u}) {
    prompts.push_back(
        builder.encode(pipeline().tokenizer(), icl, data[qi].config));
  }

  CountingGenerator generator;
  NumberHookLm hooked(pipeline().model(), pipeline().tokenizer(), generator);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<int>>> responses(
      kThreads, std::vector<std::vector<int>>(prompts.size()));
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::size_t> order(prompts.size());
        std::iota(order.begin(), order.end(), 0);
        util::Rng rng(100 + t);
        for (int round = 0; round < 2; ++round) {
          rng.shuffle(order.begin(), order.end());
          for (const std::size_t p : order) {
            GenerateOptions opt;
            opt.sampler = {1.0, 0, 1.0};
            opt.stop_token = pipeline().tokenizer().newline_token();
            opt.seed = 3;
            responses[t][p] = lm::generate(hooked, prompts[p], opt).tokens;
          }
        }
      });
    }
  }
  EXPECT_EQ(hooked.hook_invocations() + hooked.hook_fallbacks(),
            prompts.size());
  EXPECT_EQ(hooked.hook_invocations(), prompts.size());
  const auto calls = generator.calls();
  EXPECT_EQ(calls.size(), prompts.size());
  for (const auto& [text, count] : calls) EXPECT_EQ(count, 1);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(responses[t], responses[0]) << "thread " << t;
  }
}

// A base model whose top token is always a digit group, so the hook looks
// its memo up on every call that ends a "Performance:" prompt.
class DigitBase final : public LanguageModel {
 public:
  DigitBase(int vocab, int digit) : vocab_(vocab), digit_(digit) {}
  int vocab_size() const override { return vocab_; }
  void next_logits(std::span<const int>, std::uint64_t,
                   std::span<float> out) override {
    std::fill(out.begin(), out.end(), 0.0f);
    out[digit_] = 1.0f;
  }
  std::string name() const override { return "digit"; }

 private:
  int vocab_, digit_;
};

TEST_F(HookFixture, MemoDropsTheLeastRecentlyUsedPrompt) {
  // The memo holds 256 prompts (more on a host with more threads).  A
  // prompt used again while the memo fills is kept when the next new
  // prompt arrives; the one used longest ago is dropped and refitted.
  const auto& tokenizer = pipeline().tokenizer();
  int digit = 0;
  while (!tokenizer.vocab().is_number(digit)) ++digit;
  DigitBase base(tokenizer.vocab_size(), digit);
  CountingGenerator generator;
  NumberHookLm hooked(base, tokenizer, generator);
  const auto marker = tokenizer.encode("Performance:");
  const auto prompt = [&](std::size_t i) {
    auto ids = tokenizer.encode("prompt " + std::to_string(i) + " ");
    ids.insert(ids.end(), marker.begin(), marker.end());
    ids.push_back(tok::kAssistant);
    return ids;
  };
  std::vector<float> out(static_cast<std::size_t>(base.vocab_size()));
  const auto use = [&](std::size_t i) {
    hooked.next_logits(prompt(i), /*seed=*/0, out);
  };
  for (std::size_t i = 0; i < 256; ++i) use(i);  // full; prompt 0 oldest
  use(0);    // prompt 0 becomes the most recently used
  use(256);  // drops prompt 1, not prompt 0
  use(0);
  use(1);
  auto calls = generator.calls();
  EXPECT_EQ(calls[tokenizer.decode(prompt(0))], 1);
  if (std::thread::hardware_concurrency() <= 256) {
    EXPECT_EQ(calls[tokenizer.decode(prompt(1))], 2);
  }
  EXPECT_EQ(calls[tokenizer.decode(prompt(2))], 1);
}

}  // namespace
}  // namespace lmpeel::lm
