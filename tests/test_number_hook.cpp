#include "hook/number_hook_lm.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace lmpeel::lm
