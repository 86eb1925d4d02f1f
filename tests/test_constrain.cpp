#include "lm/constrain.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "lm/generate.hpp"
#include "prompt/parser.hpp"
#include "prompt/template.hpp"

namespace lmpeel::lm {
namespace {

class ConstrainFixture : public ::testing::Test {
 protected:
  static core::Pipeline& pipeline() {
    static core::Pipeline p;
    return p;
  }
  static const tok::Tokenizer& tz() { return pipeline().tokenizer(); }
};

std::vector<std::uint8_t> legal_for(const tok::Tokenizer& tz,
                                    const std::string& response_text) {
  const DecimalValueMask mask(tz);
  std::vector<std::uint8_t> legal;
  mask.legal_tokens(tz.encode(response_text), legal);
  return legal;
}

TEST_F(ConstrainFixture, GrammarStatesFollowTheFormat) {
  // Start: only the space.
  auto legal = legal_for(tz(), "");
  EXPECT_TRUE(legal[tz().space_token()]);
  EXPECT_FALSE(legal[tz().vocab().number_token("123")]);

  // After the space: digit groups only.
  legal = legal_for(tz(), " ");
  EXPECT_TRUE(legal[tz().vocab().number_token("0")]);
  EXPECT_TRUE(legal[tz().vocab().number_token("123")]);
  EXPECT_FALSE(legal[tz().dot_token()]);
  EXPECT_FALSE(legal[tz().space_token()]);

  // After the integer group: only the dot.
  legal = legal_for(tz(), " 0");
  EXPECT_TRUE(legal[tz().dot_token()]);
  EXPECT_FALSE(legal[tz().vocab().number_token("5")]);

  // After the dot: digits, no newline yet.
  legal = legal_for(tz(), " 0.");
  EXPECT_TRUE(legal[tz().vocab().number_token("002")]);
  EXPECT_FALSE(legal[tz().newline_token()]);

  // With one fraction group: digits or newline.
  legal = legal_for(tz(), " 0.002");
  EXPECT_TRUE(legal[tz().vocab().number_token("215")]);
  EXPECT_TRUE(legal[tz().newline_token()]);

  // After the newline: only <eos>.
  legal = legal_for(tz(), " 0.002\n");
  EXPECT_TRUE(legal[tok::kEos]);
  EXPECT_FALSE(legal[tz().vocab().number_token("5")]);
}

TEST_F(ConstrainFixture, FractionGroupCountIsBounded) {
  const DecimalValueMask mask(tz(), /*max_fraction_groups=*/2);
  std::vector<std::uint8_t> legal;
  mask.legal_tokens(tz().encode(" 0.002215"), legal);  // two groups emitted
  EXPECT_FALSE(legal[tz().vocab().number_token("5")]);
  EXPECT_TRUE(legal[tz().newline_token()]);
}

TEST_F(ConstrainFixture, IllegalPrefixRecoversWithEos) {
  auto legal = legal_for(tz(), "Based");
  std::size_t count = 0;
  for (std::size_t v = 0; v < legal.size(); ++v) count += legal[v];
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(legal[tok::kEos]);
}

TEST_F(ConstrainFixture, ConstrainedGenerationAlwaysParses) {
  // Force heavy deviations; the mask must still yield parseable decimals.
  InductionParams params;
  params.deviation_base = 1.0;
  params.deviation_max = 1.0;
  params.refusal_fraction = 1.0;  // the worst case: pure refusals
  InductionLm wild(tz(), params);
  GrammarConstrainedLm constrained(wild, tz(), DecimalValueMask(tz()));

  const auto& data = pipeline().dataset(perf::SizeClass::SM);
  util::Rng rng(2);
  const auto subsets = perf::disjoint_subsets(data.size(), 1, 5, rng);
  std::vector<perf::Sample> icl;
  for (const std::size_t i : subsets[0]) icl.push_back(data[i]);
  const auto builder = pipeline().builder(perf::SizeClass::SM);

  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto ids = builder.encode(tz(), icl, data[77 + seed].config);
    GenerateOptions opt;
    opt.sampler = {1.0, 0, 1.0};
    opt.stop_token = tz().newline_token();
    opt.seed = seed;
    const auto gen = lm::generate(constrained, ids, opt);
    const auto parsed =
        prompt::parse_response(tz().decode(gen.tokens));
    EXPECT_TRUE(parsed.value.has_value()) << "seed " << seed;
  }
  EXPECT_GT(constrained.forced_uniform_steps(), 0u);
}

TEST_F(ConstrainFixture, PromptSectionIsUnconstrained) {
  GrammarConstrainedLm constrained(pipeline().model(), tz(),
                                   DecimalValueMask(tz()));
  // No <|assistant|> in the context: the wrapper must not mask anything.
  const auto ids = tz().encode("alpha beta gamma alpha beta");
  std::vector<float> masked(constrained.vocab_size());
  std::vector<float> plain(constrained.vocab_size());
  constrained.next_logits(ids, /*seed=*/0, masked);
  pipeline().model().next_logits(ids, /*seed=*/0, plain);
  for (std::size_t v = 0; v < plain.size(); ++v) {
    EXPECT_FLOAT_EQ(masked[v], plain[v]);
  }
}

}  // namespace
}  // namespace lmpeel::lm
