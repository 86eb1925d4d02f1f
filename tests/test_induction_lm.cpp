#include "lm/induction_lm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

#include "lm/generate.hpp"
#include "perf/dataset.hpp"
#include "prompt/parser.hpp"
#include "prompt/template.hpp"

namespace lmpeel::lm {
namespace {

/// Shared fixture: SM dataset + tokenizer + prompt builder.
class InductionFixture : public ::testing::Test {
 public:
  static perf::Dataset& data() {
    static perf::Dataset d =
        perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
    return d;
  }
  static const tok::Tokenizer& tokenizer() {
    static const tok::Tokenizer tz = [] {
      tok::Tokenizer t;
      t.train_bpe(
          "Hyperparameter configuration performance tiling factor packed "
          "interchange loops size examples complete following "
          "Hyperparameter configuration performance tiling factor packed",
          200);
      return t;
    }();
    return tz;
  }

  static std::vector<perf::Sample> examples(std::size_t count,
                                            std::uint64_t seed) {
    util::Rng rng(seed);
    const auto sets = perf::disjoint_subsets(data().size(), 1, count, rng);
    std::vector<perf::Sample> out;
    for (const std::size_t i : sets[0]) out.push_back(data()[i]);
    return out;
  }

  static Generation respond(InductionLm& model,
                            std::span<const perf::Sample> icl,
                            const perf::Syr2kConfig& query,
                            std::uint64_t seed,
                            double temperature = 1.0) {
    const prompt::PromptBuilder builder(perf::SizeClass::SM);
    const auto ids = builder.encode(tokenizer(), icl, query);
    GenerateOptions opt;
    opt.sampler = {temperature, 0, 1.0};
    opt.stop_token = tokenizer().newline_token();
    opt.max_tokens = 48;
    opt.seed = seed;
    opt.record_trace = true;
    return generate(model, ids, opt);
  }
};

TEST_F(InductionFixture, ProducesParseableDecimal) {
  InductionLm model(tokenizer());
  const auto icl = examples(5, 1);
  const auto gen = respond(model, icl, data()[999].config, 0);
  const auto parsed = prompt::parse_response(tokenizer().decode(gen.tokens));
  ASSERT_TRUE(parsed.value.has_value());
  EXPECT_GT(*parsed.value, 0.0);
  EXPECT_LT(*parsed.value, 1.0);  // SM magnitudes
}

TEST_F(InductionFixture, PredictionsStayNearIclRange) {
  // "the generated values strongly cluster around the most common ICL
  // values" — every prediction lands within a modest factor of the ICL
  // value range.
  InductionLm model(tokenizer());
  const auto icl = examples(10, 2);
  double lo = 1e300, hi = 0.0;
  for (const auto& s : icl) {
    lo = std::min(lo, s.runtime);
    hi = std::max(hi, s.runtime);
  }
  int in_band = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto gen = respond(model, icl, data()[7777].config, seed);
    const auto parsed =
        prompt::parse_response(tokenizer().decode(gen.tokens));
    if (!parsed.value.has_value()) continue;
    ++total;
    if (*parsed.value > lo / 10.0 && *parsed.value < hi * 10.0) ++in_band;
  }
  ASSERT_GT(total, 4);
  EXPECT_GE(in_band, total - 1);
}

TEST_F(InductionFixture, GreedySingleExampleCopiesItsValue) {
  // With one in-context example and greedy decoding the copy head should
  // dominate and reproduce the example's value string exactly.
  InductionParams params;
  params.seed_jitter = 0.0;
  params.deviation_base = 0.0;
  params.deviation_per_icl = 0.0;
  InductionLm model(tokenizer(), params);
  const auto icl = examples(1, 3);
  const auto gen =
      respond(model, icl, data()[1234].config, 0, /*temperature=*/0.0);
  const auto parsed = prompt::parse_response(tokenizer().decode(gen.tokens));
  ASSERT_TRUE(parsed.value.has_value());
  EXPECT_EQ(parsed.value_text, prompt::render_value(icl[0].runtime));
}

TEST_F(InductionFixture, SeedsShareCandidateSetsWithJitteredLogits) {
  // Fig. 4: "the same sets of tokens are produced with only trivial
  // deviations in logit probability" across seeds.
  InductionLm model(tokenizer());
  const auto icl = examples(8, 4);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  auto ids = builder.encode(tokenizer(), icl, data()[31].config);
  ids.push_back(tokenizer().space_token());

  std::vector<float> logits_a(model.vocab_size()), logits_b(model.vocab_size());
  model.next_logits(ids, /*seed=*/1, logits_a);
  model.next_logits(ids, /*seed=*/2, logits_b);

  std::size_t support = 0;
  double max_delta = 0.0;
  for (int v = 0; v < model.vocab_size(); ++v) {
    EXPECT_EQ(logits_a[v] == kNegInf, logits_b[v] == kNegInf)
        << "support differs at token " << v;
    if (logits_a[v] != kNegInf) {
      ++support;
      max_delta = std::max(
          max_delta, std::abs(static_cast<double>(logits_a[v] - logits_b[v])));
    }
  }
  EXPECT_GT(support, 0u);
  EXPECT_GT(max_delta, 0.0);   // seeds do differ...
  EXPECT_LT(max_delta, 0.5);   // ...but only slightly
}

TEST_F(InductionFixture, SmFirstValueTokenIsDeterministicZero) {
  // "all SM objective values are less than one, and the LLM appropriately
  // reflects this": the integer-part position admits exactly one token.
  InductionLm model(tokenizer());
  const auto icl = examples(10, 5);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  auto ids = builder.encode(tokenizer(), icl, data()[77].config);
  ids.push_back(tokenizer().space_token());
  std::vector<float> logits(model.vocab_size());
  model.next_logits(ids, /*seed=*/0, logits);
  std::vector<float> probs(logits.size());
  probabilities(logits, probs);
  std::size_t selectable = 0;
  int top = -1;
  for (int v = 0; v < model.vocab_size(); ++v) {
    if (probs[v] >= kSelectableProb) {
      ++selectable;
      if (top < 0 || probs[v] > probs[top]) top = v;
    }
  }
  EXPECT_EQ(selectable, 1u);
  EXPECT_EQ(tokenizer().token_text(top), "0");
}

TEST_F(InductionFixture, DotPositionIsForced) {
  InductionLm model(tokenizer());
  const auto icl = examples(6, 6);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  auto ids = builder.encode(tokenizer(), icl, data()[55].config);
  ids.push_back(tokenizer().space_token());
  ids.push_back(tokenizer().vocab().number_token("0"));
  std::vector<float> logits(model.vocab_size());
  model.next_logits(ids, /*seed=*/0, logits);
  EXPECT_EQ(sample_greedy(logits), tokenizer().dot_token());
}

TEST_F(InductionFixture, LaterFractionPositionsHaveManyCandidates) {
  // Table II: the deeper fraction-group tokens carry hundreds of
  // selectable alternatives (the leading group of an SM value is
  // magnitude-pinned near "000", so breadth appears from the second
  // fraction group onwards).
  InductionLm model(tokenizer());
  const auto icl = examples(25, 7);
  const auto gen = respond(model, icl, data()[2048].config, 1);
  ASSERT_EQ(gen.trace.length(), gen.tokens.size());
  ASSERT_GE(gen.trace.length(), 5u);
  // step 0 = space, steps 1.. = value tokens; step 4 is the second
  // fraction group.
  EXPECT_GT(gen.trace.step(4).candidates.size(), 40u);
}

TEST_F(InductionFixture, DeviationsAppearAndParseOrFail) {
  InductionParams params;
  params.deviation_base = 1.0;  // force deviation on every response
  params.deviation_max = 1.0;
  params.refusal_fraction = 0.0;
  InductionLm model(tokenizer(), params);
  const auto icl = examples(5, 8);
  const auto gen = respond(model, icl, data()[11].config, 3);
  const std::string text = tokenizer().decode(gen.tokens);
  const auto parsed = prompt::parse_response(text);
  EXPECT_TRUE(parsed.deviated);
  ASSERT_TRUE(parsed.value.has_value());
}

TEST_F(InductionFixture, RefusalsProduceNoValue) {
  InductionParams params;
  params.deviation_base = 1.0;
  params.deviation_max = 1.0;
  params.refusal_fraction = 1.0;  // every deviation is a refusal
  InductionLm model(tokenizer(), params);
  const auto icl = examples(5, 9);
  const auto gen = respond(model, icl, data()[13].config, 4);
  const auto parsed = prompt::parse_response(tokenizer().decode(gen.tokens));
  EXPECT_FALSE(parsed.value.has_value());
}

TEST_F(InductionFixture, TextModeParrotsRepeatedPatterns) {
  // The induction head must continue a repeating sequence: classic
  // in-context copying.
  InductionLm model(tokenizer());
  const auto abc = tokenizer().encode("alpha beta gamma alpha beta");
  std::vector<float> logits(model.vocab_size());
  model.next_logits(abc, /*seed=*/0, logits);
  const int next = sample_greedy(logits);
  const auto gamma_ids = tokenizer().encode(" gamma");
  EXPECT_EQ(next, gamma_ids[0]);
}

TEST_F(InductionFixture, EosAfterCompletedValue) {
  InductionLm model(tokenizer());
  const auto icl = examples(4, 10);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  auto ids = builder.encode(tokenizer(), icl, data()[21].config);
  // Simulate a completed response: " 0.0023\n"
  for (const int t : tokenizer().encode(" 0.0023\n")) ids.push_back(t);
  std::vector<float> logits(model.vocab_size());
  model.next_logits(ids, /*seed=*/0, logits);
  EXPECT_EQ(sample_greedy(logits), tok::kEos);
}

// Property sweep across in-context example counts: every count must yield
// parseable, positive, SM-scale predictions for most seeds, and the prompt
// must round-trip through the tokenizer.
class IclCountSweep : public InductionFixture,
                      public ::testing::WithParamInterface<std::size_t> {};

TEST_P(IclCountSweep, ParsesAndStaysInDomain) {
  const std::size_t icl_count = GetParam();
  InductionLm model(tokenizer());
  const auto icl = examples(icl_count, 40 + icl_count);
  int parsed = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto gen = respond(model, icl, data()[icl_count * 31].config, seed);
    const auto response =
        prompt::parse_response(tokenizer().decode(gen.tokens));
    if (!response.value.has_value()) continue;
    ++parsed;
    // An all-zero fraction ("0.000…") parses to exactly 0 — a legal,
    // maximally wrong prediction the real model can also emit.
    EXPECT_GE(*response.value, 0.0);
    EXPECT_LT(*response.value, 10.0);
  }
  EXPECT_GE(parsed, 3);
}

INSTANTIATE_TEST_SUITE_P(Counts, IclCountSweep,
                         ::testing::Values(1, 2, 5, 10, 25, 50, 100));

TEST(InductionLm, ConcurrentSeededCallsMatchSerial) {
  // The seed is an argument, not model state: four threads share one
  // model, each with its own seed, and every row must carry the same bits
  // as the serial call.  Contexts walk prompts of 5, 25 and 100 examples
  // token by token through a sampled response (text and number modes).
  const tok::Tokenizer& tz = InductionFixture::tokenizer();
  InductionLm model(tz);
  const prompt::PromptBuilder builder(perf::SizeClass::SM);
  std::vector<std::vector<int>> contexts;
  for (const std::size_t icl : {5u, 25u, 100u}) {
    std::vector<int> context =
        builder.encode(tz, InductionFixture::examples(icl, icl),
                       InductionFixture::data()[icl * 7].config);
    GenerateOptions opt;
    opt.stop_token = tz.newline_token();
    opt.max_tokens = 12;
    opt.seed = icl;
    const Generation gen = generate(model, context, opt);
    contexts.push_back(context);
    for (const int token : gen.tokens) {
      context.push_back(token);
      contexts.push_back(context);
    }
  }

  constexpr std::size_t kThreads = 4;
  const auto seed_of = [](std::size_t t) { return 0x5eed0 + t; };
  const auto vocab = static_cast<std::size_t>(model.vocab_size());
  std::vector<std::vector<float>> rows(kThreads * contexts.size(),
                                       std::vector<float>(vocab));
  {
    std::vector<std::jthread> threads;  // joined at the end of the block
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t c = 0; c < contexts.size(); ++c) {
          model.next_logits(contexts[c], seed_of(t),
                            rows[t * contexts.size() + c]);
        }
      });
    }
  }

  std::vector<float> want(vocab);
  std::size_t seed_sensitive = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      const std::vector<float>& got = rows[t * contexts.size() + c];
      model.next_logits(contexts[c], seed_of(t), want);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), vocab * sizeof(float)),
                0)
          << "thread " << t << ", context " << c;
      if (t > 0 && got != rows[c]) ++seed_sensitive;
    }
  }
  // The seeds must actually reach the logits, or the check above is empty.
  EXPECT_GT(seed_sensitive, 0u);
}

}  // namespace
}  // namespace lmpeel::lm
