#include "lm/transformer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lm/adamw.hpp"
#include "lm/corpus.hpp"
#include "lm/sampler.hpp"
#include "lm/trainer.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::lm {
namespace {

TransformerConfig tiny_config(int vocab) {
  TransformerConfig cfg;
  cfg.vocab = vocab;
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

TEST(Transformer, ParameterCountMatchesFormula) {
  const TransformerConfig cfg = tiny_config(100);
  TransformerLm model(cfg, 1);
  const std::size_t d = cfg.d_model;
  const std::size_t per_layer = 2 * d + (d * 3 * d + 3 * d) +
                                (d * d + d) + 2 * d + (d * 4 * d + 4 * d) +
                                (4 * d * d + d);
  const std::size_t expected = 100 * d + cfg.max_seq * d + 2 * d +
                               cfg.n_layer * per_layer;
  EXPECT_EQ(model.parameter_count(), expected);
  EXPECT_EQ(model.parameters().size(), model.gradients().size());
}

TEST(Transformer, GradientsMatchFiniteDifferences) {
  TransformerLm model(tiny_config(50), 2);
  const std::vector<int> seq{1, 4, 9, 16, 25, 36, 49, 2, 3};
  model.zero_gradients();
  model.train_sequence(seq);
  auto params = model.parameters();
  auto grads = model.gradients();

  // Probe a few parameters in distinct tensors (embeddings, attention
  // weights, MLP weights, layer norms).
  for (const std::size_t pi : {0u, 2u, 6u, 12u, 14u}) {
    ASSERT_LT(pi, params.size());
    const std::size_t i = params[pi]->size() / 2;
    float* w = params[pi]->data();
    const float eps = 1e-2f;
    const float orig = w[i];
    w[i] = orig + eps;
    const double up = model.evaluate_sequence(seq);
    w[i] = orig - eps;
    const double down = model.evaluate_sequence(seq);
    w[i] = orig;
    const double fd = (up - down) / (2.0 * eps);
    const double an = grads[pi]->data()[i];
    EXPECT_NEAR(fd, an, std::max(2e-3, std::abs(fd) * 0.05))
        << "parameter tensor " << pi;
  }
}

TEST(Transformer, CausalityHoldsAtInference) {
  // The logits for position t must not depend on tokens after t: comparing
  // next_logits on a prefix vs the same prefix embedded in a longer
  // context must agree on the prefix's final position.
  TransformerLm model(tiny_config(30), 3);
  const std::vector<int> prefix{5, 6, 7};
  std::vector<float> a(30), b(30);
  model.next_logits(prefix, /*seed=*/0, a);
  // next_logits only sees the context it is given, so recompute with the
  // same tokens to confirm determinism (causality is structural: attention
  // is masked to u <= t).
  model.next_logits(prefix, /*seed=*/0, b);
  for (int v = 0; v < 30; ++v) EXPECT_FLOAT_EQ(a[v], b[v]);
}

TEST(Transformer, MaskedLossOnlyCountsSelectedPositions) {
  TransformerLm model(tiny_config(40), 4);
  const std::vector<int> seq{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> mask_all(4, 1);
  std::vector<std::uint8_t> mask_one(4, 0);
  mask_one[3] = 1;
  const double all = model.evaluate_sequence(seq, mask_all);
  const double one = model.evaluate_sequence(seq, mask_one);
  EXPECT_GT(all, 0.0);
  EXPECT_GT(one, 0.0);
  EXPECT_NE(all, one);
}

TEST(Transformer, NoTargetsThrows) {
  TransformerLm model(tiny_config(40), 4);
  const std::vector<int> seq{1, 2, 3};
  const std::vector<std::uint8_t> none(2, 0);
  EXPECT_THROW(model.evaluate_sequence(seq, none), std::runtime_error);
}

TEST(Transformer, ContextWindowCropsOldTokens) {
  TransformerConfig cfg = tiny_config(20);
  cfg.max_seq = 8;
  TransformerLm model(cfg, 5);
  std::vector<int> lengthy(30, 3);
  std::vector<float> out(20);
  EXPECT_NO_THROW(model.next_logits(lengthy, /*seed=*/0, out));
}

TEST(Transformer, KvCacheMatchesFullForward) {
  // The KV-cached inference paths against the serial reference: a prefix
  // fed in prefill_from chunks, then one decode_batch step per token, must
  // reproduce next_logits over the growing context bit for bit.
  TransformerLm model(tiny_config(60), 11);
  const std::vector<int> seq{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  std::vector<float> full(60), cached(60);

  TransformerLm::KvCache cache;
  model.prefill_from(cache, std::span<const int>(seq).subspan(0, 3), cached);
  model.next_logits(std::span<const int>(seq).subspan(0, 3), /*seed=*/0, full);
  EXPECT_EQ(full, cached);
  model.prefill_from(cache, std::span<const int>(seq).subspan(3, 1), cached);
  model.next_logits(std::span<const int>(seq).subspan(0, 4), /*seed=*/0, full);
  EXPECT_EQ(full, cached);

  TransformerLm::KvCache* ptr = &cache;
  Tensor step(1, 60);
  for (std::size_t t = 4; t < seq.size(); ++t) {
    model.decode_batch(std::span<TransformerLm::KvCache* const>(&ptr, 1),
                       std::span<const int>(&seq[t], 1), step);
    model.next_logits(std::span<const int>(seq).subspan(0, t + 1),
                      /*seed=*/0, full);
    for (std::size_t v = 0; v < 60; ++v) {
      ASSERT_EQ(full[v], step.at(0, v)) << "position " << t;
    }
  }
  EXPECT_EQ(cache.length(), seq.size());
  cache.clear();
  EXPECT_EQ(cache.length(), 0u);
}

TEST(Transformer, PrefillMatchesNextLogitsBitForBit) {
  TransformerLm model(tiny_config(60), 11);
  const std::vector<int> seq{3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<float> full(60), prefilled(60);
  TransformerLm::KvCache cache;
  model.prefill(cache, seq, prefilled);
  model.next_logits(seq, /*seed=*/0, full);
  EXPECT_EQ(cache.length(), seq.size());
  for (int v = 0; v < 60; ++v) {
    ASSERT_EQ(full[v], prefilled[v]) << "vocab " << v;
  }
  // prefill requires an empty cache.
  EXPECT_THROW(model.prefill(cache, seq, prefilled), std::runtime_error);
}

TEST(Transformer, DecodeBatchMatchesFullForwardBitForBit) {
  // The serve engine's core guarantee: a prefill + incremental batched
  // decode steps produce the exact same floats as next_logits over the
  // growing context — no tolerance, ragged lengths included.  Nine
  // sequences put the batched matmuls on the blocked 8-row kernel path
  // plus a tail row (and vocab 60 exercises the tied-head panel tail), so
  // every accumulation order in the SIMD kernels is covered bit-for-bit.
  TransformerLm model(tiny_config(60), 11);
  const std::vector<std::vector<int>> prompts{
      {3, 1, 4, 1, 5}, {9, 2},     {6, 5, 3, 5, 8, 9, 7},
      {2, 7, 1},       {8, 8, 4},  {1},
      {5, 9, 2, 6},    {10, 3, 3}, {4, 6, 1, 8, 2, 7}};
  const std::size_t batch = prompts.size();

  std::vector<TransformerLm::KvCache> caches(batch);
  std::vector<TransformerLm::KvCache*> cache_ptrs;
  std::vector<std::vector<int>> contexts = prompts;
  std::vector<float> scratch(60);
  for (std::size_t b = 0; b < batch; ++b) {
    model.prefill(caches[b], prompts[b], scratch);
    cache_ptrs.push_back(&caches[b]);
  }

  std::vector<int> next{7, 11, 13, 2, 5, 9, 17, 23, 31};
  Tensor logits(batch, 60);
  std::vector<float> full(60);
  for (int step = 0; step < 5; ++step) {
    model.decode_batch(cache_ptrs, next, logits);
    for (std::size_t b = 0; b < batch; ++b) {
      contexts[b].push_back(next[b]);
      model.next_logits(contexts[b], /*seed=*/0, full);
      for (int v = 0; v < 60; ++v) {
        ASSERT_EQ(full[v], logits.at(b, static_cast<std::size_t>(v)))
            << "step " << step << " sequence " << b << " vocab " << v;
      }
      // Feed each sequence its own argmax so the streams diverge.
      next[b] = sample_greedy(logits.row(b));
    }
  }

  // A single-sequence batch goes down the same path.
  TransformerLm::KvCache solo;
  model.prefill(solo, prompts[0], scratch);
  TransformerLm::KvCache* solo_ptr = &solo;
  Tensor solo_logits(1, 60);
  const std::vector<int> one{7};
  model.decode_batch(std::span<TransformerLm::KvCache* const>(&solo_ptr, 1),
                     one, solo_logits);
  std::vector<int> ctx = prompts[0];
  ctx.push_back(7);
  model.next_logits(ctx, /*seed=*/0, full);
  for (int v = 0; v < 60; ++v) {
    ASSERT_EQ(full[v], solo_logits.at(0, static_cast<std::size_t>(v)));
  }
}

TEST(Transformer, DecodeBatchRespectsMaxSeq) {
  TransformerConfig cfg = tiny_config(20);
  cfg.max_seq = 4;
  TransformerLm model(cfg, 12);
  TransformerLm::KvCache cache;
  std::vector<float> out(20);
  const std::vector<int> four{1, 2, 3, 4};
  model.prefill(cache, four, out);
  TransformerLm::KvCache* ptr = &cache;
  const std::vector<int> one{5};
  Tensor logits(1, 20);
  EXPECT_THROW(
      model.decode_batch(std::span<TransformerLm::KvCache* const>(&ptr, 1),
                         one, logits),
      std::runtime_error);
}

TEST(Transformer, KvCacheRespectsMaxSeq) {
  TransformerConfig cfg = tiny_config(20);
  cfg.max_seq = 4;
  TransformerLm model(cfg, 12);
  TransformerLm::KvCache cache;
  std::vector<float> out(20);
  const std::vector<int> two{1, 2};
  EXPECT_NO_THROW(model.prefill_from(cache, two, out));
  EXPECT_NO_THROW(model.prefill_from(cache, two, out));
  const std::vector<int> one{5};
  EXPECT_THROW(model.prefill_from(cache, one, out), std::runtime_error);
  EXPECT_EQ(cache.length(), 4u);
}

TEST(Transformer, TrainingReducesLossOnRepetitiveData) {
  tok::Tokenizer tz;
  TransformerConfig cfg;
  cfg.vocab = tz.vocab_size();
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  TransformerLm model(cfg, 7);

  TrainerOptions options;
  options.steps = 60;
  options.batch_size = 4;
  options.optimizer.lr = 3e-3;
  LinearTaskOptions task;
  task.n_examples = 3;
  const auto result = train(
      model,
      [&](util::Rng& rng) {
        return encode_linear_example(tz, make_linear_prompt(task, rng));
      },
      options);
  ASSERT_EQ(result.loss_curve.size(), 60u);
  EXPECT_LT(result.final_loss, result.loss_curve.front() * 0.7);
}

TEST(AdamW, StepMovesParametersAgainstGradient) {
  TransformerLm model(tiny_config(30), 8);
  const std::vector<int> seq{1, 2, 3, 4};
  model.zero_gradients();
  const double before = model.train_sequence(seq);
  AdamWConfig cfg;
  cfg.lr = 1e-2;
  cfg.weight_decay = 0.0;
  AdamW opt(model.parameters(), model.gradients(), cfg);
  EXPECT_GT(opt.gradient_norm(), 0.0);
  opt.step();
  EXPECT_EQ(opt.steps_taken(), 1u);
  const double after = model.evaluate_sequence(seq);
  EXPECT_LT(after, before);
}

TEST(CosineLr, WarmupThenDecay) {
  EXPECT_NEAR(cosine_lr(1.0, 0, 10, 100), 0.1, 1e-9);   // warmup ramp
  EXPECT_NEAR(cosine_lr(1.0, 9, 10, 100), 1.0, 1e-9);   // warmup end
  EXPECT_NEAR(cosine_lr(1.0, 10, 10, 100), 1.0, 1e-6);  // peak
  EXPECT_NEAR(cosine_lr(1.0, 100, 10, 100), 0.1, 1e-6); // floor (min_ratio)
  // Monotone decreasing after warmup.
  double prev = 2.0;
  for (std::size_t s = 10; s <= 100; s += 10) {
    const double lr = cosine_lr(1.0, s, 10, 100);
    EXPECT_LE(lr, prev + 1e-12);
    prev = lr;
  }
}

TEST(Corpus, LinearPromptAnswerIsConsistent) {
  LinearTaskOptions options;
  util::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const LinearPrompt p = make_linear_prompt(options, rng);
    EXPECT_EQ(p.answer,
              std::to_string(p.slope * p.query_x + p.intercept));
    EXPECT_NE(p.text.find("x=" + std::to_string(p.query_x) + ", y="),
              std::string::npos);
  }
}

TEST(Corpus, MaskSelectsAnswerTokensOnly) {
  tok::Tokenizer tz;
  LinearTaskOptions options;
  options.n_examples = 2;
  util::Rng rng(4);
  const LinearPrompt p = make_linear_prompt(options, rng);
  const MaskedSequence seq = encode_linear_example(tz, p);
  ASSERT_EQ(seq.target_mask.size(), seq.tokens.size() - 1);
  std::size_t active = 0;
  for (const auto m : seq.target_mask) active += m;
  // answer tokens + <eos>
  EXPECT_EQ(active, tz.encode(p.answer).size() + 1);
  EXPECT_EQ(seq.tokens.back(), tok::kEos);
}

TEST(Corpus, DecimalCorpusParses) {
  util::Rng rng(5);
  const std::string corpus = make_decimal_corpus(20, 0.001, 10.0, rng);
  std::size_t lines = 0;
  for (const char c : corpus) lines += c == '\n';
  EXPECT_EQ(lines, 20u);
  EXPECT_NE(corpus.find("Performance: "), std::string::npos);
}

}  // namespace
}  // namespace lmpeel::lm
