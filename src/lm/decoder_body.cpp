#include "lm/decoder_body.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lm/attention.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

/// The layer loop.  Cache c gains `per_cache` positions whose tokens are
/// tokens[c·per_cache, (c+1)·per_cache); on return `f` holds the
/// final-normed hidden row of every new position, in token order.
void run_blocks(const WeightOps& ops, const TransformerConfig& config,
                std::span<KvCache* const> caches, std::size_t per_cache,
                std::span<const int> tokens, Tensor& f) {
  const std::size_t rows = tokens.size();
  LMPEEL_CHECK(rows > 0 && rows == caches.size() * per_cache);
  const auto d = static_cast<std::size_t>(config.d_model);
  const auto n_head = static_cast<std::size_t>(config.n_head);
  const auto n_layer = static_cast<std::size_t>(config.n_layer);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // Every cache grows before any row is written, so a PoolExhausted thrown
  // here leaves no K/V row half-appended.  Positional embeddings are
  // absolute, so rows line up with cached prefix rows whichever prompt
  // originally produced them.
  Tensor x(rows, d);
  for (std::size_t c = 0; c < caches.size(); ++c) {
    KvCache& cache = *caches[c];
    const std::size_t base = cache.length();
    LMPEEL_CHECK(base + per_cache <=
                 static_cast<std::size_t>(config.max_seq));
    cache.grow(per_cache, n_layer, d);
    for (std::size_t t = 0; t < per_cache; ++t) {
      const std::size_t r = c * per_cache + t;
      LMPEEL_CHECK(tokens[r] >= 0 && tokens[r] < config.vocab);
      ops.embed(tokens[r], base + t, x.data() + r * d);
    }
  }

  // Row r of cache c attends over positions [0, base_c + t + 1); its
  // probabilities get their own stretch of `probs`, since attend_rows
  // takes every row of the call at once.
  std::vector<std::size_t> lengths(rows);
  std::size_t prob_floats = 0;
  for (std::size_t c = 0; c < caches.size(); ++c) {
    for (std::size_t t = 0; t < per_cache; ++t) {
      lengths[c * per_cache + t] = caches[c]->length() + t + 1;
      prob_floats += lengths[c * per_cache + t];
    }
  }
  std::vector<float> probs(prob_floats);
  std::vector<AttendQuery> queries(rows);

  LayerNormCache ln_scratch;
  std::vector<std::vector<mem::KvSpan>> spans(caches.size());
  for (std::size_t l = 0; l < n_layer; ++l) {
    const WeightOps::Norm ln1 = ops.norm(l, false);
    Tensor a(rows, d);
    layer_norm(x, ln1.gain, ln1.bias, a, ln_scratch);
    Tensor qkv(rows, 3 * d);
    ops.project(l, Proj::kQkv, a, qkv);

    // Append every new K/V row before attending: row t of a cache must see
    // keys for positions [0, base+t], all of which are in the cache once
    // its rows are appended (each row then reads a prefix of the spans).
    for (std::size_t c = 0; c < caches.size(); ++c) {
      KvCache& cache = *caches[c];
      const std::size_t base = cache.length();
      for (std::size_t t = 0; t < per_cache; ++t) {
        const float* row = qkv.data() + (c * per_cache + t) * 3 * d;
        std::copy_n(row + d, d, cache.k_row(l, base + t));
        std::copy_n(row + 2 * d, d, cache.v_row(l, base + t));
      }
      cache.spans(l, base + per_cache, spans[c]);
    }
    // One call per head with every row: rows of one cache, and caches
    // sharing prefix pages, have those keys scored once for all of them.
    Tensor ctx(rows, d);
    for (std::size_t h = 0; h < n_head; ++h) {
      float* prow = probs.data();
      for (std::size_t r = 0; r < rows; ++r) {
        queries[r] = {qkv.data() + r * 3 * d + h * hd, spans[r / per_cache],
                      lengths[r], prow, ctx.data() + r * d + h * hd};
        prow += lengths[r];
      }
      attend_rows(queries, d, h * hd, hd, scale);
    }

    Tensor attn(rows, d);
    ops.project(l, Proj::kAttnOut, ctx, attn);
    add_into(x, attn);

    const WeightOps::Norm ln2 = ops.norm(l, true);
    Tensor m(rows, d);
    layer_norm(x, ln2.gain, ln2.bias, m, ln_scratch);
    Tensor h1(rows, 4 * d);
    ops.project(l, Proj::kFc1, m, h1);
    Tensor g(rows, 4 * d);
    gelu(h1, g);
    Tensor h2(rows, d);
    ops.project(l, Proj::kFc2, g, h2);
    add_into(x, h2);
  }

  const WeightOps::Norm lnf = ops.norm(n_layer, false);
  f = Tensor(rows, d);
  layer_norm(x, lnf.gain, lnf.bias, f, ln_scratch);
  for (KvCache* cache : caches) cache->commit(per_cache);
}

}  // namespace

void prefill_rows(const WeightOps& ops, const TransformerConfig& config,
                  KvCache& cache, std::span<const int> suffix,
                  std::span<float> out) {
  LMPEEL_CHECK_MSG(!suffix.empty(),
                   "prefill_from requires a non-empty suffix");
  LMPEEL_CHECK(out.empty() ||
               out.size() == static_cast<std::size_t>(config.vocab));
  // Only the suffix is forwarded — the drop in this counter relative to a
  // full prefill is the serve-bench "saved prefill" evidence.
  obs::Registry::global().counter("lm.transformer.forward_tokens")
      .add(suffix.size());
  KvCache* const one[] = {&cache};
  Tensor f;
  run_blocks(ops, config, one, suffix.size(), suffix, f);
  if (out.empty()) return;  // a mid-prompt chunk: K/V rows only
  const auto d = static_cast<std::size_t>(config.d_model);
  Tensor last(1, d);
  std::copy_n(f.data() + (suffix.size() - 1) * d, d, last.data());
  Tensor logits(1, out.size());
  ops.head(last, logits);
  std::copy_n(logits.data(), out.size(), out.data());
}

void decode_rows(const WeightOps& ops, const TransformerConfig& config,
                 std::span<KvCache* const> caches,
                 std::span<const int> tokens, Tensor& logits_out) {
  const std::size_t batch = caches.size();
  LMPEEL_CHECK(batch > 0 && tokens.size() == batch);
  LMPEEL_CHECK(logits_out.rows() == batch &&
               logits_out.cols() == static_cast<std::size_t>(config.vocab));
  obs::Registry::global().counter("lm.transformer.decode_tokens").add(batch);
  Tensor f;
  run_blocks(ops, config, caches, 1, tokens, f);
  ops.head(f, logits_out);
}

}  // namespace lmpeel::lm
