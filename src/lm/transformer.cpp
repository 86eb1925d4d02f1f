#include "lm/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <vector>

#include "lm/attention.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

void add_bias(Tensor& x, const Tensor& bias) {
  LMPEEL_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    const float* b = bias.data();
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] += b[c];
  }
}

void bias_grad(const Tensor& dy, Tensor& db) {
  LMPEEL_CHECK(db.rows() == 1 && db.cols() == dy.cols());
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.data() + r * dy.cols();
    float* b = db.data();
    for (std::size_t c = 0; c < dy.cols(); ++c) b[c] += row[c];
  }
}

// The per-row kernels shared between forward(), the inference body and the
// quantized backend (attend_rows / embed_row) live in lm/attention.cpp — one
// noinline copy for every caller, whose SIMD lanes each compute a key's
// serial dot product, which is what the bit-identity guarantees rest on.
// The tied head is matmul_transposed_b (lm/tensor.cpp), whose every output
// is the serial dot product whatever the row count, so forward(), prefill
// and decode share it too.

}  // namespace

struct TransformerLm::Cache {
  struct LayerCache {
    Tensor x_in;             // [T,D] block input
    Tensor a;                // [T,D] ln1 output
    LayerNormCache ln1;
    Tensor qkv;              // [T,3D]
    std::vector<Tensor> probs;  // per head [T,T] (causal-masked softmax)
    Tensor ctx;              // [T,D] attention context (heads concatenated)
    Tensor x2;               // [T,D] after attention residual
    Tensor m;                // [T,D] ln2 output
    LayerNormCache ln2;
    Tensor h1;               // [T,4D]
    Tensor g;                // [T,4D] gelu(h1)
  };
  std::vector<LayerCache> layers;
  Tensor x_final;            // [T,D] output of the last block
  Tensor f;                  // [T,D] final layer norm
  LayerNormCache lnf;
  Tensor logits;             // [T,V]
};

TransformerLm::TransformerLm(TransformerConfig config, std::uint64_t seed)
    : config_(config) {
  LMPEEL_CHECK(config_.vocab > 0);
  LMPEEL_CHECK(config_.d_model % config_.n_head == 0);
  util::Rng rng(seed);
  const auto v = static_cast<std::size_t>(config_.vocab);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto s = static_cast<std::size_t>(config_.max_seq);

  const float base_std = 0.02f;
  // GPT-2-style depth scaling of residual-path projections.
  const float resid_std =
      base_std / std::sqrt(2.0f * static_cast<float>(config_.n_layer));

  tok_emb_ = Tensor(v, d);
  tok_emb_.randomize(rng, base_std);
  pos_emb_ = Tensor(s, d);
  pos_emb_.randomize(rng, base_std);
  d_tok_emb_ = Tensor(v, d);
  d_pos_emb_ = Tensor(s, d);

  lnf_g_ = Tensor(1, d);
  lnf_b_ = Tensor(1, d);
  std::fill_n(lnf_g_.data(), d, 1.0f);
  d_lnf_g_ = Tensor(1, d);
  d_lnf_b_ = Tensor(1, d);

  layers_.resize(config_.n_layer);
  for (Layer& layer : layers_) {
    layer.ln1_g = Tensor(1, d);
    std::fill_n(layer.ln1_g.data(), d, 1.0f);
    layer.ln1_b = Tensor(1, d);
    layer.w_qkv = Tensor(d, 3 * d);
    layer.w_qkv.randomize(rng, base_std);
    layer.b_qkv = Tensor(1, 3 * d);
    layer.w_o = Tensor(d, d);
    layer.w_o.randomize(rng, resid_std);
    layer.b_o = Tensor(1, d);
    layer.ln2_g = Tensor(1, d);
    std::fill_n(layer.ln2_g.data(), d, 1.0f);
    layer.ln2_b = Tensor(1, d);
    layer.w_fc1 = Tensor(d, 4 * d);
    layer.w_fc1.randomize(rng, base_std);
    layer.b_fc1 = Tensor(1, 4 * d);
    layer.w_fc2 = Tensor(4 * d, d);
    layer.w_fc2.randomize(rng, resid_std);
    layer.b_fc2 = Tensor(1, d);

    layer.d_ln1_g = Tensor(1, d);
    layer.d_ln1_b = Tensor(1, d);
    layer.d_w_qkv = Tensor(d, 3 * d);
    layer.d_b_qkv = Tensor(1, 3 * d);
    layer.d_w_o = Tensor(d, d);
    layer.d_b_o = Tensor(1, d);
    layer.d_ln2_g = Tensor(1, d);
    layer.d_ln2_b = Tensor(1, d);
    layer.d_w_fc1 = Tensor(d, 4 * d);
    layer.d_b_fc1 = Tensor(1, 4 * d);
    layer.d_w_fc2 = Tensor(4 * d, d);
    layer.d_b_fc2 = Tensor(1, d);
  }
}

void TransformerLm::forward(std::span<const int> ids, Cache* cache,
                            std::span<float> last_logits_out) {
  obs::Span span("lm.transformer.forward");
  obs::Registry::global().counter("lm.transformer.forward_tokens")
      .add(ids.size());
  const std::size_t t_len = ids.size();
  LMPEEL_CHECK(t_len > 0);
  LMPEEL_CHECK(t_len <= static_cast<std::size_t>(config_.max_seq));
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  Tensor x(t_len, d);
  for (std::size_t t = 0; t < t_len; ++t) {
    const int id = ids[t];
    LMPEEL_CHECK(id >= 0 && id < config_.vocab);
    embed_row(tok_emb_, pos_emb_, id, t, x.data() + t * d);
  }

  if (cache) cache->layers.resize(layers_.size());

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    Cache::LayerCache scratch;
    Cache::LayerCache& lc = cache ? cache->layers[l] : scratch;
    lc.x_in = x;

    lc.a = Tensor(t_len, d);
    layer_norm(lc.x_in, layer.ln1_g.row(0), layer.ln1_b.row(0), lc.a, lc.ln1);

    lc.qkv = Tensor(t_len, 3 * d);
    matmul(lc.a, layer.w_qkv, lc.qkv);
    add_bias(lc.qkv, layer.b_qkv);

    lc.ctx = Tensor(t_len, d);
    lc.probs.assign(n_head, Tensor());
    // K/V rows live inside the packed QKV rows: one span whose k/v point
    // at position 0's K/V slice, rows 3·d floats apart.
    const mem::KvSpan qkv_span{lc.qkv.data() + d, lc.qkv.data() + 2 * d,
                               t_len};
    std::vector<AttendQuery> queries(t_len);
    for (std::size_t h = 0; h < n_head; ++h) {
      Tensor& probs = lc.probs[h];
      // Zero-initialised; attend_rows fills [0, t] of row t, the causal
      // remainder stays zero.
      probs = Tensor(t_len, t_len);
      for (std::size_t t = 0; t < t_len; ++t) {
        queries[t] = {lc.qkv.data() + t * 3 * d + h * hd, {&qkv_span, 1},
                      t + 1, probs.data() + t * t_len,
                      lc.ctx.data() + t * d + h * hd};
      }
      attend_rows(queries, 3 * d, h * hd, hd, scale);
    }

    Tensor attn(t_len, d);
    matmul(lc.ctx, layer.w_o, attn);
    add_bias(attn, layer.b_o);

    lc.x2 = lc.x_in;
    add_into(lc.x2, attn);

    lc.m = Tensor(t_len, d);
    layer_norm(lc.x2, layer.ln2_g.row(0), layer.ln2_b.row(0), lc.m, lc.ln2);

    lc.h1 = Tensor(t_len, 4 * d);
    matmul(lc.m, layer.w_fc1, lc.h1);
    add_bias(lc.h1, layer.b_fc1);
    lc.g = Tensor(t_len, 4 * d);
    gelu(lc.h1, lc.g);
    Tensor h2(t_len, d);
    matmul(lc.g, layer.w_fc2, h2);
    add_bias(h2, layer.b_fc2);

    x = lc.x2;
    add_into(x, h2);
  }

  Tensor f(t_len, d);
  LayerNormCache lnf_scratch;
  LayerNormCache& lnf = cache ? cache->lnf : lnf_scratch;
  layer_norm(x, lnf_g_.row(0), lnf_b_.row(0), f, lnf);

  if (cache) {
    cache->x_final = x;
    cache->f = f;
    cache->logits = Tensor(t_len, config_.vocab);
    // logits = f * tok_emb^T (weight tying), every row at once.
    matmul_transposed_b(f, tok_emb_, cache->logits);
  }
  if (!last_logits_out.empty()) {
    LMPEEL_CHECK(last_logits_out.size() ==
                 static_cast<std::size_t>(config_.vocab));
    // The same head kernel over the last row alone: the serial reference
    // next_logits returns and the batched paths must equal.
    Tensor last(1, d);
    std::copy_n(f.data() + (t_len - 1) * d, d, last.data());
    Tensor logits(1, last_logits_out.size());
    matmul_transposed_b(last, tok_emb_, logits);
    std::copy_n(logits.data(), logits.size(), last_logits_out.data());
  }
}

void TransformerLm::prefill_from(KvCache& cache, std::span<const int> suffix,
                                 std::span<float> out) {
  obs::Span span("lm.transformer.prefill_from");
  prefill_rows(*this, config_, cache, suffix, out);
}

void TransformerLm::decode_batch(std::span<KvCache* const> caches,
                                 std::span<const int> tokens,
                                 Tensor& logits_out) {
  obs::Span span("lm.transformer.decode_batch");
  decode_rows(*this, config_, caches, tokens, logits_out);
}

void TransformerLm::embed(int id, std::size_t pos, float* row) const {
  embed_row(tok_emb_, pos_emb_, id, pos, row);
}

void TransformerLm::project(std::size_t layer, Proj proj, const Tensor& act,
                            Tensor& out) const {
  const Layer& l = layers_[layer];
  const Tensor* w = &l.w_qkv;
  const Tensor* b = &l.b_qkv;
  if (proj == Proj::kAttnOut) {
    w = &l.w_o;
    b = &l.b_o;
  } else if (proj == Proj::kFc1) {
    w = &l.w_fc1;
    b = &l.b_fc1;
  } else if (proj == Proj::kFc2) {
    w = &l.w_fc2;
    b = &l.b_fc2;
  }
  matmul(act, *w, out);
  add_bias(out, *b);
}

void TransformerLm::head(const Tensor& f, Tensor& logits) const {
  // The kernel forward() runs; each row's logits equal its single-row
  // call bit for bit.
  matmul_transposed_b(f, tok_emb_, logits);
}

WeightOps::Norm TransformerLm::norm(std::size_t layer, bool second) const {
  if (layer == layers_.size()) return {lnf_g_.row(0), lnf_b_.row(0)};
  const Layer& l = layers_[layer];
  return second ? Norm{l.ln2_g.row(0), l.ln2_b.row(0)}
                : Norm{l.ln1_g.row(0), l.ln1_b.row(0)};
}

void TransformerLm::next_logits(std::span<const int> context,
                                std::uint64_t /*seed*/, std::span<float> out) {
  LMPEEL_CHECK(!context.empty());
  // Crop to the positional window; the transformer cannot see further back.
  std::span<const int> window = context;
  if (window.size() > static_cast<std::size_t>(config_.max_seq)) {
    window = window.subspan(window.size() -
                            static_cast<std::size_t>(config_.max_seq));
  }
  forward(window, nullptr, out);
}

double TransformerLm::loss_and_backward(
    std::span<const int> tokens, std::span<const std::uint8_t> target_mask,
    bool do_backward) {
  LMPEEL_CHECK(tokens.size() >= 2);
  const std::size_t t_len = tokens.size() - 1;
  LMPEEL_CHECK(target_mask.empty() || target_mask.size() == t_len);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  Cache cache;
  forward(tokens.subspan(0, t_len), &cache, {});

  // Cross-entropy + dlogits.
  std::size_t n_targets = 0;
  for (std::size_t t = 0; t < t_len; ++t) {
    if (target_mask.empty() || target_mask[t]) ++n_targets;
  }
  LMPEEL_CHECK_MSG(n_targets > 0, "no target positions selected");

  double loss = 0.0;
  Tensor dlogits(t_len, config_.vocab);
  const float inv_n = 1.0f / static_cast<float>(n_targets);
  for (std::size_t t = 0; t < t_len; ++t) {
    const bool active = target_mask.empty() || target_mask[t];
    float* lr = cache.logits.data() + t * config_.vocab;
    if (!active) continue;
    // log-softmax
    float hi = lr[0];
    for (int v = 1; v < config_.vocab; ++v) hi = std::max(hi, lr[v]);
    double sum = 0.0;
    for (int v = 0; v < config_.vocab; ++v) {
      sum += std::exp(static_cast<double>(lr[v] - hi));
    }
    const double logz = static_cast<double>(hi) + std::log(sum);
    const int target = tokens[t + 1];
    LMPEEL_CHECK(target >= 0 && target < config_.vocab);
    loss += logz - static_cast<double>(lr[target]);
    if (do_backward) {
      float* dl = dlogits.data() + t * config_.vocab;
      for (int v = 0; v < config_.vocab; ++v) {
        const float p = static_cast<float>(
            std::exp(static_cast<double>(lr[v]) - logz));
        dl[v] = p * inv_n;
      }
      dl[target] -= inv_n;
    }
  }
  loss /= static_cast<double>(n_targets);
  if (!do_backward) return loss;

  obs::Span backward_span("lm.transformer.backward");

  // ---- backward -------------------------------------------------------
  // Head (weight-tied): logits = f * E^T.
  // df = dlogits · E, and dE += dlogits^T · f (shared embedding matrix).
  Tensor df(t_len, d);
  matmul(dlogits, tok_emb_, df);
  matmul_grad_b(dlogits, cache.f, d_tok_emb_);

  Tensor dx(t_len, d);
  layer_norm_backward(cache.x_final, lnf_g_.row(0), df, cache.lnf, dx,
                      d_lnf_g_.row(0), d_lnf_b_.row(0));

  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    Cache::LayerCache& lc = cache.layers[l];

    // x3 = x2 + h2(m(x2)); dx currently holds dL/dx3.
    Tensor dh2 = dx;  // residual branch

    Tensor dg(t_len, 4 * d);
    matmul_grad_a(dh2, layer.w_fc2, dg);
    matmul_grad_b(lc.g, dh2, layer.d_w_fc2);
    bias_grad(dh2, layer.d_b_fc2);

    Tensor dh1(t_len, 4 * d);
    gelu_backward(lc.h1, dg, dh1);

    Tensor dm(t_len, d);
    matmul_grad_a(dh1, layer.w_fc1, dm);
    matmul_grad_b(lc.m, dh1, layer.d_w_fc1);
    bias_grad(dh1, layer.d_b_fc1);

    // dx2 = dx (residual) + ln2-backward(dm)
    Tensor dx2 = dx;
    layer_norm_backward(lc.x2, layer.ln2_g.row(0), dm, lc.ln2, dx2,
                        layer.d_ln2_g.row(0), layer.d_ln2_b.row(0));

    // x2 = x_in + attn(ln1(x_in)); dattn = dx2.
    Tensor dctx(t_len, d);
    matmul_grad_a(dx2, layer.w_o, dctx);
    matmul_grad_b(lc.ctx, dx2, layer.d_w_o);
    bias_grad(dx2, layer.d_b_o);

    Tensor dqkv(t_len, 3 * d);
    for (std::size_t h = 0; h < n_head; ++h) {
      const Tensor& probs = lc.probs[h];
      const std::size_t qo = h * hd;
      const std::size_t ko = d + h * hd;
      const std::size_t vo = 2 * d + h * hd;
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* dctx_t = dctx.data() + t * d + h * hd;
        const float* prow = probs.data() + t * t_len;
        // dp[t,u] and dv accumulation
        float dp_row_dot = 0.0f;
        std::vector<float> dp(t + 1);
        for (std::size_t u = 0; u <= t; ++u) {
          const float* vv = lc.qkv.data() + u * 3 * d + vo;
          float acc = 0.0f;
          for (std::size_t c = 0; c < hd; ++c) acc += dctx_t[c] * vv[c];
          dp[u] = acc;
          dp_row_dot += prow[u] * acc;
          float* dv = dqkv.data() + u * 3 * d + vo;
          for (std::size_t c = 0; c < hd; ++c) {
            dv[c] += prow[u] * dctx_t[c];
          }
        }
        // softmax backward -> dscores, then dq/dk
        const float* q = lc.qkv.data() + t * 3 * d + qo;
        float* dq = dqkv.data() + t * 3 * d + qo;
        for (std::size_t u = 0; u <= t; ++u) {
          const float ds = prow[u] * (dp[u] - dp_row_dot) * scale;
          if (ds == 0.0f) continue;
          const float* k = lc.qkv.data() + u * 3 * d + ko;
          float* dk = dqkv.data() + u * 3 * d + ko;
          for (std::size_t c = 0; c < hd; ++c) {
            dq[c] += ds * k[c];
            dk[c] += ds * q[c];
          }
        }
      }
    }

    Tensor da(t_len, d);
    matmul_grad_a(dqkv, layer.w_qkv, da);
    matmul_grad_b(lc.a, dqkv, layer.d_w_qkv);
    bias_grad(dqkv, layer.d_b_qkv);

    // dx_in = dx2 (residual) + ln1-backward(da)
    Tensor dx_in = dx2;
    layer_norm_backward(lc.x_in, layer.ln1_g.row(0), da, lc.ln1, dx_in,
                        layer.d_ln1_g.row(0), layer.d_ln1_b.row(0));
    dx = std::move(dx_in);
  }

  // Embedding backward.
  for (std::size_t t = 0; t < t_len; ++t) {
    const float* dxr = dx.data() + t * d;
    float* te =
        d_tok_emb_.data() + static_cast<std::size_t>(tokens[t]) * d;
    float* pe = d_pos_emb_.data() + t * d;
    for (std::size_t c = 0; c < d; ++c) {
      te[c] += dxr[c];
      pe[c] += dxr[c];
    }
  }
  return loss;
}

double TransformerLm::train_sequence(
    std::span<const int> tokens, std::span<const std::uint8_t> target_mask) {
  return loss_and_backward(tokens, target_mask, /*do_backward=*/true);
}

double TransformerLm::evaluate_sequence(
    std::span<const int> tokens, std::span<const std::uint8_t> target_mask) {
  return loss_and_backward(tokens, target_mask, /*do_backward=*/false);
}

void TransformerLm::zero_gradients() {
  d_tok_emb_.zero();
  d_pos_emb_.zero();
  d_lnf_g_.zero();
  d_lnf_b_.zero();
  for (Layer& layer : layers_) {
    layer.d_ln1_g.zero();
    layer.d_ln1_b.zero();
    layer.d_w_qkv.zero();
    layer.d_b_qkv.zero();
    layer.d_w_o.zero();
    layer.d_b_o.zero();
    layer.d_ln2_g.zero();
    layer.d_ln2_b.zero();
    layer.d_w_fc1.zero();
    layer.d_b_fc1.zero();
    layer.d_w_fc2.zero();
    layer.d_b_fc2.zero();
  }
}

std::vector<Tensor*> TransformerLm::parameters() {
  std::vector<Tensor*> out = {&tok_emb_, &pos_emb_, &lnf_g_, &lnf_b_};
  for (Layer& l : layers_) {
    out.insert(out.end(),
               {&l.ln1_g, &l.ln1_b, &l.w_qkv, &l.b_qkv, &l.w_o, &l.b_o,
                &l.ln2_g, &l.ln2_b, &l.w_fc1, &l.b_fc1, &l.w_fc2, &l.b_fc2});
  }
  return out;
}

std::vector<Tensor*> TransformerLm::gradients() {
  std::vector<Tensor*> out = {&d_tok_emb_, &d_pos_emb_, &d_lnf_g_, &d_lnf_b_};
  for (Layer& l : layers_) {
    out.insert(out.end(), {&l.d_ln1_g, &l.d_ln1_b, &l.d_w_qkv, &l.d_b_qkv,
                           &l.d_w_o, &l.d_b_o, &l.d_ln2_g, &l.d_ln2_b,
                           &l.d_w_fc1, &l.d_b_fc1, &l.d_w_fc2, &l.d_b_fc2});
  }
  return out;
}

void TransformerLm::save(std::ostream& out) const {
  const char magic[4] = {'L', 'M', 'P', 'T'};
  out.write(magic, 4);
  const std::int32_t header[5] = {config_.vocab, config_.d_model,
                                  config_.n_head, config_.n_layer,
                                  config_.max_seq};
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  // parameters() is non-const by design (optimisers mutate through it);
  // serialisation only reads.
  auto* self = const_cast<TransformerLm*>(this);
  for (const Tensor* p : self->parameters()) {
    const auto n = static_cast<std::uint64_t>(p->size());
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(p->data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  LMPEEL_CHECK_MSG(out.good(), "transformer checkpoint write failed");
}

void TransformerLm::load(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  LMPEEL_CHECK_MSG(in.good() && magic[0] == 'L' && magic[1] == 'M' &&
                       magic[2] == 'P' && magic[3] == 'T',
                   "not a transformer checkpoint");
  std::int32_t header[5];
  in.read(reinterpret_cast<char*>(header), sizeof header);
  LMPEEL_CHECK_MSG(
      header[0] == config_.vocab && header[1] == config_.d_model &&
          header[2] == config_.n_head && header[3] == config_.n_layer &&
          header[4] == config_.max_seq,
      "checkpoint config does not match this model");
  for (Tensor* p : parameters()) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    LMPEEL_CHECK_MSG(in.good() && n == p->size(),
                     "checkpoint tensor size mismatch");
    in.read(reinterpret_cast<char*>(p->data()),
            static_cast<std::streamsize>(n * sizeof(float)));
  }
  LMPEEL_CHECK_MSG(in.good(), "transformer checkpoint read failed");
}

std::size_t TransformerLm::parameter_count() const {
  std::size_t n = tok_emb_.size() + pos_emb_.size() + lnf_g_.size() +
                  lnf_b_.size();
  for (const Layer& l : layers_) {
    n += l.ln1_g.size() + l.ln1_b.size() + l.w_qkv.size() + l.b_qkv.size() +
         l.w_o.size() + l.b_o.size() + l.ln2_g.size() + l.ln2_b.size() +
         l.w_fc1.size() + l.b_fc1.size() + l.w_fc2.size() + l.b_fc2.size();
  }
  return n;
}

}  // namespace lmpeel::lm
