// Definitions for the shared per-row kernels.  This TU gets the same probed
// SIMD flags as tensor.cpp plus -ffp-contract=off (see src/CMakeLists.txt);
// every backend links the one copy compiled here, which is what makes their
// attention bit-identical.
#include "lm/attention.hpp"

#include <algorithm>
#include <cmath>

#include "lm/lanes.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

/// The serial score of one key: ((0 + q0·k0) + q1·k1) + … in c order.
float serial_score(const float* q, const float* k, std::size_t hd,
                   float scale) {
  float acc = 0.0f;
  for (std::size_t c = 0; c < hd; ++c) acc += q[c] * k[c];
  return acc * scale;
}

/// Scores of G groups of kWidth keys: lane r of group g is the key row
/// keys[g] + r * stride, and its result goes to out[g][r].  Each lane
/// accumulates q[c] · k[c] for c ascending from 0.0f and is then scaled —
/// exactly serial_score.  The G accumulators are independent add chains.
template <class L, std::size_t G>
void score_groups(const float* q, const float* const* keys,
                  float* const* out, std::size_t stride, std::size_t hd,
                  float scale) {
  typename L::V acc[G];
  for (std::size_t g = 0; g < G; ++g) acc[g] = L::zero();
  std::size_t c = 0;
  for (; c + 4 <= hd; c += 4) {
    for (std::size_t g = 0; g < G; ++g) {
      typename L::V cols[4];
      L::columns4(keys[g] + c, stride, cols);
      for (std::size_t j = 0; j < 4; ++j) {
        acc[g] = L::mul_add(acc[g], cols[j], q[c + j]);
      }
    }
  }
  for (; c < hd; ++c) {
    for (std::size_t g = 0; g < G; ++g) {
      acc[g] = L::mul_add(acc[g], L::column(keys[g] + c, stride), q[c]);
    }
  }
  for (std::size_t g = 0; g < G; ++g) L::store(out[g], L::mul(acc[g], scale));
}

/// ctx[0, B · kWidth) = Σ p_u · v_u[0, B · kWidth) over the keys with
/// p_u != 0, added in u order from 0.0f; `v0` is the column offset of the
/// first lane within a key row.  The B partial rows stay in registers for
/// the whole pass over the keys.
template <class L, std::size_t B>
void blend_columns(const float* prow, const mem::KvSpan* spans,
                   std::size_t n_spans, std::size_t stride, std::size_t v0,
                   std::size_t n, float* ctx) {
  constexpr std::size_t W = L::kWidth;
  typename L::V acc[B];
  for (std::size_t b = 0; b < B; ++b) acc[b] = L::zero();
  std::size_t u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* vbase = spans[s].v + v0;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float p = prow[u];
      if (p == 0.0f) continue;
      const float* v = vbase + r * stride;
      for (std::size_t b = 0; b < B; ++b) {
        acc[b] = L::mul_add(acc[b], L::load(v + b * W), p);
      }
    }
  }
  for (std::size_t b = 0; b < B; ++b) L::store(ctx + b * W, acc[b]);
}

template <class L>
void attend(const float* q, const mem::KvSpan* spans, std::size_t n_spans,
            std::size_t stride, std::size_t head_off, std::size_t n,
            std::size_t hd, float scale, float* prow, float* ctx) {
  constexpr std::size_t W = L::kWidth;
  constexpr std::size_t kInFlight = 4;  // key groups per score_groups call
  // Scores: each span's rows go to the lanes kWidth at a time; a span's
  // last rows % kWidth take the serial loop.  Full groups are batched
  // across spans so a 16-row page still fills kInFlight groups.
  const float* keys[kInFlight];
  float* outs[kInFlight];
  std::size_t pending = 0;
  std::size_t u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* kbase = spans[s].k + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    std::size_t r = 0;
    for (; r + W <= rows; r += W) {
      keys[pending] = kbase + r * stride;
      outs[pending] = prow + u + r;
      if (++pending == kInFlight) {
        score_groups<L, kInFlight>(q, keys, outs, stride, hd, scale);
        pending = 0;
      }
    }
    for (; r < rows; ++r) {
      prow[u + r] = serial_score(q, kbase + r * stride, hd, scale);
    }
    u += rows;
  }
  LMPEEL_CHECK(u == n);
  for (std::size_t g = 0; g < pending; ++g) {
    score_groups<L, 1>(q, keys + g, outs + g, stride, hd, scale);
  }

  float hi = -1e30f;
  for (std::size_t w = 0; w < n; ++w) hi = std::max(hi, prow[w]);
  float sum = 0.0f;
  for (std::size_t w = 0; w < n; ++w) {
    prow[w] = std::exp(prow[w] - hi);
    sum += prow[w];
  }
  const float inv = 1.0f / sum;
  for (std::size_t w = 0; w < n; ++w) prow[w] *= inv;

  // Blend: every ctx[c] is Σ p_u · v_u[c] in u order, whichever block its
  // column lands in; columns past the last full lane block go serially.
  constexpr std::size_t kBlock = 8;  // lane registers per blend pass
  std::size_t c = 0;
  for (; c + kBlock * W <= hd; c += kBlock * W) {
    blend_columns<L, kBlock>(prow, spans, n_spans, stride, head_off + c, n,
                             ctx + c);
  }
  for (; c + W <= hd; c += W) {
    blend_columns<L, 1>(prow, spans, n_spans, stride, head_off + c, n,
                        ctx + c);
  }
  for (; c < hd; ++c) {
    float acc = 0.0f;
    u = 0;
    for (std::size_t s = 0; s < n_spans && u < n; ++s) {
      const float* vbase = spans[s].v + head_off + c;
      const std::size_t rows = std::min(spans[s].tokens, n - u);
      for (std::size_t r = 0; r < rows; ++r, ++u) {
        const float p = prow[u];
        if (p == 0.0f) continue;
        acc += p * vbase[r * stride];
      }
    }
    ctx[c] = acc;
  }
}

}  // namespace

[[gnu::noinline]] void attend_row(const float* q, const mem::KvSpan* spans,
                                  std::size_t n_spans, std::size_t stride,
                                  std::size_t head_off, std::size_t n,
                                  std::size_t hd, float scale, float* prow,
                                  float* ctx) {
#if defined(__AVX2__)
  attend<Lanes8>(q, spans, n_spans, stride, head_off, n, hd, scale, prow, ctx);
#else
  attend<PortableLanes>(q, spans, n_spans, stride, head_off, n, hd, scale,
                        prow, ctx);
#endif
}

namespace detail {
void attend_row_portable(const float* q, const mem::KvSpan* spans,
                         std::size_t n_spans, std::size_t stride,
                         std::size_t head_off, std::size_t n, std::size_t hd,
                         float scale, float* prow, float* ctx) {
  attend<PortableLanes>(q, spans, n_spans, stride, head_off, n, hd, scale,
                        prow, ctx);
}
}  // namespace detail

[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row) {
  const std::size_t d = tok_emb.cols();
  const float* te = tok_emb.data() + static_cast<std::size_t>(id) * d;
  const float* pe = pos_emb.data() + pos * d;
  for (std::size_t c = 0; c < d; ++c) row[c] = te[c] + pe[c];
}

}  // namespace lmpeel::lm
