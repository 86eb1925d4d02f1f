// Definitions for the shared per-row kernels.  This TU must never receive
// per-file SIMD flags (see src/CMakeLists.txt): every backend links the one
// copy compiled here, which is what makes their attention bit-identical.
#include "lm/attention.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace lmpeel::lm {

[[gnu::noinline]] void attend_row(const float* q, const mem::KvSpan* spans,
                                  std::size_t n_spans, std::size_t stride,
                                  std::size_t head_off, std::size_t n,
                                  std::size_t hd, float scale, float* prow,
                                  float* ctx) {
  float hi = -1e30f;
  std::size_t u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* kbase = spans[s].k + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float* k = kbase + r * stride;
      float acc = 0.0f;
      for (std::size_t c = 0; c < hd; ++c) acc += q[c] * k[c];
      prow[u] = acc * scale;
      hi = std::max(hi, prow[u]);
    }
  }
  LMPEEL_CHECK(u == n);
  float sum = 0.0f;
  for (std::size_t w = 0; w < n; ++w) {
    prow[w] = std::exp(prow[w] - hi);
    sum += prow[w];
  }
  const float inv = 1.0f / sum;
  for (std::size_t w = 0; w < n; ++w) prow[w] *= inv;

  std::fill_n(ctx, hd, 0.0f);
  u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* vbase = spans[s].v + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float p = prow[u];
      if (p == 0.0f) continue;
      const float* v = vbase + r * stride;
      for (std::size_t c = 0; c < hd; ++c) ctx[c] += p * v[c];
    }
  }
}

[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row) {
  const std::size_t d = tok_emb.cols();
  const float* te = tok_emb.data() + static_cast<std::size_t>(id) * d;
  const float* pe = pos_emb.data() + pos * d;
  for (std::size_t c = 0; c < d; ++c) row[c] = te[c] + pe[c];
}

}  // namespace lmpeel::lm
