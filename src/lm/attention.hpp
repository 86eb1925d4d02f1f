// Shared per-row decode kernels (attention, embedding).
//
// These are the two kernels both forward() and decode_batch() — and, since
// DESIGN.md §17, the quantized backend — execute per position.  All paths
// must produce bit-identical floats for the same sequence (the serve
// engine's batched-vs-sequential equivalence guarantee, and the quantized
// backend's "KV rows are exact f32 attention" property).  Two things keep
// that true.  The definitions are noinline in one TU, so no call site gets
// its own inlined copy.  And that TU is built with -ffp-contract=off: its
// SIMD lanes run across keys, each lane is the serial c-ascending dot
// product of one key, and keys left over from a lane group take the serial
// loop itself — so a score does not depend on the span layout, the lane
// width, or the build's arch flags.  The f32 tied head is not here: it is
// lm::matmul_transposed_b, whose every output is the serial dot product
// whatever the row count, so one call serves a single row or a batch.
#pragma once

#include <cstddef>

#include "lm/tensor.hpp"
#include "mem/paged_kv.hpp"

namespace lmpeel::lm {

/// Softmax attention of one query over positions [0, n): writes the
/// normalised probabilities into prow[0..n) and the blended values into
/// ctx[0..hd).  Key/value rows are gathered from `spans` — each span's
/// `k`/`v` point at its first row and successive rows are `stride` floats
/// apart; `head_off` selects the head slice within a row.  forward()
/// passes one span over its packed QKV rows, a paged cache one span per
/// page.  Every score is the serial dot whether its key lands in a lane
/// group or in a span's leftover rows, and every ctx element adds its
/// terms in position order, so paged attention is bit-identical to the
/// serial reference by construction (DESIGN.md §14).
[[gnu::noinline]] void attend_row(const float* q, const mem::KvSpan* spans,
                                  std::size_t n_spans, std::size_t stride,
                                  std::size_t head_off, std::size_t n,
                                  std::size_t hd, float scale, float* prow,
                                  float* ctx);

namespace detail {
// The plain C++ lane policy of attend_row, callable on any build so tests
// can hold the SIMD path to it.
void attend_row_portable(const float* q, const mem::KvSpan* spans,
                         std::size_t n_spans, std::size_t stride,
                         std::size_t head_off, std::size_t n, std::size_t hd,
                         float scale, float* prow, float* ctx);
}  // namespace detail

/// Token + positional embedding for one row.
[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row);

}  // namespace lmpeel::lm
