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
// width, which rows share a call, or the build's arch flags.  The softmax's
// exp is the kernel's own (detail::expf_scalar, glibc's expf algorithm with
// explicit FMAs), so attention does not depend on the host's libm either.
// The f32 tied head is not here: it is lm::matmul_transposed_b, whose every
// output is the serial dot product whatever the row count, so one call
// serves a single row or a batch.
#pragma once

#include <cstddef>
#include <span>

#include "lm/tensor.hpp"
#include "mem/paged_kv.hpp"

namespace lmpeel::lm {

/// One query row of an attend_rows call.  Key/value rows of positions
/// [0, n) are gathered from `spans` in order: each span's `k`/`v` point at
/// its first row, and successive rows are the call's `stride` floats apart.
/// The spans may hold more than n rows; only the first n are read.
struct AttendQuery {
  const float* q = nullptr;  ///< hd floats
  std::span<const mem::KvSpan> spans;
  std::size_t n = 0;
  float* prow = nullptr;  ///< out: the n normalised probabilities
  float* ctx = nullptr;   ///< out: the hd blended values
};

/// Softmax attention of every row over its own positions: writes each
/// row's probabilities to prow[0..n) and its blended values to
/// ctx[0..hd).  `head_off` selects the head slice within a K/V row.
/// forward() passes its T causal rows over one span of packed QKV rows;
/// the KV-cached paths pass every row of a decode step or prefill chunk
/// with its cache's page list.  Rows whose leading spans are the same
/// pages (pointer-equal `k`, equal `tokens`) have those keys scored
/// together: each 8-key group is transposed once and scored for every row
/// whose length covers it.  Every score is nevertheless the serial dot,
/// the softmax sum adds in position order, and every ctx element adds its
/// terms in position order, so each row's output is bit-identical to
/// attending it alone, whatever rows share the call (DESIGN.md §14).
/// Scratch is per call, so concurrent calls on different rows are safe.
[[gnu::noinline]] void attend_rows(std::span<const AttendQuery> rows,
                                   std::size_t stride, std::size_t head_off,
                                   std::size_t hd, float scale);

namespace detail {
// The plain C++ lane policy of attend_rows, callable on any build so tests
// can hold the SIMD path to it.
void attend_rows_portable(std::span<const AttendQuery> rows,
                          std::size_t stride, std::size_t head_off,
                          std::size_t hd, float scale);

/// glibc's expf (the 2.27+ algorithm: a 32-entry 2^(i/32) table and a
/// cubic in double), with std::fma exactly where glibc's x86-64 FMA
/// variant fuses.  The softmax's exp; equal to that libm's expf on every
/// float the exhaustive test checks.
float expf_scalar(float x);

/// out[i] = expf_scalar(x[i]) for i < n: the softmax's lane exp over full
/// groups of 8, the scalar twin over the tail.
void expf_lanes(const float* x, std::size_t n, float* out);
}  // namespace detail

/// Token + positional embedding for one row.
[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row);

}  // namespace lmpeel::lm
