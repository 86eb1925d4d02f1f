// Minimal dense float tensor + the handful of kernels the transformer
// needs.  Row-major storage; shapes up to rank 3.  These are deliberately
// straightforward loops: at d_model <= 128 the working sets live in L1/L2
// and the compiler vectorises the inner products (the tied head carries
// its own SIMD lanes); no BLAS dependency.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lmpeel::lm {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  std::span<float> row(std::size_t r) {
    return std::span<float>(data_).subspan(r * cols_, cols_);
  }
  std::span<const float> row(std::size_t r) const {
    return std::span<const float>(data_).subspan(r * cols_, cols_);
  }

  void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Kaiming/Xavier-ish init: N(0, std).
  void randomize(util::Rng& rng, float std);

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<float> data_;
};

// out[M,N] = a[M,K] * b[K,N]
void matmul(const Tensor& a, const Tensor& b, Tensor& out);
// out[M,N] = a[M,K] * bt^T where bt is [N,K] row-major.  out(i, j)
// accumulates a(i, c) * bt(j, c) for c ascending from 0.0f — bit-identical
// to the naive per-element dot product for every M.  This is the one
// weight-tied output head: training forward, next_logits, prefill and
// batched decode all run it.  SIMD lanes span rows of `a`; bt is read in
// place, never copied.
void matmul_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out);
namespace detail {
// The plain C++ lane policy of matmul_transposed_b, callable on any build
// so tests can hold the SIMD path to it.
void matmul_transposed_b_portable(const Tensor& a, const Tensor& bt,
                                  Tensor& out);
}  // namespace detail
// out[M,K] += grad[M,N] * b^T[N,K]   (dA of matmul)
void matmul_grad_a(const Tensor& grad, const Tensor& b, Tensor& da);
// out[K,N] += a^T * grad             (dB of matmul)
void matmul_grad_b(const Tensor& a, const Tensor& grad, Tensor& db);

/// y = x * gamma + beta after per-row standardisation; returns cached
/// inverse-stddev and means needed for the backward pass.
struct LayerNormCache {
  std::vector<float> mean;
  std::vector<float> inv_std;
};
void layer_norm(const Tensor& x, std::span<const float> gamma,
                std::span<const float> beta, Tensor& y, LayerNormCache& cache);
void layer_norm_backward(const Tensor& x, std::span<const float> gamma,
                         const Tensor& dy, const LayerNormCache& cache,
                         Tensor& dx, std::span<float> dgamma,
                         std::span<float> dbeta);

/// dst += src elementwise (the residual add); sizes must match.
void add_into(Tensor& dst, const Tensor& src);

/// GELU (tanh approximation) and its derivative-times-grad.  The tanh is
/// detail::tanhf_scalar, so neither calls libm; gelu runs it on SIMD lanes
/// over full groups of 8 elements, bit-identical to the scalar twin.
void gelu(const Tensor& x, Tensor& y);
void gelu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);
namespace detail {
/// glibc's tanhf: fdlibm's s_tanhf.c over its s_expm1f.c as glibc 2.36
/// builds them (float arithmetic, nothing fused).  Equal to that libm's
/// tanhf on every float the exhaustive test checks.
float tanhf_scalar(float x);
/// out[i] = tanhf_scalar(x[i]) for i < n: GELU's lane tanh over full
/// groups of 8, the scalar twin over the tail.
void tanhf_lanes(const float* x, std::size_t n, float* out);
}  // namespace detail

/// Row-wise softmax in place.
void softmax_rows(Tensor& x);

}  // namespace lmpeel::lm
