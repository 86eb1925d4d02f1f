// Quantized weight storage (DESIGN.md §17).
//
// QTensor: per-tensor symmetric int8 — one f32 scale for the whole tensor,
// q = round(w / scale) clamped to [-127, 127] (symmetric: -128 unused so
// the range is sign-balanced), stored once, in the packed order every
// int8 kernel reads (quant::I8Packed, kernels.hpp).  HTensor: fp16
// storage with software round-to-nearest-even conversion (one
// implementation, so the round trip is deterministic everywhere), stored
// *transposed* ([out, in] rows of length k) so the dot kernels stream
// contiguous rows.
//
// All the float work around the int8 kernels — activation row
// quantization before, the single scale multiply + bias add after — lives
// in this TU, compiled without arch flags: every arch path calls the same
// machine code for it, which together with the exact-int32 kernels makes
// the whole int8 matmul bit-identical across scalar/AVX2/AVX-512.  On
// x86-64 activation quantization runs on the SSE2 lanes every x86-64 CPU
// has, which round exactly as the scalar lrintf loop other targets keep.
#pragma once

#include <cstdint>
#include <vector>

#include "lm/tensor.hpp"
#include "quant/kernels.hpp"

namespace lmpeel::quant {

/// f32 → fp16 bits, round-to-nearest-even (overflow → ±inf, NaN → 0x7e00).
std::uint16_t float_to_half(float value);
/// fp16 bits → f32, exact for every finite half.
float half_to_float(std::uint16_t h);

/// Per-tensor symmetric int8 weights of a [k, n] matmul, packed for the
/// kernels: `codes` is [⌈k/4⌉][i8_padded_cols(n)][4] (zero padding) and
/// `corr` holds 128·Σ_k w per padded column, the offset the AVX-512
/// kernel removes.  No other copy of the codes is kept.
struct QTensor {
  std::size_t n = 0;        ///< output columns of the source [k, n] matrix
  std::size_t k = 0;        ///< inner dimension
  float scale = 0.0f;       ///< dequant: w ≈ q · scale
  std::vector<std::int8_t> codes;
  std::vector<std::int32_t> corr;

  // Quantization-error summary for quant-check.
  float max_abs_error = 0.0f;
  double rms_error = 0.0;

  /// Quantizes a [k, n] weight matrix (the matmul layout).
  static QTensor from_matmul_weights(const lm::Tensor& w);
  /// Quantizes a [n, k] row-major matrix (tok_emb) row for row: column j
  /// of the packed matmul is row j of `w`.
  static QTensor from_rows(const lm::Tensor& w);
  /// Packs ready-made codes, `rows` being [n, k] row-major (row j holds
  /// column j's k codes); the error summary stays zero.
  static QTensor from_codes(std::size_t n, std::size_t k,
                            const std::int8_t* rows, float scale);

  /// Code of inner index c in column j.
  std::int8_t code(std::size_t j, std::size_t c) const {
    return codes[i8_code_index(c, j, i8_padded_cols(n))];
  }
  I8Packed packed() const { return {codes.data(), corr.data(), n, k}; }

  std::size_t bytes() const noexcept {
    return codes.size() * sizeof(std::int8_t) +
           corr.size() * sizeof(std::int32_t) + sizeof(float);
  }
};

/// fp16 weights, same transposed layout.
struct HTensor {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<std::uint16_t> h;  ///< n rows × k values

  float max_abs_error = 0.0f;
  double rms_error = 0.0;

  static HTensor from_matmul_weights(const lm::Tensor& w);
  static HTensor from_rows(const lm::Tensor& w);

  std::size_t bytes() const noexcept {
    return h.size() * sizeof(std::uint16_t);
  }
};

/// Quantizes one activation row: scale = max|a| / 127, q = round(a/scale)
/// (all-zero rows get scale 0 and zero codes).  Deterministic shared
/// implementation — every arch path runs this exact code.
void quantize_row_i8(const float* a, std::size_t k, std::int8_t* q,
                     float& scale);

/// Reusable buffers for the fused matmuls (avoids per-call allocation on
/// the decode path).
struct QuantScratch {
  std::vector<std::int8_t> qa;
  std::vector<float> a_scale;
  std::vector<std::int32_t> acc;
};

/// out[m, n] = dequant(quantize(a) · w) (+ bias row broadcast when
/// non-null).  `a` is [m, k]; `wt` holds the packed weights.  The int8
/// accumulations come from `ks` (arch-specific speed, identical int32);
/// quantization and the final out = acc · (a_scale·w_scale) + bias run
/// here, shared across archs.
void qmatmul(const lm::Tensor& a, const QTensor& wt, const lm::Tensor* bias,
             const KernelSet& ks, QuantScratch& scratch, lm::Tensor& out);

/// fp16 variant: out[m, n] = a · half(wt)ᵀ (+ bias).  Deterministic per
/// arch (f32 accumulation order is the kernel's own).
void hmatmul(const lm::Tensor& a, const HTensor& wt, const lm::Tensor* bias,
             const KernelSet& ks, lm::Tensor& out);

}  // namespace lmpeel::quant
