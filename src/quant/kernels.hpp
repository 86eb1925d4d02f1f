// Arch-dispatched dequant-matmul inner kernels (DESIGN.md §17).
//
// The int8 kernel is the load-bearing one: products of int8 weights and
// int8 activations are exact in int32 and integer addition is associative,
// so every arch produces *identical* int32 accumulators for the same
// inputs — scalar, AVX2 and AVX-512 differ only in how many lanes they
// chew per cycle.  The float work (activation quantization before, a
// single scale multiply + bias add after) lives in one shared TU
// (qtensor.cpp), so the whole int8 matmul is bit-identical across archs.
//
// Every int8 kernel reads one packed weight layout (I8Packed), laid out
// for AVX-512 VNNI: k in groups of 4, columns padded to a multiple of 16,
// so one 64-byte load is the four k-values of sixteen columns — exactly
// one VPDPBUSD operand.  VPDPBUSD multiplies *unsigned* bytes by signed
// ones, so the AVX-512 kernel offsets activations to a+128 and subtracts
// the per-column correction 128·Σ_k w stored beside the codes: exact
// int32 again, with no horizontal reduce.  Scalar and AVX2 read the same
// codes with signed activations and ignore the correction.
//
// The fp16 kernels accumulate in f32 with arch-specific lane order, so
// they are deterministic per arch but not identical across archs — the
// A/B drift harness is the correctness bar there.
#pragma once

#include <cstddef>
#include <cstdint>

#include "quant/arch.hpp"

namespace lmpeel::quant {

/// Columns per packed vector: the int32 lanes of one 512-bit register.
inline constexpr std::size_t kI8PackCols = 16;
/// k-values per packed column group: the bytes one VPDPBUSD lane sums.
inline constexpr std::size_t kI8PackK = 4;

/// n rounded up to a whole packed vector.
constexpr std::size_t i8_padded_cols(std::size_t n) {
  return (n + kI8PackCols - 1) / kI8PackCols * kI8PackCols;
}
/// Number of 4-deep k groups covering k.
constexpr std::size_t i8_k_groups(std::size_t k) {
  return (k + kI8PackK - 1) / kI8PackK;
}
/// Index of weight (k-index c, column j) in the packed codes.
constexpr std::size_t i8_code_index(std::size_t c, std::size_t j,
                                    std::size_t n_pad) {
  return ((c / kI8PackK) * n_pad + j) * kI8PackK + c % kI8PackK;
}

/// Int8 weights of a [k, n] matmul as the kernels read them: `codes` is
/// [⌈k/4⌉][i8_padded_cols(n)][4], zero in the padding; `corr` holds
/// 128·Σ_k w for each of the i8_padded_cols(n) columns.
struct I8Packed {
  const std::int8_t* codes = nullptr;
  const std::int32_t* corr = nullptr;
  std::size_t n = 0;
  std::size_t k = 0;
};

/// acc[i*n + j] = sum_c qa[i*k + c] * w(c, j)  (int32 exact).  `qa` holds
/// m row-major activation rows of length w.k; `acc` is row-major [m, n].
using I8GemmFn = void (*)(const std::int8_t* qa, std::size_t m,
                          const I8Packed& w, std::int32_t* acc);

/// out[i*n + j] = sum_k a[i*k_len + k] * half_to_float(hbt[j*k_len + k]).
/// Widening fp16→f32 is exact; the f32 accumulation order is
/// arch-specific.
using F16GemmFn = void (*)(const float* a, std::size_t m,
                           const std::uint16_t* hbt, std::size_t n,
                           std::size_t k_len, float* out);

struct KernelSet {
  I8GemmFn i8_gemm = nullptr;
  F16GemmFn f16_gemm = nullptr;
};

/// The kernel table for `arch`; CHECK-fails unless arch_supported(arch).
const KernelSet& kernels(Arch arch);

namespace detail {
// One table per kernel TU; unsupported archs return the scalar table
// (kernels() never hands those out because arch_supported() is false).
const KernelSet& scalar_kernels();
const KernelSet& avx2_kernels();
const KernelSet& avx512_kernels();
}  // namespace detail

}  // namespace lmpeel::quant
