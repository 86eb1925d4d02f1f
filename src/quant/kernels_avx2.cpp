// AVX2 kernel table.  Compiled with -mavx2 -mf16c -ffp-contract=off (see
// src/CMakeLists.txt); falls back to the scalar table when the toolchain
// lacks those flags.
//
// int8 GEMM over the packed layout: a block of up to four activation
// rows × eight columns.  Per 4-deep k group, the codes of four columns
// (16 bytes) widen to 16-bit (vpmovsxbw) and multiply-add (vpmaddwd)
// against the row's four activations, broadcast as 16-bit, leaving two
// int32 partial sums per column; one vphaddd per row and block folds the
// pairs.  Activations stay signed, so the packed correction is unused.
// Integer adds are associative, so the result equals the scalar loop bit
// for bit.
#include "quant/kernels.hpp"

#ifdef __AVX2__

#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace lmpeel::quant {

namespace {

constexpr std::size_t kRows = 4;   // activation rows per register block
constexpr std::size_t kCols = 8;   // output columns per register block

// out[r*n + c] for r < R, c < cols (≤ kCols) over `groups` k groups; `a`
// holds R rows of 16-bit activations with row stride `a_stride`, `w`
// points at the block's first column in group 0.
template <std::size_t R>
void block_avx2(const std::int16_t* a, std::size_t a_stride,
                const std::int8_t* w, std::size_t w_stride,
                std::size_t groups, std::int32_t* out, std::size_t n,
                std::size_t cols) {
  __m256i lo[R], hi[R];
  for (std::size_t r = 0; r < R; ++r) {
    lo[r] = _mm256_setzero_si256();
    hi[r] = _mm256_setzero_si256();
  }
  for (std::size_t g = 0; g < groups; ++g) {
    const std::int8_t* wg = w + g * w_stride;
    const __m256i b0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wg)));
    const __m256i b1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wg + 16)));
    for (std::size_t r = 0; r < R; ++r) {
      long long four;
      __builtin_memcpy(&four, a + r * a_stride + g * kI8PackK, sizeof(four));
      const __m256i va = _mm256_set1_epi64x(four);
      lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(b0, va));
      hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(b1, va));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    // hadd gives columns (0,1,4,5 | 2,3,6,7); the permute restores order.
    const __m256i sums = _mm256_permute4x64_epi64(
        _mm256_hadd_epi32(lo[r], hi[r]), 0xD8);
    std::int32_t* dst = out + r * n;
    if (cols == kCols) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), sums);
    } else {
      alignas(32) std::int32_t tmp[kCols];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), sums);
      for (std::size_t c = 0; c < cols; ++c) dst[c] = tmp[c];
    }
  }
}

using BlockFn = void (*)(const std::int16_t*, std::size_t, const std::int8_t*,
                         std::size_t, std::size_t, std::int32_t*, std::size_t,
                         std::size_t);
constexpr BlockFn kBlocks[kRows] = {&block_avx2<1>, &block_avx2<2>,
                                    &block_avx2<3>, &block_avx2<4>};

void i8_gemm_avx2(const std::int8_t* qa, std::size_t m, const I8Packed& w,
                  std::int32_t* acc) {
  const std::size_t n = w.n, k = w.k, groups = i8_k_groups(k);
  const std::size_t a_stride = groups * kI8PackK;
  const std::size_t w_stride = i8_padded_cols(n) * kI8PackK;
  // Activations widened once per call, rows zero-padded to whole groups.
  thread_local std::vector<std::int16_t> a16;
  a16.assign(m * a_stride, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < k; ++c) a16[i * a_stride + c] = qa[i * k + c];
  }
  for (std::size_t j = 0; j < n; j += kCols) {
    const std::size_t cols = std::min(kCols, n - j);
    for (std::size_t i = 0; i < m; i += kRows) {
      const std::size_t rows = std::min(kRows, m - i);
      kBlocks[rows - 1](a16.data() + i * a_stride, a_stride,
                        w.codes + j * kI8PackK, w_stride, groups,
                        acc + i * n + j, n, cols);
    }
  }
}

float hsum_ps(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

void f16_gemm_avx2(const float* a, std::size_t m, const std::uint16_t* hbt,
                   std::size_t n, std::size_t k_len, float* out) {
  const std::size_t k_vec = k_len & ~std::size_t{7};
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint16_t* b = hbt + j * k_len;
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k_len;
      __m256 vacc = _mm256_setzero_ps();
      for (std::size_t k = 0; k < k_vec; k += 8) {
        const __m256 vb = _mm256_cvtph_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + k)));
        const __m256 va = _mm256_loadu_ps(arow + k);
        vacc = _mm256_add_ps(vacc, _mm256_mul_ps(va, vb));
      }
      float sum = hsum_ps(vacc);
      for (std::size_t k = k_vec; k < k_len; ++k) {
        sum += arow[k] * _cvtsh_ss(b[k]);
      }
      out[i * n + j] = sum;
    }
  }
}

}  // namespace

namespace detail {

const KernelSet& avx2_kernels() {
  static const KernelSet set{&i8_gemm_avx2, &f16_gemm_avx2};
  return set;
}

}  // namespace detail

}  // namespace lmpeel::quant

#else  // !__AVX2__

namespace lmpeel::quant::detail {

const KernelSet& avx2_kernels() { return scalar_kernels(); }

}  // namespace lmpeel::quant::detail

#endif
