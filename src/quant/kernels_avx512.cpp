// AVX-512 kernel table.  Compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512dq -mavx512vnni -mf16c -ffp-contract=off; falls back to the
// scalar table when the toolchain lacks those flags.
//
// int8 GEMM: VPDPBUSD over a register block of up to four activation
// rows × four 16-column vectors.  One 64-byte load of the packed codes is
// the four k-values of sixteen columns; each row broadcasts its four
// activations, offset to unsigned (a+128), so one VPDPBUSD adds four
// products per column straight into that column's int32 lane.  The
// offset adds 128·Σ_k w to every column, which the stored correction
// removes once per output — exact int32, no horizontal reduce, and the
// same result as the scalar loop bit for bit.
#include "quant/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <vector>

namespace lmpeel::quant {

namespace {

constexpr std::size_t kRows = 4;  // activation rows per register block
constexpr std::size_t kVecs = 4;  // 16-column vectors per register block
constexpr std::size_t kVecBytes = kI8PackCols * kI8PackK;

// out[r*n + c] for r < R, c < cols (≤ V·16) over `groups` k groups; `a`
// holds R rows of offset activations with row stride `a_stride`, `w` and
// `corr` point at the block's first column.
template <std::size_t R, std::size_t V>
void block_avx512(const std::uint8_t* a, std::size_t a_stride,
                  const std::int8_t* w, std::size_t w_stride,
                  std::size_t groups, const std::int32_t* corr,
                  std::int32_t* out, std::size_t n, std::size_t cols) {
  __m512i sums[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) sums[r][v] = _mm512_setzero_si512();
  }
  for (std::size_t g = 0; g < groups; ++g) {
    const std::int8_t* wg = w + g * w_stride;
    __m512i b[V];
    for (std::size_t v = 0; v < V; ++v) {
      b[v] = _mm512_loadu_si512(wg + v * kVecBytes);
    }
    for (std::size_t r = 0; r < R; ++r) {
      int four;
      __builtin_memcpy(&four, a + r * a_stride + g * kI8PackK, sizeof(four));
      const __m512i va = _mm512_set1_epi32(four);
      for (std::size_t v = 0; v < V; ++v) {
        sums[r][v] = _mm512_dpbusd_epi32(sums[r][v], va, b[v]);
      }
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    const std::size_t col = v * kI8PackCols;
    const std::size_t live = std::min(kI8PackCols, cols - col);
    const auto mask = static_cast<__mmask16>((1u << live) - 1u);
    const __m512i c = _mm512_loadu_si512(corr + col);
    for (std::size_t r = 0; r < R; ++r) {
      _mm512_mask_storeu_epi32(out + r * n + col, mask,
                               _mm512_sub_epi32(sums[r][v], c));
    }
  }
}

using BlockFn = void (*)(const std::uint8_t*, std::size_t, const std::int8_t*,
                         std::size_t, std::size_t, const std::int32_t*,
                         std::int32_t*, std::size_t, std::size_t);

template <std::size_t R>
constexpr std::array<BlockFn, kVecs> row_blocks() {
  return {&block_avx512<R, 1>, &block_avx512<R, 2>, &block_avx512<R, 3>,
          &block_avx512<R, 4>};
}
constexpr std::array<std::array<BlockFn, kVecs>, kRows> kBlocks = {
    row_blocks<1>(), row_blocks<2>(), row_blocks<3>(), row_blocks<4>()};

void i8_gemm_avx512(const std::int8_t* qa, std::size_t m, const I8Packed& w,
                    std::int32_t* acc) {
  const std::size_t n = w.n, k = w.k, groups = i8_k_groups(k);
  const std::size_t a_stride = groups * kI8PackK;
  const std::size_t w_stride = i8_padded_cols(n) * kI8PackK;
  const std::size_t n_vecs = i8_padded_cols(n) / kI8PackCols;
  // Activations offset to unsigned once per call (a ^ 0x80 == a + 128),
  // rows padded to whole groups; the padding meets zero codes.
  thread_local std::vector<std::uint8_t> au8;
  au8.resize(m * a_stride);
  for (std::size_t i = 0; i < m; ++i) {
    std::uint8_t* dst = au8.data() + i * a_stride;
    const std::int8_t* src = qa + i * k;
    std::size_t c = 0;
    for (; c + 64 <= k; c += 64) {
      _mm512_storeu_si512(dst + c,
                          _mm512_xor_si512(_mm512_loadu_si512(src + c),
                                           _mm512_set1_epi8(-128)));
    }
    for (; c < k; ++c) dst[c] = static_cast<std::uint8_t>(src[c] ^ 0x80);
    for (; c < a_stride; ++c) dst[c] = 0;
  }
  for (std::size_t v = 0; v < n_vecs; v += kVecs) {
    const std::size_t vecs = std::min(kVecs, n_vecs - v);
    const std::size_t j = v * kI8PackCols;
    for (std::size_t i = 0; i < m; i += kRows) {
      const std::size_t rows = std::min(kRows, m - i);
      kBlocks[rows - 1][vecs - 1](au8.data() + i * a_stride, a_stride,
                                  w.codes + j * kI8PackK, w_stride, groups,
                                  w.corr + j, acc + i * n + j, n, n - j);
    }
  }
}

// GCC 12's avx512fintrin.h seeds _mm512_cvtph_ps and _mm512_reduce_add_ps
// with a self-initialised `__m512 __Y = __Y;`, which -Wmaybe-uninitialized
// reports once inlined here; the lanes it names are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void f16_gemm_avx512(const float* a, std::size_t m, const std::uint16_t* hbt,
                     std::size_t n, std::size_t k_len, float* out) {
  const std::size_t k_vec = k_len & ~std::size_t{15};
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint16_t* b = hbt + j * k_len;
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k_len;
      __m512 vacc = _mm512_setzero_ps();
      for (std::size_t k = 0; k < k_vec; k += 16) {
        const __m512 vb = _mm512_cvtph_ps(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k)));
        const __m512 va = _mm512_loadu_ps(arow + k);
        vacc = _mm512_add_ps(vacc, _mm512_mul_ps(va, vb));
      }
      float sum = _mm512_reduce_add_ps(vacc);
      for (std::size_t k = k_vec; k < k_len; ++k) {
        sum += arow[k] * _cvtsh_ss(b[k]);
      }
      out[i * n + j] = sum;
    }
  }
}
#pragma GCC diagnostic pop

}  // namespace

namespace detail {

const KernelSet& avx512_kernels() {
  static const KernelSet set{&i8_gemm_avx512, &f16_gemm_avx512};
  return set;
}

}  // namespace detail

}  // namespace lmpeel::quant

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VNNI__)

namespace lmpeel::quant::detail {

const KernelSet& avx512_kernels() { return scalar_kernels(); }

}  // namespace lmpeel::quant::detail

#endif
