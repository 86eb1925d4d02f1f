// Portable scalar kernels — the reference the SIMD tables must match
// exactly (int8) and the fallback every machine can run.  This TU gets no
// -m flags.  kernels() lives here too so there is exactly one dispatch
// point.
#include "quant/kernels.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace lmpeel::quant {

namespace {

void i8_gemm_scalar(const std::int8_t* qa, std::size_t m, const I8Packed& w,
                    std::int32_t* acc) {
  // Signed activations against the packed codes, so no offset and no
  // correction enter.  Each row keeps one int32 sum per packed byte
  // position (column × k-phase), so a group's pass is one contiguous
  // multiply-add over its codes, which the compiler vectorizes on the
  // baseline ISA; the four phases of a column fold at the end.  A short
  // last group meets zero codes; activation bytes past k are never read.
  const std::size_t n = w.n, k = w.k;
  const std::size_t span = i8_padded_cols(n) * kI8PackK;
  thread_local std::vector<std::int32_t> lanes;
  lanes.resize(span);
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* a = qa + i * k;
    std::fill(lanes.begin(), lanes.end(), 0);
    std::int32_t* lp = lanes.data();
    for (std::size_t g = 0; g < i8_k_groups(k); ++g) {
      std::int16_t ag[kI8PackK] = {};
      for (std::size_t r = 0; r < kI8PackK && g * kI8PackK + r < k; ++r) {
        ag[r] = a[g * kI8PackK + r];
      }
      const std::int8_t* b = w.codes + g * span;
      for (std::size_t x = 0; x < span; x += kI8PackK) {
        for (std::size_t r = 0; r < kI8PackK; ++r) {
          // |a·w| ≤ 127², so the product is exact in 16 bits.
          lp[x + r] += static_cast<std::int16_t>(ag[r] * b[x + r]);
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t* p = lp + j * kI8PackK;
      acc[i * n + j] = p[0] + p[1] + p[2] + p[3];
    }
  }
}

// Software fp16→f32 widening (exact for every finite half).  Shared with
// qtensor.cpp via quant::half_to_float; duplicated here as a local so this
// TU stays dependency-free for the hot loop.
float h2f(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t man = h & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0) {
    if (man == 0) {
      bits = sign;
    } else {
      int k = 0;
      while ((man & 0x400u) == 0) {
        man <<= 1;
        ++k;
      }
      bits = sign | (static_cast<std::uint32_t>(113 - k) << 23) |
             ((man & 0x3ffu) << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7f800000u | (man << 13);
  } else {
    bits = sign | ((exp + 112u) << 23) | (man << 13);
  }
  float out;
  __builtin_memcpy(&out, &bits, sizeof(out));
  return out;
}

void f16_gemm_scalar(const float* a, std::size_t m, const std::uint16_t* hbt,
                     std::size_t n, std::size_t k_len, float* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint16_t* b = hbt + j * k_len;
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k_len;
      float sum = 0.0f;
      for (std::size_t k = 0; k < k_len; ++k) sum += arow[k] * h2f(b[k]);
      out[i * n + j] = sum;
    }
  }
}

}  // namespace

namespace detail {

const KernelSet& scalar_kernels() {
  static const KernelSet set{&i8_gemm_scalar, &f16_gemm_scalar};
  return set;
}

}  // namespace detail

const KernelSet& kernels(Arch arch) {
  LMPEEL_CHECK_MSG(arch_supported(arch),
                   "quant kernels requested for an unsupported arch");
  switch (arch) {
    case Arch::kAvx512:
      return detail::avx512_kernels();
    case Arch::kAvx2:
      return detail::avx2_kernels();
    case Arch::kScalar:
      break;
  }
  return detail::scalar_kernels();
}

}  // namespace lmpeel::quant
