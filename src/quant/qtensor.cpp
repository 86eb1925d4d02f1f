#include "quant/qtensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/check.hpp"

namespace lmpeel::quant {

std::uint16_t float_to_half(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t mag = bits & 0x7fffffffu;
  if (mag > 0x7f800000u) return sign | 0x7e00u;   // NaN → quiet NaN
  if (mag >= 0x47800000u) return sign | 0x7c00u;  // overflow → inf
  if (mag >= 0x38800000u) {
    // Normal half: rebias exponent, round the 23→10 bit mantissa RNE.
    // A mantissa carry propagates into the exponent (and on to inf for
    // values ≥ 65520), which is exactly RNE behaviour.
    std::uint32_t h = (mag - 0x38000000u) >> 13;
    const std::uint32_t rem = mag & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
    return sign | static_cast<std::uint16_t>(h);
  }
  if (mag < 0x33000000u) return sign;  // below 2^-25 rounds to ±0
  // Subnormal half: h represents h · 2^-24.
  const std::uint32_t man = (mag & 0x7fffffu) | 0x800000u;
  const int shift = 126 - static_cast<int>(mag >> 23);
  std::uint32_t h = man >> shift;
  const std::uint32_t rem = man & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (h & 1u))) ++h;
  return sign | static_cast<std::uint16_t>(h);
}

float half_to_float(std::uint16_t h) {
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
  return std::bit_cast<float>(bits);
}

namespace {

/// Symmetric int8 code for one value given 1/scale (0 when scale is 0).
std::int8_t code_i8(float v, float inv_scale) {
  const float scaled = v * inv_scale;
  const long r = std::lrintf(scaled);
  return static_cast<std::int8_t>(std::clamp<long>(r, -127, 127));
}

float max_abs(const lm::Tensor& w) {
  float hi = 0.0f;
  const float* p = w.data();
  for (std::size_t i = 0; i < w.size(); ++i) hi = std::max(hi, std::abs(p[i]));
  return hi;
}

void finish_error_stats(const lm::Tensor& w, bool transposed, QTensor& t) {
  double sq = 0.0;
  float max_err = 0.0f;
  for (std::size_t j = 0; j < t.n; ++j) {
    for (std::size_t c = 0; c < t.k; ++c) {
      const float orig = transposed ? w.at(c, j) : w.at(j, c);
      const float deq = static_cast<float>(t.code(j, c)) * t.scale;
      const float err = std::abs(orig - deq);
      max_err = std::max(max_err, err);
      sq += static_cast<double>(err) * err;
    }
  }
  t.max_abs_error = max_err;
  t.rms_error =
      w.size() > 0 ? std::sqrt(sq / static_cast<double>(w.size())) : 0.0;
}

/// The packed tensor whose code at (inner c, column j) is code_of(c, j).
template <typename CodeOf>
QTensor pack(std::size_t n, std::size_t k, float scale, CodeOf code_of) {
  QTensor t;
  t.n = n;
  t.k = k;
  t.scale = scale;
  const std::size_t n_pad = i8_padded_cols(n);
  t.codes.assign(i8_k_groups(k) * n_pad * kI8PackK, 0);
  t.corr.assign(n_pad, 0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::int8_t q = code_of(c, j);
      t.codes[i8_code_index(c, j, n_pad)] = q;
      t.corr[j] += 128 * static_cast<std::int32_t>(q);
    }
  }
  return t;
}

}  // namespace

QTensor QTensor::from_matmul_weights(const lm::Tensor& w) {
  const float scale = max_abs(w) / 127.0f;
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  QTensor t = pack(w.cols(), w.rows(), scale,
                   [&](std::size_t c, std::size_t j) {
                     return code_i8(w.at(c, j), inv);
                   });
  finish_error_stats(w, /*transposed=*/true, t);
  return t;
}

QTensor QTensor::from_rows(const lm::Tensor& w) {
  const float scale = max_abs(w) / 127.0f;
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  QTensor t = pack(w.rows(), w.cols(), scale,
                   [&](std::size_t c, std::size_t j) {
                     return code_i8(w.at(j, c), inv);
                   });
  finish_error_stats(w, /*transposed=*/false, t);
  return t;
}

QTensor QTensor::from_codes(std::size_t n, std::size_t k,
                            const std::int8_t* rows, float scale) {
  return pack(n, k, scale, [&](std::size_t c, std::size_t j) {
    return rows[j * k + c];
  });
}

namespace {

void half_error_stats(const lm::Tensor& w, const std::vector<std::uint16_t>& h,
                      std::size_t n, std::size_t k, bool transposed,
                      float& max_err, double& rms) {
  double sq = 0.0;
  max_err = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < k; ++c) {
      const float orig = transposed ? w.at(c, j) : w.at(j, c);
      const float err = std::abs(orig - half_to_float(h[j * k + c]));
      max_err = std::max(max_err, err);
      sq += static_cast<double>(err) * err;
    }
  }
  rms = w.size() > 0 ? std::sqrt(sq / static_cast<double>(w.size())) : 0.0;
}

}  // namespace

HTensor HTensor::from_matmul_weights(const lm::Tensor& w) {
  HTensor t;
  t.k = w.rows();
  t.n = w.cols();
  t.h.resize(t.n * t.k);
  for (std::size_t j = 0; j < t.n; ++j) {
    std::uint16_t* row = t.h.data() + j * t.k;
    for (std::size_t c = 0; c < t.k; ++c) row[c] = float_to_half(w.at(c, j));
  }
  half_error_stats(w, t.h, t.n, t.k, /*transposed=*/true, t.max_abs_error,
                   t.rms_error);
  return t;
}

HTensor HTensor::from_rows(const lm::Tensor& w) {
  HTensor t;
  t.n = w.rows();
  t.k = w.cols();
  t.h.resize(t.n * t.k);
  for (std::size_t j = 0; j < t.n; ++j) {
    std::uint16_t* row = t.h.data() + j * t.k;
    const float* src = w.data() + j * t.k;
    for (std::size_t c = 0; c < t.k; ++c) row[c] = float_to_half(src[c]);
  }
  half_error_stats(w, t.h, t.n, t.k, /*transposed=*/false, t.max_abs_error,
                   t.rms_error);
  return t;
}

void quantize_row_i8(const float* a, std::size_t k, std::int8_t* q,
                     float& scale) {
  std::size_t c = 0;
  float hi = 0.0f;
#if defined(__SSE2__)
  // Max-abs in four lanes.  maxps returns its second operand when either
  // is NaN, so a NaN element leaves the running max alone, as std::max
  // does below; over non-NaN values the max is the same in any order.
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 hi4 = _mm_setzero_ps();
  for (; c + 4 <= k; c += 4) {
    hi4 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(a + c), abs_mask), hi4);
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, hi4);
  for (const float lane : lanes) hi = std::max(hi, lane);
#endif
  for (; c < k; ++c) hi = std::max(hi, std::abs(a[c]));
  scale = hi / 127.0f;
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  c = 0;
#if defined(__SSE2__)
  // cvtps2dq rounds to nearest-even under the default MXCSR, as lrintf
  // does.  |a·inv| stays near 127 unless inv is infinite, so the only
  // out-of-range inputs are NaN and ±inf: cvtps2dq gives INT32_MIN for
  // them, which the saturating packs and the clamp take to -127, where
  // lrintf's LONG_MIN lands too.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128i lo = _mm_set1_epi16(-127);
  const __m128i hi16 = _mm_set1_epi16(127);
  auto codes4 = [&](std::size_t at) {
    return _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(a + at), vinv));
  };
  for (; c + 16 <= k; c += 16) {
    __m128i w0 = _mm_packs_epi32(codes4(c), codes4(c + 4));
    __m128i w1 = _mm_packs_epi32(codes4(c + 8), codes4(c + 12));
    w0 = _mm_min_epi16(_mm_max_epi16(w0, lo), hi16);
    w1 = _mm_min_epi16(_mm_max_epi16(w1, lo), hi16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + c),
                     _mm_packs_epi16(w0, w1));
  }
#endif
  for (; c < k; ++c) q[c] = code_i8(a[c], inv);
}

void qmatmul(const lm::Tensor& a, const QTensor& wt, const lm::Tensor* bias,
             const KernelSet& ks, QuantScratch& scratch, lm::Tensor& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = wt.n;
  LMPEEL_CHECK(wt.k == k);
  LMPEEL_CHECK(out.rows() == m && out.cols() == n);
  if (bias != nullptr) {
    LMPEEL_CHECK(bias->rows() == 1 && bias->cols() == n);
  }
  scratch.qa.resize(m * k);
  scratch.a_scale.resize(m);
  scratch.acc.resize(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    quantize_row_i8(a.data() + i * k, k, scratch.qa.data() + i * k,
                    scratch.a_scale[i]);
  }
  ks.i8_gemm(scratch.qa.data(), m, wt.packed(), scratch.acc.data());
  for (std::size_t i = 0; i < m; ++i) {
    // One combined scale per row; a single f32 multiply per output keeps
    // the dequant rounding identical on every arch (the kernels only ever
    // produce exact int32).
    const float s = scratch.a_scale[i] * wt.scale;
    const std::int32_t* arow = scratch.acc.data() + i * n;
    float* orow = out.data() + i * n;
    if (bias != nullptr) {
      const float* b = bias->data();
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] = static_cast<float>(arow[j]) * s + b[j];
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] = static_cast<float>(arow[j]) * s;
      }
    }
  }
}

void hmatmul(const lm::Tensor& a, const HTensor& wt, const lm::Tensor* bias,
             const KernelSet& ks, lm::Tensor& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = wt.n;
  LMPEEL_CHECK(wt.k == k);
  LMPEEL_CHECK(out.rows() == m && out.cols() == n);
  if (bias != nullptr) {
    LMPEEL_CHECK(bias->rows() == 1 && bias->cols() == n);
  }
  ks.f16_gemm(a.data(), m, wt.h.data(), n, k, out.data());
  if (bias != nullptr) {
    const float* b = bias->data();
    for (std::size_t i = 0; i < m; ++i) {
      float* orow = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += b[j];
    }
  }
}

}  // namespace lmpeel::quant
