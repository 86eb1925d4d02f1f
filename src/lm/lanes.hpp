// Eight-float lane policies for the two SIMD kernel TUs: lm/tensor.cpp (the
// tied head, lanes across activation rows; GELU, lanes across elements) and
// lm/attention.cpp (attend_rows, lanes across keys).  Only those TUs
// include this header.
// Both are built with the same probed arch flags and -ffp-contract=off
// (src/CMakeLists.txt), so mul and add stay separate operations (no FMA)
// and every lane rounds exactly as the scalar expression `acc + a * b`
// does.
#pragma once

#include <algorithm>
#include <cstddef>

#if defined(__AVX2__)  // also set by -mavx512f
#include <immintrin.h>
#endif

namespace lmpeel::lm {

#if defined(__AVX2__)
struct Lanes8 {
  static constexpr std::size_t kWidth = 8;
  using V = __m256;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V mul(V a, float b) { return _mm256_mul_ps(a, _mm256_set1_ps(b)); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V mul_add(V acc, V a, float b) {
    return _mm256_add_ps(acc, mul(a, b));
  }
  static V sub(V a, float b) { return _mm256_sub_ps(a, _mm256_set1_ps(b)); }
  /// Per lane std::max(acc, x), i.e. x > acc ? x : acc: MAXPS returns its
  /// second operand when either is NaN, so a NaN x leaves acc as it is.
  static V max(V acc, V x) { return _mm256_max_ps(x, acc); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  /// Lane r of the result is k[r * stride].
  static V column(const float* k, std::size_t stride) {
    return _mm256_setr_ps(k[0], k[stride], k[2 * stride], k[3 * stride],
                          k[4 * stride], k[5 * stride], k[6 * stride],
                          k[7 * stride]);
  }
  /// cols[j] = column(k + j, stride) for j < 4: an 8x4 in-register
  /// transpose of the rows k + r * stride.
  static void columns4(const float* k, std::size_t stride, V cols[4]) {
    // t[r] = row r's four floats | row r + 4's four floats.
    V t[4];
    for (std::size_t r = 0; r < 4; ++r) {
      t[r] = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm_loadu_ps(k + r * stride)),
          _mm_loadu_ps(k + (r + 4) * stride), 1);
    }
    const V lo01 = _mm256_unpacklo_ps(t[0], t[1]);
    const V hi01 = _mm256_unpackhi_ps(t[0], t[1]);
    const V lo23 = _mm256_unpacklo_ps(t[2], t[3]);
    const V hi23 = _mm256_unpackhi_ps(t[2], t[3]);
    cols[0] = _mm256_shuffle_ps(lo01, lo23, _MM_SHUFFLE(1, 0, 1, 0));
    cols[1] = _mm256_shuffle_ps(lo01, lo23, _MM_SHUFFLE(3, 2, 3, 2));
    cols[2] = _mm256_shuffle_ps(hi01, hi23, _MM_SHUFFLE(1, 0, 1, 0));
    cols[3] = _mm256_shuffle_ps(hi01, hi23, _MM_SHUFFLE(3, 2, 3, 2));
  }
};
#endif

/// Plain C++ lanes: the fallback on any target, and the reference the
/// intrinsic policy is tested against.
struct PortableLanes {
  static constexpr std::size_t kWidth = 8;
  struct V {
    float x[kWidth];
  };
  static V zero() { return V{}; }
  static V set1(float x) {
    V v;
    std::fill_n(v.x, kWidth, x);
    return v;
  }
  static V load(const float* p) {
    V v;
    std::copy_n(p, kWidth, v.x);
    return v;
  }
  static V mul(V a, float b) {
    for (float& x : a.x) x *= b;
    return a;
  }
  static V mul(V a, V b) {
    for (std::size_t l = 0; l < kWidth; ++l) a.x[l] *= b.x[l];
    return a;
  }
  static V add(V a, V b) {
    for (std::size_t l = 0; l < kWidth; ++l) a.x[l] += b.x[l];
    return a;
  }
  static V mul_add(V acc, V a, float b) {
    for (std::size_t l = 0; l < kWidth; ++l) acc.x[l] += a.x[l] * b;
    return acc;
  }
  static V sub(V a, float b) {
    for (float& x : a.x) x -= b;
    return a;
  }
  static V max(V acc, V x) {
    for (std::size_t l = 0; l < kWidth; ++l) {
      acc.x[l] = std::max(acc.x[l], x.x[l]);
    }
    return acc;
  }
  static void store(float* p, V v) { std::copy_n(v.x, kWidth, p); }
  static V column(const float* k, std::size_t stride) {
    V v;
    for (std::size_t r = 0; r < kWidth; ++r) v.x[r] = k[r * stride];
    return v;
  }
  static void columns4(const float* k, std::size_t stride, V cols[4]) {
    for (std::size_t j = 0; j < 4; ++j) cols[j] = column(k + j, stride);
  }
};

}  // namespace lmpeel::lm
