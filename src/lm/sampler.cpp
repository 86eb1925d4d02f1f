// This TU gets the probed SIMD flags and -ffp-contract=off (see
// src/CMakeLists.txt), like lm/tensor.cpp and lm/attention.cpp: the scans
// and the exp run on lanes, and every fused operation is an explicit one.
#include "lm/sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "lm/language_model.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

// ---- exp -------------------------------------------------------------------
// glibc's double exp data (e_exp_data.c, EXP_TABLE_BITS = 7, N = 128).
// With x = k·ln2/N + r, 2^(k/N) ≈ scale · (1 + tail), where
// kExpTab[2i] = bits(tail of 2^(i/N)) and kExpTab[2i + 1] =
// bits(2^(i/N)) - (i << 45), so bits(scale) is kExpTab[2(k % N) + 1] +
// (k << 45) for every k the non-special range reaches.
alignas(64) constexpr std::uint64_t kExpTab[256] = {
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e,
    0x3feff63da9fb3335, 0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85, 0x3c8cd2523567f613,
    0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399,
    0x3fefbe3ecac6f383, 0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7, 0x3c3ebe3d702f9cd1,
    0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55,
    0x3fef8abdc06c31cc, 0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51, 0xbc801b15eaa59348,
    0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26,
    0x3fef5be084045cd4, 0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d, 0x3c8a6f4144a6c38d,
    0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d,
    0x3fef31ce4fb2a63f, 0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381, 0x3c82f7e16d09ab31,
    0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f,
    0x3fef0cafa93e2f56, 0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831, 0x3c8fdd395dd3f84a,
    0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e,
    0x3feeecae6d05d866, 0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5, 0x3c859f48a72a4c6d,
    0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b,
    0x3feed1f5d950a897, 0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057, 0x3c6ecce1daa10379,
    0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077,
    0x3feebcb299fddd0d, 0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642, 0xbc78dec6bd0f385f,
    0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05,
    0x3feead12d497c7fd, 0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7, 0x3c9432e62b64c035,
    0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae,
    0x3feea34634ccc320, 0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973, 0xbc93b3efbf5e2228,
    0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851,
    0x3fee9f7df9519484, 0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174, 0xbc8619321e55e68a,
    0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b,
    0x3feea1ed0130c132, 0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12, 0xbc9369b6f13b3734,
    0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00,
    0x3feeaac7d98a6699, 0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c, 0x3c7bf68359f35f44,
    0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959,
    0x3feeba44cbc8520f, 0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba, 0x3c71affc2b91ce27,
    0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5,
    0x3feed09bec4a2d33, 0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358, 0x3c8469846e735ab3,
    0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa,
    0x3feeee07298db666, 0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a, 0xbc68d6f438ad9334,
    0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac,
    0x3fef12c25bd71e09, 0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a, 0x3c84e08fd10959ac,
    0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2,
    0x3fef3f0b555dc3fa, 0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2, 0x3c74a385a63d07a7,
    0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b,
    0x3fef7321f301b460, 0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129, 0x3c74b604603a88d3,
    0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d,
    0x3fefaf482d8e67f1, 0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97, 0x3c8a64a931d185ee,
    0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89,
    0x3feff3c22b8f71f1,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+7;      // N / ln 2
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;   // -ln 2 / N, high
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;  // -ln 2 / N, low
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kShift = 0x1.8p52;  // z + kShift rounds z to an integer
// exp(r) - 1 ≈ r + kC2·r² + kC3·r³ + kC4·r⁴ + kC5·r⁵ for |r| ≤ ln2/2N.
constexpr double kC2 = 0x1.ffffffffffdbdp-2;
constexpr double kC3 = 0x1.555555555543cp-3;
constexpr double kC4 = 0x1.55555cf172b91p-5;
constexpr double kC5 = 0x1.1111167a4d017p-7;
// Exponent fields: below kTinyTop (|x| < 2^-54) exp(x) rounds to 1 + x;
// from kLargeTop (|x| ≥ 512) the scale may leave the normal range; from
// kHugeTop (|x| ≥ 1024) the result is 0 or inf outright.
constexpr std::uint32_t kTinyTop = 0x3c9;
constexpr std::uint32_t kLargeTop = 0x408;
constexpr std::uint32_t kHugeTop = 0x409;

/// e_exp.c's specialcase: 512 ≤ |x| < 1024, where the scale's exponent
/// over- or underflows.  Subnormal results are rounded once, in the
/// 1 + y representation, before the final scaling.  Where glibc computes
/// scale · tmp once for two uses it is not fused, so neither is it here.
double exp_special(double tmp, std::uint64_t sbits, std::uint64_t ki) {
  if ((ki & 0x80000000u) == 0) {  // k > 0
    const double scale = std::bit_cast<double>(sbits - (1009ull << 52));
    return 0x1p1009 * std::fma(scale, tmp, scale);
  }
  const double scale = std::bit_cast<double>(sbits + (1022ull << 52));
  const double scaled_tmp = scale * tmp;
  double y = scale + scaled_tmp;
  if (y < 1.0) {
    double lo = scale - y + scaled_tmp;
    const double hi = 1.0 + y;
    lo = 1.0 - hi + y + lo;
    y = (hi + lo) - 1.0;
    if (y == 0.0) y = 0.0;  // never -0
  }
  return 0x1p-1022 * y;
}

#if defined(__AVX2__)
#if !defined(__FMA__)
#error "the AVX2 exp needs FMA; src/CMakeLists.txt pairs -mavx2 with -mfma"
#endif
/// exp_scalar on 4 lanes for |x| in [2^-54, 512): the same table, the
/// same steps and the same eight fused operations.  Other lanes compute
/// garbage; the caller recomputes them with the scalar twin.
__m256d exp_lanes4(__m256d x) {
  const __m256d shift = _mm256_set1_pd(kShift);
  const __m256d kd_shifted =
      _mm256_fmadd_pd(x, _mm256_set1_pd(kInvLn2N), shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  __m256d r = _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2HiN), x);
  r = _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2LoN), r);
  const __m256i idx =
      _mm256_slli_epi64(_mm256_and_si256(ki, _mm256_set1_epi64x(127)), 1);
  const auto* tab = reinterpret_cast<const long long*>(kExpTab);
  const __m256d tail =
      _mm256_castsi256_pd(_mm256_i64gather_epi64(tab, idx, 8));
  const __m256d scale = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_i64gather_epi64(tab + 1, idx, 8), _mm256_slli_epi64(ki, 45)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d tmp = _mm256_fmadd_pd(
      r2, _mm256_fmadd_pd(r, _mm256_set1_pd(kC3), _mm256_set1_pd(kC2)),
      _mm256_add_pd(tail, r));
  tmp = _mm256_fmadd_pd(
      _mm256_mul_pd(r2, r2),
      _mm256_fmadd_pd(r, _mm256_set1_pd(kC5), _mm256_set1_pd(kC4)), tmp);
  return _mm256_fmadd_pd(scale, tmp, scale);
}

/// Bit l set where lane l of x is outside exp_lanes4's range: |x| < 2^-54,
/// |x| ≥ 512, or NaN.
int exp_special_lanes(__m256d x) {
  const __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  const __m256d in_range = _mm256_and_pd(
      _mm256_cmp_pd(ax, _mm256_set1_pd(0x1p-54), _CMP_GE_OQ),
      _mm256_cmp_pd(ax, _mm256_set1_pd(512.0), _CMP_LT_OQ));
  return ~_mm256_movemask_pd(in_range) & 0xf;
}
#endif

// ---- scans -----------------------------------------------------------------

/// The serial fold hi = std::max(hi, l) from -inf: the largest non-NaN
/// logit.  On lanes a ±0 tie can pick the other zero; every caller only
/// subtracts hi from the logits, where the sign of a zero hi changes no
/// difference but the sign of an exact zero one, and exp(±0) = 1.
float max_logit(std::span<const float> logits) {
  const float* l = logits.data();
  const std::size_t n = logits.size();
  float hi = kNegInf;
  std::size_t i = 0;
#if defined(__AVX2__)
  // MAXPS returns its second operand when either is NaN, so a NaN logit
  // leaves acc as it is, as the fold skips it.
  __m256 acc = _mm256_set1_ps(kNegInf);
  for (; i + 8 <= n; i += 8) acc = _mm256_max_ps(_mm256_loadu_ps(l + i), acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (const float x : lanes) hi = std::max(hi, x);
#endif
  for (; i < n; ++i) hi = std::max(hi, l[i]);
  return hi;
}

/// The first index whose logit equals `value` (compared with ==, so ±0
/// match each other); n if none does.
std::size_t first_equal(std::span<const float> logits, float value) {
  const float* l = logits.data();
  const std::size_t n = logits.size();
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256 v = _mm256_set1_ps(value);
  for (; i + 8 <= n; i += 8) {
    const int eq = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(l + i), v, _CMP_EQ_OQ));
    if (eq != 0) return i + static_cast<std::size_t>(std::countr_zero(
                                static_cast<unsigned>(eq)));
  }
#endif
  for (; i < n; ++i) {
    if (l[i] == value) return i;
  }
  return n;
}

// ---- support and order -----------------------------------------------------

/// Per-thread buffers of sample(), reused across calls.  Index j runs over
/// the finite-logit support in ascending token order.
struct SampleScratch {
  std::vector<std::uint32_t> token;  // [j]: the token
  std::vector<double> weight;        // [j]: its unnormalised probability
  std::vector<std::uint64_t> order, spare;
  std::vector<std::uint32_t> counts;
};

/// Sets s.token[0, n) to the tokens whose logit is above -inf, ascending,
/// and s.weight[0, n) to (logit - hi) / temperature for each; returns n.
std::size_t scaled_support(std::span<const float> logits, float hi,
                           double temperature, SampleScratch& s) {
  const float* l = logits.data();
  const std::size_t vocab = logits.size();
  std::uint32_t* token = s.token.data();
  double* x = s.weight.data();
  std::size_t n = 0, i = 0;
#if defined(__AVX2__)
  const __m256d hi4 = _mm256_set1_pd(hi);
  const __m256d t4 = _mm256_set1_pd(temperature);
  for (; i + 4 <= vocab; i += 4) {
    const __m128 l4 = _mm_loadu_ps(l + i);
    const __m256d x4 =
        _mm256_div_pd(_mm256_sub_pd(_mm256_cvtps_pd(l4), hi4), t4);
    const int masked =
        _mm_movemask_ps(_mm_cmpeq_ps(l4, _mm_set1_ps(kNegInf)));
    if (masked == 0) {
      _mm256_storeu_pd(x + n, x4);
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(token + n),
          _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)),
                        _mm_setr_epi32(0, 1, 2, 3)));
      n += 4;
      continue;
    }
    alignas(32) double xs[4];
    _mm256_store_pd(xs, x4);
    for (std::size_t k = 0; k < 4; ++k) {
      token[n] = static_cast<std::uint32_t>(i + k);
      x[n] = xs[k];
      n += (masked >> k & 1) == 0;
    }
  }
#endif
  for (; i < vocab; ++i) {
    token[n] = static_cast<std::uint32_t>(i);
    x[n] = (static_cast<double>(l[i]) - hi) / temperature;
    n += l[i] != kNegInf;
  }
  return n;
}

constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr unsigned kPasses = 3;  // 11 + 11 + 10 bits of the 32-bit key

/// The sort key of a weight: ascending keys are descending weights.
/// Weights are exp() results, never negative, and the bit patterns of
/// non-negative doubles order as their values do; the complement turns
/// that into descending order.
std::uint64_t weight_key(double weight) {
  return ~std::bit_cast<std::uint64_t>(weight);
}

/// Fills s.order[0, n) with j ordered by weight descending, then j (so
/// token) ascending.  An item is the top 32 bits of weight_key(weight[j])
/// over j; a stable LSD radix sort of the items by those 32 bits leaves
/// them in key order with ties in ascending j.  Weights that agree in
/// their top 20 mantissa bits share a key, so one insertion pass under the
/// exact order (full 64-bit key, then j) repairs the rare runs the short
/// key left out of order, in O(n + inversions).  A pass whose digit is the
/// same for every item would move nothing and is skipped.
void order_by_weight(SampleScratch& s, std::size_t n) {
  std::uint64_t* items = s.order.data();
  const double* weight = s.weight.data();
  std::uint32_t* counts = s.counts.data();
  std::fill(s.counts.begin(), s.counts.end(), 0u);
  const auto digit = [](std::uint64_t item, unsigned pass) {
    return (item >> (32 + pass * kDigitBits)) & (kBuckets - 1);
  };
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t item =
        (weight_key(weight[j]) & 0xffffffff00000000u) | j;
    items[j] = item;
    for (unsigned p = 0; p < kPasses; ++p) {
      ++counts[p * kBuckets + digit(item, p)];
    }
  }
  std::uint64_t* other = s.spare.data();
  for (unsigned p = 0; p < kPasses; ++p) {
    std::uint32_t* slot = counts + p * kBuckets;
    if (slot[digit(items[0], p)] == n) continue;
    std::uint32_t at = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = slot[b];
      slot[b] = at;
      at += c;
    }
    for (std::size_t j = 0; j < n; ++j) {
      other[slot[digit(items[j], p)]++] = items[j];
    }
    std::swap(items, other);
  }
  const auto before = [weight](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t ka = weight_key(weight[a & 0xffffffffu]);
    const std::uint64_t kb = weight_key(weight[b & 0xffffffffu]);
    return ka != kb ? ka < kb : (a & 0xffffffffu) < (b & 0xffffffffu);
  };
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t item = items[i];
    const auto in_order = [&](std::uint64_t prev) {
      return (prev ^ item) >> 32 != 0 || !before(item, prev);
    };
    if (in_order(items[i - 1])) continue;
    std::size_t at = i;
    do {
      items[at] = items[at - 1];
      --at;
    } while (at > 0 && !in_order(items[at - 1]));
    items[at] = item;
  }
  if (items != s.order.data()) std::copy_n(items, n, s.order.data());
}

}  // namespace

int sample_greedy(std::span<const float> logits) {
  LMPEEL_CHECK(!logits.empty());
  // The serial scan keeps the first index whose logit beats every earlier
  // one: the first occurrence of the largest non-NaN logit, except that a
  // NaN at index 0 is never beaten and stays.
  std::size_t best = 0;
  if (!std::isnan(logits[0])) best = first_equal(logits, max_logit(logits));
  LMPEEL_CHECK_MSG(logits[best] != kNegInf, "all logits are -inf");
  return static_cast<int>(best);
}

bool sampleable(std::span<const float> logits) {
  constexpr float kPosInf = std::numeric_limits<float>::infinity();
  const float* l = logits.data();
  const std::size_t n = logits.size();
  bool bad = false, any_generable = false;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256 pos_inf = _mm256_set1_ps(kPosInf);
  const __m256 neg_inf = _mm256_set1_ps(kNegInf);
  __m256 bad_lanes = _mm256_setzero_ps(), generable = _mm256_setzero_ps();
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(l + i);
    bad_lanes = _mm256_or_ps(
        bad_lanes, _mm256_or_ps(_mm256_cmp_ps(x, x, _CMP_UNORD_Q),
                                _mm256_cmp_ps(x, pos_inf, _CMP_EQ_OQ)));
    generable = _mm256_or_ps(generable, _mm256_cmp_ps(x, neg_inf, _CMP_GT_OQ));
  }
  bad = _mm256_movemask_ps(bad_lanes) != 0;
  any_generable = _mm256_movemask_ps(generable) != 0;
#endif
  for (; i < n; ++i) {
    bad = bad || std::isnan(l[i]) || l[i] == kPosInf;
    any_generable = any_generable || l[i] > kNegInf;
  }
  return !bad && any_generable;
}

void probabilities(std::span<const float> logits, std::span<float> out) {
  LMPEEL_CHECK(logits.size() == out.size());
  const float hi = max_logit(logits);
  LMPEEL_CHECK_MSG(hi != kNegInf, "all logits are -inf");
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double e = logits[i] == kNegInf
                         ? 0.0
                         : std::exp(static_cast<double>(logits[i] - hi));
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& p : out) p *= inv;
}

int sample(std::span<const float> logits, const SamplerConfig& config,
           util::Rng& rng) {
  LMPEEL_CHECK(!logits.empty());
  if (config.temperature <= 0.0) return sample_greedy(logits);

  // Work over the finite-logit support only.
  const float hi = max_logit(logits);
  LMPEEL_CHECK_MSG(hi != kNegInf, "all logits are -inf");

  thread_local SampleScratch scratch;
  SampleScratch& s = scratch;
  const std::size_t vocab = logits.size();
  if (s.token.size() < vocab) {
    s.token.resize(vocab);
    s.weight.resize(vocab);
    s.order.resize(vocab);
    s.spare.resize(vocab);
    s.counts.resize(kPasses * kBuckets);
  }
  std::size_t n = scaled_support(logits, hi, config.temperature, s);
  detail::exp_lanes(s.weight.data(), n, s.weight.data());
  order_by_weight(s, n);

  const auto weight_at = [&s](std::size_t rank) {
    return s.weight[s.order[rank] & 0xffffffffu];
  };
  if (config.top_k > 0 && n > static_cast<std::size_t>(config.top_k)) {
    n = static_cast<std::size_t>(config.top_k);
  }
  if (config.top_p < 1.0) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) total += weight_at(k);
    double cum = 0.0;
    std::size_t keep = 0;
    for (; keep < n; ++keep) {
      cum += weight_at(keep);
      if (cum >= config.top_p * total) {
        ++keep;
        break;
      }
    }
    n = std::max<std::size_t>(1, keep);
  }

  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) total += weight_at(k);
  double r = rng.uniform() * total;
  std::size_t k = 0;
  for (; k + 1 < n; ++k) {
    r -= weight_at(k);
    if (r < 0.0) break;
  }
  return static_cast<int>(s.token[s.order[k] & 0xffffffffu]);
}

namespace detail {

double exp_scalar(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  std::uint32_t abstop = (bits >> 52) & 0x7ff;
  if (abstop - kTinyTop >= kLargeTop - kTinyTop) {
    if (abstop < kTinyTop) return 1.0 + x;
    if (abstop >= kHugeTop) {
      if (x == -kInf) return 0.0;
      if (abstop == 0x7ff) return 1.0 + x;  // +inf or NaN
      return bits >> 63 ? 0.0 : kInf;
    }
    abstop = 0;  // 512 <= |x| < 1024: see exp_special
  }
  const double kd_shifted = std::fma(x, kInvLn2N, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double kd = kd_shifted - kShift;
  double r = std::fma(kd, kNegLn2HiN, x);
  r = std::fma(kd, kNegLn2LoN, r);
  const std::size_t idx = 2 * (ki % 128);
  const double tail = std::bit_cast<double>(kExpTab[idx]);
  const std::uint64_t sbits = kExpTab[idx + 1] + (ki << 45);
  const double r2 = r * r;
  double tmp = std::fma(r2, std::fma(r, kC3, kC2), tail + r);
  tmp = std::fma(r2 * r2, std::fma(r, kC5, kC4), tmp);
  if (abstop == 0) return exp_special(tmp, sbits, ki);
  const double scale = std::bit_cast<double>(sbits);
  return std::fma(scale, tmp, scale);
}

void exp_lanes(const double* x, std::size_t n, double* out) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const int special = exp_special_lanes(v);
    if (special == 0) {
      _mm256_storeu_pd(out + i, exp_lanes4(v));
      continue;
    }
    alignas(32) double in[4], res[4];  // x may be out
    _mm256_store_pd(in, v);
    _mm256_store_pd(res, exp_lanes4(v));
    for (std::size_t l = 0; l < 4; ++l) {
      out[i + l] = (special >> l) & 1 ? exp_scalar(in[l]) : res[l];
    }
  }
#endif
  for (; i < n; ++i) out[i] = exp_scalar(x[i]);
}

}  // namespace detail

}  // namespace lmpeel::lm
