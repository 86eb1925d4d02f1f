#include "lm/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lm/lanes.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

void Tensor::randomize(util::Rng& rng, float std) {
  for (float& v : data_) {
    v = static_cast<float>(rng.normal(0.0, std));
  }
}

namespace {

/// One IB x JT output tile accumulated over k-rows [k0, kend) with the
/// partial sums held in registers; partials round-trip through `out`
/// between strips.  Every out(i, j) accumulates a(i, kk) * b(kk, j) for
/// kk = 0..k-1 in ascending order — the same float operation sequence as
/// every other path through matmul — so the result is bit-identical
/// whichever kernel a given (m, n) shape dispatches to (a register vs
/// memory round-trip does not change float rounding).  That invariant is
/// also why no path may skip aik == 0.0f terms: adding a zero product can
/// still flip the sign of a -0.0 partial sum.
template <std::size_t IB, std::size_t JT>
void matmul_strip_tile(const float* a, const float* b, float* out,
                       std::size_t k, std::size_t b_stride,
                       std::size_t out_stride, std::size_t i0, std::size_t j0,
                       std::size_t k0, std::size_t kend) {
  float acc[IB][JT];
  for (std::size_t r = 0; r < IB; ++r) {
    for (std::size_t c = 0; c < JT; ++c) {
      acc[r][c] = out[(i0 + r) * out_stride + j0 + c];
    }
  }
  for (std::size_t kk = k0; kk < kend; ++kk) {
    const float* b_row = b + kk * b_stride + j0;
    for (std::size_t r = 0; r < IB; ++r) {
      const float aik = a[(i0 + r) * k + kk];
      for (std::size_t c = 0; c < JT; ++c) acc[r][c] += aik * b_row[c];
    }
  }
  for (std::size_t r = 0; r < IB; ++r) {
    for (std::size_t c = 0; c < JT; ++c) {
      out[(i0 + r) * out_stride + j0 + c] = acc[r][c];
    }
  }
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out) {
  LMPEEL_CHECK(a.cols() == b.rows());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.zero();
  constexpr std::size_t kRowBlock = 8;   // rows of a per register tile
  constexpr std::size_t kColBlock = 32;  // cols of out per register tile
  constexpr std::size_t kStrip = 16;     // k-rows of b per strip
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  // Strip-blocked main kernel: b is read row-sequentially (the hardware
  // prefetcher's favourite pattern) one kStrip-deep strip at a time, and
  // each strip is applied to kRowBlock rows of a at once from registers.
  // Streaming the weight matrix once per kRowBlock rows instead of once
  // per row is what makes batched decode (m = batch) and training
  // (m = sequence length) cheaper per row than single-row decode.
  std::size_t i0 = 0;
  for (; i0 + kRowBlock <= m; i0 += kRowBlock) {
    for (std::size_t k0 = 0; k0 < k; k0 += kStrip) {
      const std::size_t kend = std::min(k0 + kStrip, k);
      for (std::size_t j0 = 0; j0 + kColBlock <= n; j0 += kColBlock) {
        matmul_strip_tile<kRowBlock, kColBlock>(ap, bp, op, k, n, n, i0, j0,
                                                k0, kend);
      }
    }
    // Column tail of this row block: plain kk-ascending dot products.
    for (std::size_t j0 = n - n % kColBlock; j0 < n; ++j0) {
      for (std::size_t r = 0; r < kRowBlock; ++r) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += ap[(i0 + r) * k + kk] * bp[kk * n + j0];
        }
        op[(i0 + r) * n + j0] = acc;
      }
    }
  }
  // Leftover rows (and the whole product when m < kRowBlock): k-outer
  // accumulation, which also streams each row of b exactly once.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* b_row = bp + kk * n;
    for (std::size_t i = i0; i < m; ++i) {
      const float aik = ap[i * k + kk];
      float* out_row = op + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        out_row[j] += aik * b_row[j];
      }
    }
  }
}

namespace {

/// Logits of vocab rows [j0, j0 + J) for the `rows` rows whose transposed
/// activations are in `at` ([k x kWidth], lane r = row r).  The J
/// accumulators are independent, which hides the add latency.
template <class L, std::size_t J>
void head_block(const float* at, const float* bt, std::size_t k,
                std::size_t j0, std::size_t rows, float* out,
                std::size_t out_stride) {
  constexpr std::size_t W = L::kWidth;
  typename L::V acc[J];
  for (std::size_t jj = 0; jj < J; ++jj) acc[jj] = L::zero();
  const float* b = bt + j0 * k;
  for (std::size_t c = 0; c < k; ++c) {
    const typename L::V col = L::load(at + c * W);
    for (std::size_t jj = 0; jj < J; ++jj) {
      acc[jj] = L::mul_add(acc[jj], col, b[jj * k + c]);
    }
  }
  float tile[J][W];
  for (std::size_t jj = 0; jj < J; ++jj) L::store(tile[jj], acc[jj]);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t jj = 0; jj < J; ++jj) {
      out[r * out_stride + j0 + jj] = tile[jj][r];
    }
  }
}

/// Rows [i0, i0 + rows) of out = a · btᵀ, rows <= L::kWidth.  The rows are
/// transposed once into `at` (zero-padded lanes are computed and dropped);
/// bt is then streamed row by row, in place, and every bt(j, c) is
/// broadcast against column c of the group.  Lane r of vocab row j thus
/// evaluates ((0 + a(r,0)·bt(j,0)) + a(r,1)·bt(j,1)) + … in c order: the
/// serial dot product, whichever group and policy the row lands in.
template <class L>
void head_rows(const Tensor& a, std::size_t i0, std::size_t rows,
               const Tensor& bt, Tensor& out, std::vector<float>& at) {
  constexpr std::size_t W = L::kWidth;
  constexpr std::size_t kInFlight = 8;  // vocab rows per block
  const std::size_t k = a.cols(), n = bt.rows();
  at.assign(k * W, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* a_row = a.data() + (i0 + r) * k;
    for (std::size_t c = 0; c < k; ++c) at[c * W + r] = a_row[c];
  }
  float* out_rows = out.data() + i0 * n;
  std::size_t j = 0;
  for (; j + kInFlight <= n; j += kInFlight) {
    head_block<L, kInFlight>(at.data(), bt.data(), k, j, rows, out_rows, n);
  }
  for (; j < n; ++j) {
    head_block<L, 1>(at.data(), bt.data(), k, j, rows, out_rows, n);
  }
}

/// out[M,N] = a[M,K] · btᵀ in groups of L::kWidth rows.
template <class L>
void transposed_b_lanes(const Tensor& a, const Tensor& bt, Tensor& out) {
  LMPEEL_CHECK(a.cols() == bt.cols());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == bt.rows());
  std::vector<float> at;
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += L::kWidth) {
    head_rows<L>(a, i0, std::min(L::kWidth, a.rows() - i0), bt, out, at);
  }
}

}  // namespace

void matmul_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out) {
#if defined(__AVX2__)
  transposed_b_lanes<Lanes8>(a, bt, out);
#else
  transposed_b_lanes<PortableLanes>(a, bt, out);
#endif
}

namespace detail {
void matmul_transposed_b_portable(const Tensor& a, const Tensor& bt,
                                  Tensor& out) {
  transposed_b_lanes<PortableLanes>(a, bt, out);
}
}  // namespace detail

void matmul_grad_a(const Tensor& grad, const Tensor& b, Tensor& da) {
  LMPEEL_CHECK(grad.cols() == b.cols());
  LMPEEL_CHECK(da.rows() == grad.rows() && da.cols() == b.rows());
  const std::size_t m = grad.rows(), n = grad.cols(), k = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const float* g_row = grad.data() + i * n;
    float* da_row = da.data() + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* b_row = b.data() + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += g_row[j] * b_row[j];
      da_row[kk] += acc;
    }
  }
}

void matmul_grad_b(const Tensor& a, const Tensor& grad, Tensor& db) {
  LMPEEL_CHECK(a.rows() == grad.rows());
  LMPEEL_CHECK(db.rows() == a.cols() && db.cols() == grad.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = grad.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    const float* g_row = grad.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      float* db_row = db.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) db_row[j] += aik * g_row[j];
    }
  }
}

void layer_norm(const Tensor& x, std::span<const float> gamma,
                std::span<const float> beta, Tensor& y,
                LayerNormCache& cache) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(gamma.size() == cols && beta.size() == cols);
  LMPEEL_CHECK(y.rows() == rows && y.cols() == cols);
  cache.mean.resize(rows);
  cache.inv_std.resize(rows);
  constexpr float kEps = 1e-5f;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * cols;
    float mean = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) mean += xr[c];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      var += (xr[c] - mean) * (xr[c] - mean);
    }
    var /= static_cast<float>(cols);
    const float inv_std = 1.0f / std::sqrt(var + kEps);
    cache.mean[r] = mean;
    cache.inv_std[r] = inv_std;
    float* yr = y.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      yr[c] = (xr[c] - mean) * inv_std * gamma[c] + beta[c];
    }
  }
}

void layer_norm_backward(const Tensor& x, std::span<const float> gamma,
                         const Tensor& dy, const LayerNormCache& cache,
                         Tensor& dx, std::span<float> dgamma,
                         std::span<float> dbeta) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(dx.rows() == rows && dx.cols() == cols);
  const auto n = static_cast<float>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * cols;
    const float* dyr = dy.data() + r * cols;
    float* dxr = dx.data() + r * cols;
    const float mean = cache.mean[r];
    const float inv_std = cache.inv_std[r];

    // x_hat = (x - mean) * inv_std;  dy/dx via the standard two-reduction
    // layer-norm backward.
    float sum_dy_g = 0.0f, sum_dy_g_xhat = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * inv_std;
      const float dyg = dyr[c] * gamma[c];
      sum_dy_g += dyg;
      sum_dy_g_xhat += dyg * xhat;
      dgamma[c] += dyr[c] * xhat;
      dbeta[c] += dyr[c];
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * inv_std;
      const float dyg = dyr[c] * gamma[c];
      dxr[c] += inv_std * (dyg - sum_dy_g / n - xhat * sum_dy_g_xhat / n);
    }
  }
}

void add_into(Tensor& dst, const Tensor& src) {
  LMPEEL_CHECK(dst.size() == src.size());
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] += s[i];
}

namespace {

// ---- tanh ------------------------------------------------------------------
// glibc's float tanh: fdlibm's s_tanhf.c over its s_expm1f.c (glibc 2.36,
// sysdeps/ieee754/flt-32), single precision throughout and nothing fused.
constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
// expm1's scaled rational-remainder coefficients.
constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);

float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

/// y · 2^k by adding k to y's exponent field, as fdlibm's SET_FLOAT_WORD.
float add_exponent(float y, int k) {
  return from_bits(std::bit_cast<std::uint32_t>(y) +
                   (static_cast<std::uint32_t>(k) << 23));
}

/// glibc's expm1f: e^x - 1 = 2^k · (1 + expm1(r)) - 1 with r = x - k·ln2
/// carried as hi - lo (correction c), and expm1(r) from a rational
/// remainder in r²/2.
float expm1f_scalar(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const bool neg = (bits >> 31) != 0;
  const std::uint32_t hx = bits & 0x7fffffffu;
  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.72
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return neg ? -1.0f : x;
      if (!neg) return std::numeric_limits<float>::infinity();
    }
    if (neg) return -1.0f;
  }
  int k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {    // |x| > ln2 / 2
    float hi, lo;
    if (hx < 0x3f851592u) {  // and |x| < 3 ln2 / 2
      hi = neg ? x + kLn2Hi : x - kLn2Hi;
      lo = neg ? -kLn2Lo : kLn2Lo;
      k = neg ? -1 : 1;
    } else {
      k = static_cast<int>(kInvLn2 * x + (neg ? -0.5f : 0.5f));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    return x;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    return x < -0.25f ? -2.0f * (e - (x + 0.5f)) : 1.0f + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) return add_exponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) {  // 1 - 2^-k
    return add_exponent(from_bits(0x3f800000u - (0x1000000u >> k)) - (e - x),
                        k);
  }
  return add_exponent(x - (e + from_bits((0x7fu - k) << 23)) + 1.0f, k);
}

#if !defined(__AVX2__)
/// Every lane of the plain C++ policy through the scalar twin.
PortableLanes::V tanh_lanes(PortableLanes::V x) {
  for (float& v : x.x) v = detail::tanhf_scalar(v);
  return x;
}
#else
/// expm1f_scalar on 8 lanes for the arguments tanh_lanes gives it:
/// -2 < y <= 0 and 2 <= y < 44.  There k is 0, -1 (only negative y lie
/// within 3 ln2 / 2 of 0), -2 or -3, or 3..64; each of those branches is
/// computed on every lane and blended by k at the end.  Lanes below 2^-25,
/// which return y, compute on 0 instead: their polynomial would underflow
/// to subnormals, which cost a microcode assist per operation.
__m256 expm1_lanes(__m256 y) {
  const auto f = [](float v) { return _mm256_set1_ps(v); };
  const auto i32 = [](int v) { return _mm256_set1_epi32(v); };
  const auto mask = [](__m256i m) { return _mm256_castsi256_ps(m); };
  const __m256i hy = _mm256_castps_si256(_mm256_andnot_ps(f(-0.0f), y));
  const __m256 tiny = mask(_mm256_cmpgt_epi32(i32(0x33000000), hy));
  const __m256 x = _mm256_andnot_ps(tiny, y);
  const __m256i hx = _mm256_andnot_si256(_mm256_castps_si256(tiny), hy);

  // Argument reduction x = k ln2 + (hi - lo): |x| <= ln2 / 2 keeps k = 0,
  // |x| < 3 ln2 / 2 takes k = -1, anything further k = trunc(x / ln2 ± 1/2).
  const __m256 reduced = mask(_mm256_cmpgt_epi32(hx, i32(0x3eb17218)));
  const __m256 one_ln2 = _mm256_and_ps(
      reduced, mask(_mm256_cmpgt_epi32(i32(0x3f851592), hx)));
  const __m256 kf = _mm256_add_ps(
      _mm256_mul_ps(f(kInvLn2), x),
      _mm256_or_ps(f(0.5f), _mm256_and_ps(x, f(-0.0f))));
  __m256i k = _mm256_cvttps_epi32(kf);
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_blendv_ps(
      _mm256_sub_ps(x, _mm256_mul_ps(tk, f(kLn2Hi))),
      _mm256_add_ps(x, f(kLn2Hi)), one_ln2);
  const __m256 lo =
      _mm256_blendv_ps(_mm256_mul_ps(tk, f(kLn2Lo)), f(-kLn2Lo), one_ln2);
  k = _mm256_blendv_epi8(k, i32(-1), _mm256_castps_si256(one_ln2));
  k = _mm256_and_si256(k, _mm256_castps_si256(reduced));
  const __m256 xr = _mm256_blendv_ps(x, _mm256_sub_ps(hi, lo), reduced);
  const __m256 c =
      _mm256_and_ps(_mm256_sub_ps(_mm256_sub_ps(hi, xr), lo), reduced);

  const __m256 hfx = _mm256_mul_ps(f(0.5f), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 r1 = _mm256_add_ps(f(kQ4), _mm256_mul_ps(hxs, f(kQ5)));
  r1 = _mm256_add_ps(f(kQ3), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(f(kQ2), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(f(kQ1), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(f(1.0f), _mm256_mul_ps(hxs, r1));
  const __m256 t = _mm256_sub_ps(f(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(f(6.0f), _mm256_mul_ps(xr, t))));
  const __m256 k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 km1 =
      _mm256_sub_ps(_mm256_mul_ps(f(0.5f), _mm256_sub_ps(xr, e)), f(0.5f));

  // The rest scale by 2^k through the exponent field.
  const __m256i scale = _mm256_slli_epi32(k, 23);
  const auto scaled = [&](__m256 v) {
    return _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(v), scale));
  };
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 far =
      _mm256_sub_ps(scaled(_mm256_sub_ps(f(1.0f), e_minus_x)), f(1.0f));
  const __m256 one_minus_2mk = _mm256_castsi256_ps(_mm256_sub_epi32(
      i32(0x3f800000), _mm256_srlv_epi32(i32(0x1000000), k)));
  const __m256 near = scaled(_mm256_sub_ps(one_minus_2mk, e_minus_x));
  const __m256 two_mk = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(i32(0x7f), k), 23));
  const __m256 mid = scaled(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, two_mk)), f(1.0f)));

  __m256 out = mid;  // 23 <= k <= 56
  out = _mm256_blendv_ps(out, near, mask(_mm256_cmpgt_epi32(i32(23), k)));
  out = _mm256_blendv_ps(out, far,
                         mask(_mm256_or_si256(_mm256_cmpgt_epi32(i32(-1), k),
                                              _mm256_cmpgt_epi32(k, i32(56)))));
  out = _mm256_blendv_ps(out, km1, mask(_mm256_cmpeq_epi32(k, i32(-1))));
  out = _mm256_blendv_ps(out, k0, mask(_mm256_cmpeq_epi32(k, i32(0))));
  return _mm256_blendv_ps(out, y, tiny);
}

/// Lanes of `out` whose x is inf or NaN (bit l of `lanes`), recomputed by
/// the scalar twin.
[[gnu::noinline, gnu::cold]] __m256 scalar_lanes(__m256 x, __m256 out,
                                                  int lanes) {
  alignas(32) float in[8], res[8];
  _mm256_store_ps(in, x);
  _mm256_store_ps(res, out);
  for (int l = 0; l < 8; ++l) {
    if ((lanes >> l) & 1) res[l] = detail::tanhf_scalar(in[l]);
  }
  return _mm256_load_ps(res);
}

/// tanhf_scalar on 8 lanes: both expm1 arguments' formulas blended by |x|
/// (one division, its numerator blended), then the |x| >= 22 and
/// |x| < 2^-55 cases, whose lanes give expm1 a 0 (keeping its arguments in
/// its domain and off subnormals).  Inf and NaN lanes go to the scalar
/// twin.
inline __m256 tanh_lanes(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 a = _mm256_andnot_ps(sign, x);
  const __m256 big = _mm256_cmp_ps(a, one, _CMP_GE_OQ);
  const __m256 saturated =
      _mm256_cmp_ps(a, _mm256_set1_ps(22.0f), _CMP_GE_OQ);
  const __m256 tiny =
      _mm256_cmp_ps(a, _mm256_set1_ps(0x1p-55f), _CMP_LT_OQ);
  const __m256 two_a = _mm256_andnot_ps(_mm256_or_ps(saturated, tiny),
                                        _mm256_mul_ps(two, a));
  // |x| >= 1: t = expm1(2|x|), z = 1 - 2 / (t + 2);
  // below:    t = expm1(-2|x|), z = -t / (t + 2).
  const __m256 t = expm1_lanes(_mm256_blendv_ps(_mm256_or_ps(two_a, sign),
                                                two_a, big));
  const __m256 q = _mm256_div_ps(
      _mm256_blendv_ps(_mm256_xor_ps(t, sign), two, big),
      _mm256_add_ps(t, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big);
  z = _mm256_blendv_ps(z, one, saturated);
  z = _mm256_blendv_ps(z, a, tiny);
  const __m256 out = _mm256_or_ps(z, _mm256_and_ps(x, sign));
  const int special = _mm256_movemask_ps(_mm256_cmp_ps(
      a, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
      _CMP_NLT_UQ));
  return special == 0 ? out : scalar_lanes(x, out, special);
}
#endif

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu_scalar(float v) {
  const float t = detail::tanhf_scalar(kGeluC * (v + 0.044715f * v * v * v));
  return 0.5f * v * (1.0f + t);
}

/// gelu_scalar on the lanes of one group, each lane rounding as the scalar
/// expression does.
template <class L>
typename L::V gelu_group(typename L::V v) {
  const typename L::V cube = L::mul(L::mul(L::mul(v, 0.044715f), v), v);
  const typename L::V t = tanh_lanes(L::mul(L::add(v, cube), kGeluC));
  return L::mul(L::mul(v, 0.5f), L::add(t, L::set1(1.0f)));
}

/// out[i] = scalar(x[i]) for i < n: full groups of L::kWidth through
/// `group`, the tail through `scalar`.
template <class L, class Group, class Scalar>
void map_groups(const float* x, std::size_t n, float* out, Group group,
                Scalar scalar) {
  std::size_t i = 0;
  for (; i + L::kWidth <= n; i += L::kWidth) {
    L::store(out + i, group(L::load(x + i)));
  }
#if defined(__AVX2__)
  // GCC leaves out the vzeroupper on the path through the tail's calls, so
  // the caller would get a dirty upper state, and every SSE-to-VEX switch
  // after it (each call from an unflagged TU into this one) a penalty.
  _mm256_zeroupper();
#endif
  for (; i < n; ++i) out[i] = scalar(x[i]);
}

#if defined(__AVX2__)
using GeluLanes = Lanes8;
#else
using GeluLanes = PortableLanes;
#endif

}  // namespace

namespace detail {
float tanhf_scalar(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const bool neg = (bits >> 31) != 0;
  const std::uint32_t ix = bits & 0x7fffffffu;
  if (ix >= 0x7f800000u) return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  float z = 1.0f;             // |x| >= 22: 1 - tiny rounds to 1
  if (ix < 0x41b00000u) {     // |x| < 22
    if (ix < 0x24000000u) {   // |x| < 2^-55
      return x * (1.0f + x);
    }
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = expm1f_scalar(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1f_scalar(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return neg ? -z : z;
}

void tanhf_lanes(const float* x, std::size_t n, float* out) {
  map_groups<GeluLanes>(
      x, n, out, [](GeluLanes::V v) { return tanh_lanes(v); }, tanhf_scalar);
}
}  // namespace detail

void gelu(const Tensor& x, Tensor& y) {
  LMPEEL_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  map_groups<GeluLanes>(x.data(), x.size(), y.data(),
                        gelu_group<GeluLanes>, gelu_scalar);
}

void gelu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  LMPEEL_CHECK(x.size() == dy.size() && x.size() == dx.size());
  const float* xs = x.data();
  const float* dys = dy.data();
  float* dxs = dx.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = xs[i];
    const float u = kGeluC * (v + 0.044715f * v * v * v);
    const float t = detail::tanhf_scalar(u);
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    const float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dxs[i] += dys[i] * grad;
  }
}

void softmax_rows(Tensor& x) {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    float hi = row[0];
    for (std::size_t c = 1; c < x.cols(); ++c) hi = std::max(hi, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row[c] = std::exp(row[c] - hi);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
}

}  // namespace lmpeel::lm
