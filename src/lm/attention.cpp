// Definitions for the shared per-row kernels.  This TU gets the same probed
// SIMD flags as tensor.cpp plus -ffp-contract=off (see src/CMakeLists.txt);
// every backend links the one copy compiled here, which is what makes their
// attention bit-identical.
#include "lm/attention.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lm/lanes.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

// ---- exp -------------------------------------------------------------------
// glibc's expf data (e_exp2f_data.c, EXP2F_TABLE_BITS = 5).  With
// z = x · 32/ln2 = k + r, exp(x) = 2^(k/32) · 2^(r/32), and
// kExpTab[i] = bits(2^(i/32)) - (i << 47), so bits(2^(k/32)) is
// kExpTab[k % 32] + (k << 47) for every k the finite range reaches.
alignas(64) constexpr std::uint64_t kExpTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
constexpr double kShift = 0x1.8p+52;  // z + kShift rounds z to an integer
// 2^(r/32) ≈ 1 + kC2·r + kC1·r² + kC0·r³ for |r| ≤ 1/2.
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;
constexpr float kExpOverflow = 0x1.62e42ep6f;    // above: +inf
constexpr float kExpUnderflow = -0x1.9fe368p6f;  // below: +0

/// Every lane of the plain C++ policy through the scalar twin.
PortableLanes::V exp_lanes(PortableLanes::V x) {
  for (float& v : x.x) v = detail::expf_scalar(v);
  return x;
}

#if defined(__AVX2__)
#if !defined(__FMA__)
#error "the AVX2 exp needs FMA; src/CMakeLists.txt pairs -mavx2 with -mfma"
#endif
/// expf_scalar on 8 lanes: the same double-precision steps, the same
/// fused operations, the same table, four lanes per double vector.  The
/// cases the scalar twin branches on are blended in at the end; the main
/// path computes harmless garbage for them first.
__m256 exp_lanes(__m256 x) {
  const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  __m128 half[2];
  for (int h = 0; h < 2; ++h) {
    const __m256d xd = _mm256_cvtps_pd(h == 0 ? _mm256_castps256_ps128(x)
                                              : _mm256_extractf128_ps(x, 1));
    const __m256d kd_shifted = _mm256_fmadd_pd(inv_ln2n, xd, shift);
    const __m256i ki = _mm256_castpd_si256(kd_shifted);
    const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
    const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
    const __m256i t = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(kExpTab),
        _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
    const __m256d s = _mm256_castsi256_pd(
        _mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
    const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kC0), r,
                                      _mm256_set1_pd(kC1));
    const __m256d r2 = _mm256_mul_pd(r, r);
    __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
    y = _mm256_fmadd_pd(z, r2, y);
    half[h] = _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
  }
  __m256 out = _mm256_set_m128(half[1], half[0]);
  const __m256 under =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpUnderflow), _CMP_LT_OQ);
  const __m256 over = _mm256_cmp_ps(x, _mm256_set1_ps(kExpOverflow),
                                    _CMP_GT_OQ);
  const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  out = _mm256_blendv_ps(out, _mm256_setzero_ps(), under);
  out = _mm256_blendv_ps(
      out, _mm256_set1_ps(std::numeric_limits<float>::infinity()), over);
  return _mm256_blendv_ps(out, _mm256_add_ps(x, x), nan);
}
#endif

// ---- scores ----------------------------------------------------------------

/// The serial score of one key: ((0 + q0·k0) + q1·k1) + … in c order.
float serial_score(const float* q, const float* k, std::size_t hd,
                   float scale) {
  float acc = 0.0f;
  for (std::size_t c = 0; c < hd; ++c) acc += q[c] * k[c];
  return acc * scale;
}

/// Scores of G groups of kWidth keys: lane r of group g is the key row
/// keys[g] + r * stride, and its result goes to out[g][r].  Each lane
/// accumulates q[c] · k[c] for c ascending from 0.0f and is then scaled —
/// exactly serial_score.  The G accumulators are independent add chains.
template <class L, std::size_t G>
void score_groups(const float* q, const float* const* keys,
                  float* const* out, std::size_t stride, std::size_t hd,
                  float scale) {
  typename L::V acc[G];
  for (std::size_t g = 0; g < G; ++g) acc[g] = L::zero();
  std::size_t c = 0;
  for (; c + 4 <= hd; c += 4) {
    for (std::size_t g = 0; g < G; ++g) {
      typename L::V cols[4];
      L::columns4(keys[g] + c, stride, cols);
      for (std::size_t j = 0; j < 4; ++j) {
        acc[g] = L::mul_add(acc[g], cols[j], q[c + j]);
      }
    }
  }
  for (; c < hd; ++c) {
    for (std::size_t g = 0; g < G; ++g) {
      acc[g] = L::mul_add(acc[g], L::column(keys[g] + c, stride), q[c]);
    }
  }
  for (std::size_t g = 0; g < G; ++g) L::store(out[g], L::mul(acc[g], scale));
}

/// Scores keys [from, n) of one row: each span's rows go to the lanes
/// kWidth at a time and a span's last rows % kWidth take the serial loop.
/// Full groups are batched across spans so a 16-row page still fills
/// kInFlight groups.
template <class L>
void score_keys(const AttendQuery& row, std::size_t from, std::size_t stride,
                std::size_t head_off, std::size_t hd, float scale) {
  constexpr std::size_t W = L::kWidth;
  constexpr std::size_t kInFlight = 4;  // key groups per score_groups call
  const float* keys[kInFlight];
  float* outs[kInFlight];
  std::size_t pending = 0;
  std::size_t u = 0;
  for (std::size_t s = 0; s < row.spans.size() && u < row.n; ++s) {
    const float* kbase = row.spans[s].k + head_off;
    const std::size_t rows = std::min(row.spans[s].tokens, row.n - u);
    std::size_t r = from > u ? std::min(from - u, rows) : 0;
    for (; r + W <= rows; r += W) {
      keys[pending] = kbase + r * stride;
      outs[pending] = row.prow + u + r;
      if (++pending == kInFlight) {
        score_groups<L, kInFlight>(row.q, keys, outs, stride, hd, scale);
        pending = 0;
      }
    }
    for (; r < rows; ++r) {
      row.prow[u + r] = serial_score(row.q, kbase + r * stride, hd, scale);
    }
    u += rows;
  }
  LMPEEL_CHECK(u == row.n);
  for (std::size_t g = 0; g < pending; ++g) {
    score_groups<L, 1>(row.q, keys + g, outs + g, stride, hd, scale);
  }
}

/// Scores one transposed 8-key group (tile[c · kWidth + r] = key r's
/// column c) for R rows, writing lane r of row j to rows[j]->prow[u + r].
/// Each lane is the serial c-ascending dot, as in score_groups; the R
/// accumulators are independent add chains.
template <class L, std::size_t R>
void score_tile(const float* tile, const AttendQuery* const* rows,
                std::size_t u, std::size_t hd, float scale) {
  constexpr std::size_t W = L::kWidth;
  typename L::V acc[R];
  for (std::size_t j = 0; j < R; ++j) acc[j] = L::zero();
  for (std::size_t c = 0; c < hd; ++c) {
    const typename L::V col = L::load(tile + c * W);
    for (std::size_t j = 0; j < R; ++j) {
      acc[j] = L::mul_add(acc[j], col, rows[j]->q[c]);
    }
  }
  for (std::size_t j = 0; j < R; ++j) {
    L::store(rows[j]->prow + u, L::mul(acc[j], scale));
  }
}

bool same_page(const mem::KvSpan& a, const mem::KvSpan& b) {
  return a.k == b.k && a.tokens == b.tokens;
}

bool same_first_page(const AttendQuery& a, const AttendQuery& b) {
  return !a.spans.empty() && !b.spans.empty() &&
         same_page(a.spans[0], b.spans[0]);
}

/// The keys [0, cover) of `row` that lie in whole 8-key groups of the
/// leading spans it shares with `lead`.  Stops at the first span that
/// differs, or that the row's length or a leftover cuts short, so the
/// covered keys are a prefix and every one of them is in a full group of
/// a shared span.
template <std::size_t W>
std::size_t shared_cover(const AttendQuery& lead, const AttendQuery& row) {
  const std::size_t m = std::min(lead.spans.size(), row.spans.size());
  std::size_t u = 0;
  for (std::size_t s = 0; s < m && u < row.n; ++s) {
    if (!same_page(lead.spans[s], row.spans[s])) break;
    const std::size_t tokens = row.spans[s].tokens;
    const std::size_t rows = std::min(tokens, row.n - u);
    const std::size_t full = rows - rows % W;
    if (full != tokens) return u + full;
    u += full;
  }
  return u;
}

/// Groups the rows by leading page and scores each group's shared keys
/// once per 8-key group: the group is transposed into `tile` and scored
/// for every member whose cover reaches past it, kRowsInFlight rows at a
/// time.  cover[i] receives row i's shared prefix (0 for a row that
/// shares its first page with no other row).
template <class L>
void score_shared(std::span<const AttendQuery> rows, std::size_t stride,
                  std::size_t head_off, std::size_t hd, float scale,
                  std::vector<std::size_t>& cover) {
  constexpr std::size_t W = L::kWidth;
  constexpr std::size_t kRowsInFlight = 4;
  cover.assign(rows.size(), 0);
  std::vector<bool> grouped(rows.size(), false);
  std::vector<std::size_t> members;
  std::vector<float> tile(hd * W);
  const AttendQuery* batch[kRowsInFlight];
  for (std::size_t lead = 0; lead < rows.size(); ++lead) {
    if (grouped[lead]) continue;
    members.assign(1, lead);
    for (std::size_t i = lead + 1; i < rows.size(); ++i) {
      if (!grouped[i] && same_first_page(rows[lead], rows[i])) {
        members.push_back(i);
        grouped[i] = true;
      }
    }
    if (members.size() < 2) continue;
    for (const std::size_t i : members) {
      cover[i] = shared_cover<W>(rows[lead], rows[i]);
    }
    // Longest cover first: the rows covering a group are then a prefix.
    std::stable_sort(members.begin(), members.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cover[a] > cover[b];
                     });
    std::size_t count = members.size();
    std::size_t u = 0;
    for (std::size_t s = 0; u < cover[members[0]]; ++s) {
      const mem::KvSpan& span = rows[lead].spans[s];
      const float* kbase = span.k + head_off;
      for (std::size_t r = 0; r + W <= span.tokens; r += W) {
        const std::size_t g = u + r;
        while (count > 0 && cover[members[count - 1]] < g + W) --count;
        if (count == 0) break;
        const float* k = kbase + r * stride;
        std::size_t c = 0;
        for (; c + 4 <= hd; c += 4) {
          typename L::V cols[4];
          L::columns4(k + c, stride, cols);
          for (std::size_t j = 0; j < 4; ++j) {
            L::store(tile.data() + (c + j) * W, cols[j]);
          }
        }
        for (; c < hd; ++c) {
          L::store(tile.data() + c * W, L::column(k + c, stride));
        }
        for (std::size_t j = 0; j < count; j += kRowsInFlight) {
          const std::size_t take = std::min(kRowsInFlight, count - j);
          for (std::size_t b = 0; b < take; ++b) {
            batch[b] = &rows[members[j + b]];
          }
          switch (take) {
            case 4: score_tile<L, 4>(tile.data(), batch, g, hd, scale); break;
            case 3: score_tile<L, 3>(tile.data(), batch, g, hd, scale); break;
            case 2: score_tile<L, 2>(tile.data(), batch, g, hd, scale); break;
            default: score_tile<L, 1>(tile.data(), batch, g, hd, scale);
          }
        }
      }
      u += span.tokens;
    }
  }
}

// ---- softmax and blend -----------------------------------------------------

/// p[0, n) = exp(p - max p) in place.  The max runs on lanes and ignores a
/// NaN score just as the serial std::max scan does (a ±0 tie can pick the
/// other zero, which leaves every x - hi unchanged up to the sign of a
/// zero, and exp(±0) = 1).  The exp is expf_scalar, on lanes.
template <class L>
void exp_shifted(float* p, std::size_t n) {
  constexpr std::size_t W = L::kWidth;
  const std::size_t full = n - n % W;
  typename L::V acc = L::set1(-1e30f);
  for (std::size_t w = 0; w < full; w += W) acc = L::max(acc, L::load(p + w));
  float lanes[W];
  L::store(lanes, acc);
  float hi = -1e30f;
  for (const float x : lanes) hi = std::max(hi, x);
  for (std::size_t w = full; w < n; ++w) hi = std::max(hi, p[w]);
  for (std::size_t w = 0; w < full; w += W) {
    L::store(p + w, exp_lanes(L::sub(L::load(p + w), hi)));
  }
  for (std::size_t w = full; w < n; ++w) p[w] = detail::expf_scalar(p[w] - hi);
}

/// sums[j] = p_j[0] + p_j[1] + … added in position order from 0.0f, for
/// the K rows of `rows`.  The K sums are independent add chains stepped
/// together, so K rows cost about what one does.
template <std::size_t K>
void serial_sums(const AttendQuery* rows, float* sums) {
  float acc[K] = {};
  std::size_t common = rows[0].n;
  for (std::size_t j = 1; j < K; ++j) common = std::min(common, rows[j].n);
  for (std::size_t w = 0; w < common; ++w) {
    for (std::size_t j = 0; j < K; ++j) acc[j] += rows[j].prow[w];
  }
  for (std::size_t j = 0; j < K; ++j) {
    for (std::size_t w = common; w < rows[j].n; ++w) acc[j] += rows[j].prow[w];
    sums[j] = acc[j];
  }
}

/// p[0, n) *= 1 / sum, on lanes.
template <class L>
void normalise(float* p, std::size_t n, float sum) {
  constexpr std::size_t W = L::kWidth;
  const float inv = 1.0f / sum;
  std::size_t w = 0;
  for (; w + W <= n; w += W) L::store(p + w, L::mul(L::load(p + w), inv));
  for (; w < n; ++w) p[w] *= inv;
}

/// ctx[0, B · kWidth) = Σ p_u · v_u[0, B · kWidth) over the keys with
/// p_u != 0, added in u order from 0.0f; `v0` is the column offset of the
/// first lane within a key row.  The B partial rows stay in registers for
/// the whole pass over the keys.
template <class L, std::size_t B>
void blend_columns(const AttendQuery& row, std::size_t stride, std::size_t v0,
                   float* ctx) {
  constexpr std::size_t W = L::kWidth;
  typename L::V acc[B];
  for (std::size_t b = 0; b < B; ++b) acc[b] = L::zero();
  std::size_t u = 0;
  for (std::size_t s = 0; s < row.spans.size() && u < row.n; ++s) {
    const float* vbase = row.spans[s].v + v0;
    const std::size_t rows = std::min(row.spans[s].tokens, row.n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float p = row.prow[u];
      if (p == 0.0f) continue;
      const float* v = vbase + r * stride;
      for (std::size_t b = 0; b < B; ++b) {
        acc[b] = L::mul_add(acc[b], L::load(v + b * W), p);
      }
    }
  }
  for (std::size_t b = 0; b < B; ++b) L::store(ctx + b * W, acc[b]);
}

/// Every ctx[c] is Σ p_u · v_u[c] in u order, whichever block its column
/// lands in; columns past the last full lane block go serially.
template <class L>
void blend(const AttendQuery& row, std::size_t stride, std::size_t head_off,
           std::size_t hd) {
  constexpr std::size_t W = L::kWidth;
  constexpr std::size_t kBlock = 8;  // lane registers per blend pass
  std::size_t c = 0;
  for (; c + kBlock * W <= hd; c += kBlock * W) {
    blend_columns<L, kBlock>(row, stride, head_off + c, row.ctx + c);
  }
  for (; c + W <= hd; c += W) {
    blend_columns<L, 1>(row, stride, head_off + c, row.ctx + c);
  }
  for (; c < hd; ++c) {
    float acc = 0.0f;
    std::size_t u = 0;
    for (std::size_t s = 0; s < row.spans.size() && u < row.n; ++s) {
      const float* vbase = row.spans[s].v + head_off + c;
      const std::size_t rows = std::min(row.spans[s].tokens, row.n - u);
      for (std::size_t r = 0; r < rows; ++r, ++u) {
        const float p = row.prow[u];
        if (p == 0.0f) continue;
        acc += p * vbase[r * stride];
      }
    }
    row.ctx[c] = acc;
  }
}

template <class L>
void attend(std::span<const AttendQuery> rows, std::size_t stride,
            std::size_t head_off, std::size_t hd, float scale) {
  // Shared scoring only when some row shares its first page with another:
  // rows that share nothing (a decode step over unrelated caches) go
  // straight to the per-row path with no scratch.
  std::vector<std::size_t> cover;
  for (std::size_t i = 1; i < rows.size() && cover.empty(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (same_first_page(rows[j], rows[i])) {
        score_shared<L>(rows, stride, head_off, hd, scale, cover);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    score_keys<L>(rows[i], cover.empty() ? 0 : cover[i], stride, head_off,
                  hd, scale);
    exp_shifted<L>(rows[i].prow, rows[i].n);
  }
  // Softmax sums kSumRows rows at a time, then each row's normalisation
  // and V blend.
  constexpr std::size_t kSumRows = 8;
  float sums[kSumRows];
  for (std::size_t i = 0; i < rows.size(); i += kSumRows) {
    const AttendQuery* batch = rows.data() + i;
    switch (std::min(kSumRows, rows.size() - i)) {
      case 8: serial_sums<8>(batch, sums); break;
      case 7: serial_sums<7>(batch, sums); break;
      case 6: serial_sums<6>(batch, sums); break;
      case 5: serial_sums<5>(batch, sums); break;
      case 4: serial_sums<4>(batch, sums); break;
      case 3: serial_sums<3>(batch, sums); break;
      case 2: serial_sums<2>(batch, sums); break;
      default: serial_sums<1>(batch, sums);
    }
    for (std::size_t j = 0; j < kSumRows && i + j < rows.size(); ++j) {
      normalise<L>(batch[j].prow, batch[j].n, sums[j]);
      blend<L>(batch[j], stride, head_off, hd);
    }
  }
}

}  // namespace

[[gnu::noinline]] void attend_rows(std::span<const AttendQuery> rows,
                                   std::size_t stride, std::size_t head_off,
                                   std::size_t hd, float scale) {
#if defined(__AVX2__)
  attend<Lanes8>(rows, stride, head_off, hd, scale);
#else
  attend<PortableLanes>(rows, stride, head_off, hd, scale);
#endif
}

namespace detail {
void attend_rows_portable(std::span<const AttendQuery> rows,
                          std::size_t stride, std::size_t head_off,
                          std::size_t hd, float scale) {
  attend<PortableLanes>(rows, stride, head_off, hd, scale);
}

float expf_scalar(float x) {
  if (std::isnan(x)) return x + x;
  if (x > kExpOverflow) return std::numeric_limits<float>::infinity();
  if (x < kExpUnderflow) return 0.0f;  // -inf included
  const double xd = x;
  const double kd_shifted = std::fma(kInvLn2N, xd, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double kd = kd_shifted - kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kExpTab[ki % 32] + (ki << 47));
  const double z = std::fma(kC0, r, kC1);
  const double r2 = r * r;
  double y = std::fma(kC2, r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

void expf_lanes(const float* x, std::size_t n, float* out) {
#if defined(__AVX2__)
  using L = Lanes8;
#else
  using L = PortableLanes;
#endif
  std::size_t i = 0;
  for (; i + L::kWidth <= n; i += L::kWidth) {
    L::store(out + i, exp_lanes(L::load(x + i)));
  }
  for (; i < n; ++i) out[i] = expf_scalar(x[i]);
}
}  // namespace detail

[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row) {
  const std::size_t d = tok_emb.cols();
  const float* te = tok_emb.data() + static_cast<std::size_t>(id) * d;
  const float* pe = pos_emb.data() + pos * d;
  for (std::size_t c = 0; c < d; ++c) row[c] = te[c] + pe[c];
}

}  // namespace lmpeel::lm
