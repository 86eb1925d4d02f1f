#include "lm/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "glibc_fma_expf.hpp"
#include "lm/attention.hpp"
#include "mem/paged_kv.hpp"
#include "util/rng.hpp"

namespace lmpeel::lm {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.row(1)[2], 5.0f);
  t.zero();
  EXPECT_FLOAT_EQ(t.at(1, 2), 0.0f);
}

TEST(Matmul, MatchesHandComputed) {
  Tensor a(2, 3), b(3, 2), out(2, 2);
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  Tensor a(2, 3), b(2, 2), out(2, 2);
  EXPECT_THROW(matmul(a, b, out), std::runtime_error);
}

// The tied head's contract: out(i, j) is the serial dot product
// ((0 + a(i,0)·bt(j,0)) + a(i,1)·bt(j,1)) + … for every row count, so the
// batched head equals a single-row head bit for bit.  Computed here with
// plain scalar code as the reference.
float serial_dot(const Tensor& a, std::size_t i, const Tensor& bt,
                 std::size_t j) {
  float acc = 0.0f;
  for (std::size_t c = 0; c < a.cols(); ++c) acc += a.at(i, c) * bt.at(j, c);
  return acc;
}

// Bit equality, except that any NaN matches any NaN: which operand's
// payload a NaN result carries is not part of the contract.
bool same_float(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

TEST(Matmul, TransposedBBitIdenticalToSerialDot) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 17; ++m) ms.push_back(m);
  ms.push_back(33);
  util::Rng rng(11);
  std::size_t nan_outputs = 0;
  for (const std::size_t m : ms) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 1761u}) {
      for (const std::size_t k : {1u, 7u, 128u}) {
        Tensor a(m, k), bt(n, k);
        a.randomize(rng, 1.0f);
        bt.randomize(rng, 1.0f);
        // Row 0 of a is all -0.0: every product is a signed zero, and the
        // serial dot still starts from +0.0.
        std::fill_n(a.data(), k, -0.0f);
        if (m > 1) a.at(m - 1, k / 2) = kInf;  // ±inf, or NaN against a 0
        bt.at(n - 1, 0) = kNan;
        if (n > 2) bt.at(1, k - 1) = 0.0f;  // inf · 0
        Tensor simd(m, n), portable(m, n);
        matmul_transposed_b(a, bt, simd);
        detail::matmul_transposed_b_portable(a, bt, portable);
        if (n > 1) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(simd.at(0, 0)), 0u);
        }
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const float want = serial_dot(a, i, bt, j);
            nan_outputs += std::isnan(want) ? 1 : 0;
            ASSERT_TRUE(same_float(simd.at(i, j), want))
                << "m=" << m << " n=" << n << " k=" << k << " at (" << i
                << ", " << j << "): " << simd.at(i, j) << " vs " << want;
            ASSERT_TRUE(same_float(portable.at(i, j), want))
                << "portable m=" << m << " n=" << n << " k=" << k << " at ("
                << i << ", " << j << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(nan_outputs, 0u);  // the special values really reached outputs
}

// The attention kernel exactly as it was before its score loop went SIMD:
// one serial c-ascending dot per key, a running max, and a per-key V blend
// through memory.  Its exp is by default the kernel's scalar twin of
// glibc's expf (the libm it was frozen against), so the reference does not
// move with a host's libm.  The SIMD kernel must reproduce it bit for bit.
void frozen_attend_row(const float* q, const mem::KvSpan* spans,
                       std::size_t n_spans, std::size_t stride,
                       std::size_t head_off, std::size_t n, std::size_t hd,
                       float scale, float* prow, float* ctx,
                       float (*exp)(float) = detail::expf_scalar) {
  float hi = -1e30f;
  std::size_t u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* kbase = spans[s].k + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float* k = kbase + r * stride;
      float acc = 0.0f;
      for (std::size_t c = 0; c < hd; ++c) acc += q[c] * k[c];
      prow[u] = acc * scale;
      hi = std::max(hi, prow[u]);
    }
  }
  float sum = 0.0f;
  for (std::size_t w = 0; w < n; ++w) {
    prow[w] = exp(prow[w] - hi);
    sum += prow[w];
  }
  const float inv = 1.0f / sum;
  for (std::size_t w = 0; w < n; ++w) prow[w] *= inv;

  std::fill_n(ctx, hd, 0.0f);
  u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* vbase = spans[s].v + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float p = prow[u];
      if (p == 0.0f) continue;
      const float* v = vbase + r * stride;
      for (std::size_t c = 0; c < hd; ++c) ctx[c] += p * v[c];
    }
  }
}

// Key/value rows for one single-row attention case, laid out as the callers do:
// stride d with separate K and V rows (a paged cache) or stride 3d over
// packed QKV rows (forward()).  Rows have two heads and the second is
// attended, so head_off is nonzero.  Spans are stored in reverse order, so
// no kernel can get away with treating them as one contiguous run.
struct AttentionCase {
  std::size_t hd, stride, head_off, span_rows;
  std::vector<float> q, k_rows, v_rows;
  float* k_base;  // position 0 of the reversed storage, K and V
  float* v_base;
  std::vector<mem::KvSpan> spans;

  AttentionCase(std::size_t hd_, bool packed, std::size_t n,
                std::size_t span_rows_)
      : hd(hd_), head_off(hd_), span_rows(span_rows_), q(hd_) {
    const std::size_t d = 2 * hd;
    stride = packed ? 3 * d : d;
    const std::size_t n_spans = (n + span_rows - 1) / span_rows;
    k_rows.resize(n_spans * span_rows * stride);
    v_rows.resize(packed ? 0 : k_rows.size());
    k_base = k_rows.data() + (packed ? d : 0);
    v_base = packed ? k_rows.data() + 2 * d : v_rows.data();
    for (std::size_t s = 0; s < n_spans; ++s) {
      const std::size_t at = (n_spans - 1 - s) * span_rows * stride;
      spans.push_back({k_base + at, v_base + at, span_rows});
    }
  }
  /// Offset of position u's attended head slice from k_base / v_base.
  std::size_t at(std::size_t u) const {
    const std::size_t slot = spans.size() - 1 - u / span_rows;
    return (slot * span_rows + u % span_rows) * stride + head_off;
  }
  float* k(std::size_t u) { return k_base + at(u); }
  float* v(std::size_t u) { return v_base + at(u); }
};

TEST(Attention, BitIdenticalToFrozenScalar) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kSentinel = 12345.0f;
  std::vector<std::size_t> ns;
  for (std::size_t n = 1; n <= 40; ++n) ns.push_back(n);
  for (const std::size_t n : {63u, 64u, 65u, 129u, 298u, 299u, 300u}) {
    ns.push_back(n);
  }
  // Where the host's expf is the glibc variant the twin recomputes, the
  // reference also runs on the libm itself and must agree with the twin's,
  // so the kernel is checked against an exp it shares no code with.
  const bool libm_is_twin = not_glibc_fma_expf().empty();
  float (*volatile libm_expf)(float) = ::expf;
  util::Rng rng(23);
  std::size_t cases = 0, nan_outputs = 0, skipped_keys = 0;
  for (const std::size_t hd : {1u, 7u, 8u, 9u, 16u, 32u, 64u, 65u}) {
    for (const bool packed : {false, true}) {
      for (const std::size_t n : ns) {
        for (const std::size_t span_rows : {1u, 5u, 8u, 16u, 0u}) {
          // span_rows 0: one span longer than n, as forward() passes.
          AttentionCase tc(hd, packed, n, span_rows == 0 ? n + 3 : span_rows);
          for (float& x : tc.q) x = static_cast<float>(rng.normal(0.0, 1.0));
          for (auto* rows : {&tc.k_rows, &tc.v_rows}) {
            for (float& x : *rows) x = static_cast<float>(rng.normal(0.0, 1.0));
          }
          const std::size_t pattern = cases++ % 4;
          // Key 0 is all -0.0: every product is a signed zero.
          std::fill_n(tc.k(0), hd, -0.0f);
          if (pattern == 1 && n > 2) {
            tc.k(n / 2)[hd / 2] = kInf;
            tc.k(n - 1)[0] = -kInf;
          } else if (pattern == 2 && n > 1) {
            tc.k(n - 1)[hd - 1] = kNan;
          } else if (pattern == 3) {
            // Denormal keys, and keys so far below the rest that their
            // probability underflows to 0 while their values are
            // non-finite: only the p == 0 skip keeps ctx finite.
            for (std::size_t u = 1; u < n; u += 3) {
              for (std::size_t c = 0; c < hd; ++c) tc.k(u)[c] *= 1e-39f;
            }
            for (std::size_t u = 2; u < n; u += 7) {
              for (std::size_t c = 0; c < hd; ++c) {
                tc.k(u)[c] = tc.q[c] < 0.0f ? 1e4f : -1e4f;
              }
              tc.v(u)[u % hd] = u % 2 == 0 ? kInf : kNan;
            }
          }
          std::vector<float> want_p(n), want_ctx(hd);
          frozen_attend_row(tc.q.data(), tc.spans.data(), tc.spans.size(),
                            tc.stride, tc.head_off, n, hd, 0.125f,
                            want_p.data(), want_ctx.data());
          if (libm_is_twin) {
            std::vector<float> libm_p(n), libm_ctx(hd);
            frozen_attend_row(tc.q.data(), tc.spans.data(), tc.spans.size(),
                              tc.stride, tc.head_off, n, hd, 0.125f,
                              libm_p.data(), libm_ctx.data(), libm_expf);
            ASSERT_TRUE(std::equal(libm_p.begin(), libm_p.end(),
                                   want_p.begin(), same_float))
                << "libm reference prow, hd=" << hd << " n=" << n;
            ASSERT_TRUE(std::equal(libm_ctx.begin(), libm_ctx.end(),
                                   want_ctx.begin(), same_float))
                << "libm reference ctx, hd=" << hd << " n=" << n;
          }
          for (const bool portable : {false, true}) {
            std::vector<float> p(n + 8, kSentinel), ctx(hd + 8, kSentinel);
            const AttendQuery row{tc.q.data(), tc.spans, n, p.data(),
                                  ctx.data()};
            (portable ? detail::attend_rows_portable : attend_rows)(
                {&row, 1}, tc.stride, tc.head_off, hd, 0.125f);
            const auto where = [&] {
              return testing::Message()
                     << (portable ? "portable " : "") << "hd=" << hd
                     << " stride=" << tc.stride << " n=" << n
                     << " span_rows=" << tc.span_rows
                     << " pattern=" << pattern;
            };
            for (std::size_t u = 0; u < n; ++u) {
              ASSERT_TRUE(same_float(p[u], want_p[u]))
                  << where() << " prow[" << u << "]: " << p[u] << " vs "
                  << want_p[u];
            }
            for (std::size_t c = 0; c < hd; ++c) {
              ASSERT_TRUE(same_float(ctx[c], want_ctx[c]))
                  << where() << " ctx[" << c << "]: " << ctx[c] << " vs "
                  << want_ctx[c];
            }
            const auto untouched = [&](const std::vector<float>& buf,
                                       std::size_t from) {
              return std::all_of(buf.begin() + from, buf.end(),
                                 [&](float x) { return x == kSentinel; });
            };
            ASSERT_TRUE(untouched(p, n)) << where() << " wrote past prow";
            ASSERT_TRUE(untouched(ctx, hd)) << where() << " wrote past ctx";
          }
          for (std::size_t u = 0; u < n; ++u) {
            skipped_keys +=
                want_p[u] == 0.0f && !std::isfinite(tc.v(u)[u % hd]);
          }
          for (const float x : want_ctx) nan_outputs += std::isnan(x);
        }
      }
    }
  }
  // The special values really reached the outputs and the p == 0 skip.
  EXPECT_GT(nan_outputs, 0u);
  EXPECT_GT(skipped_keys, 0u);
}

// A batch of query rows for one attend_rows call, built the way the
// callers build theirs.  Pages hold `page_rows` K rows then as many V rows,
// `stride` floats apart, and the attended head is the second of two.
// Sharing modes:
//   kNone     every row reads its own pages (a decode step over unrelated
//             caches);
//   kChunk    every row reads one page list, row t over base + t + 1
//             positions (a prefill chunk);
//   kSiblings rows fall in two groups that share a few leading pages
//             (possibly a partial last one) plus rows sharing nothing, and
//             each row continues on pages of its own, some rows stopping
//             inside the shared pages (decode siblings on prefix-cache
//             hits);
//   kForward  one span over packed QKV rows, stride 3d, row t over t + 1
//             positions (forward()).
enum class Sharing { kNone, kChunk, kSiblings, kForward };

struct RowsCase {
  std::size_t hd, stride, head_off, page_rows;
  std::vector<std::vector<float>> pages;  // owned K/V storage
  std::vector<std::vector<mem::KvSpan>> spans;
  std::vector<std::vector<float>> q;
  std::vector<std::size_t> n;

  RowsCase(std::size_t hd_, std::size_t page_rows_, Sharing sharing,
           std::size_t rows, util::Rng& rng)
      : hd(hd_), head_off(hd_), page_rows(page_rows_) {
    const std::size_t d = 2 * hd;
    stride = sharing == Sharing::kForward ? 3 * d : d;
    const auto normal = [&] { return static_cast<float>(rng.normal(0, 1)); };
    const auto new_pages = [&](std::size_t count, std::size_t last_tokens) {
      std::vector<mem::KvSpan> out;
      for (std::size_t p = 0; p < count; ++p) {
        auto& page = pages.emplace_back(2 * page_rows * stride);
        for (float& x : page) x = normal();
        out.push_back({page.data(), page.data() + page_rows * stride,
                       p + 1 == count ? last_tokens : page_rows});
      }
      return out;
    };
    const auto pick = [&](std::size_t lo, std::size_t hi) {
      return static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    };
    spans.resize(rows);
    n.resize(rows);
    q.assign(rows, std::vector<float>(hd));
    for (auto& row : q) {
      for (float& x : row) x = normal();
    }
    switch (sharing) {
      case Sharing::kNone:
        for (std::size_t r = 0; r < rows; ++r) {
          n[r] = pick(1, 3 * page_rows + 2);
          const std::size_t count = (n[r] + page_rows - 1) / page_rows;
          spans[r] = new_pages(count, n[r] - (count - 1) * page_rows);
        }
        break;
      case Sharing::kChunk: {
        const std::size_t base = pick(0, 5 * page_rows);
        const std::size_t total = base + rows;
        const std::size_t count = (total + page_rows - 1) / page_rows;
        const auto shared = new_pages(count, total - (count - 1) * page_rows);
        for (std::size_t r = 0; r < rows; ++r) {
          spans[r] = shared;
          n[r] = base + r + 1;
        }
        break;
      }
      case Sharing::kSiblings: {
        std::vector<mem::KvSpan> prefix[2];
        for (auto& p : prefix) {
          // A full-page prefix, or one ending on a partial page.
          const std::size_t count = pick(1, 4);
          p = new_pages(count, pick(0, 1) == 0 ? page_rows
                                               : pick(1, page_rows));
        }
        for (std::size_t r = 0; r < rows; ++r) {
          if (r % 3 == 2) {  // shares nothing
            n[r] = pick(1, 3 * page_rows);
            const std::size_t count = (n[r] + page_rows - 1) / page_rows;
            spans[r] = new_pages(count, n[r] - (count - 1) * page_rows);
            continue;
          }
          spans[r] = prefix[r % 3];
          const std::size_t own = pick(0, 2);
          if (own > 0) {
            const auto tail = new_pages(own, pick(1, page_rows));
            spans[r].insert(spans[r].end(), tail.begin(), tail.end());
          }
          std::size_t len = 0;
          for (const auto& s : spans[r]) len += s.tokens;
          // Stop anywhere from inside the shared pages to the very end.
          n[r] = pick(1, len);
        }
        break;
      }
      case Sharing::kForward: {
        auto& packed = pages.emplace_back(rows * stride);
        for (float& x : packed) x = normal();
        const mem::KvSpan span{packed.data() + d, packed.data() + 2 * d,
                               rows};
        for (std::size_t r = 0; r < rows; ++r) {
          spans[r] = {span};
          n[r] = r + 1;
        }
        break;
      }
    }
  }

  /// Visits every distinct key row as (K row, V row) head slices.
  template <class F>
  void for_each_key(F&& f) {
    std::vector<const float*> seen;
    for (const auto& row_spans : spans) {
      for (const mem::KvSpan& s : row_spans) {
        if (std::find(seen.begin(), seen.end(), s.k) != seen.end()) continue;
        seen.push_back(s.k);
        for (std::size_t r = 0; r < s.tokens; ++r) {
          f(const_cast<float*>(s.k) + r * stride + head_off,
            const_cast<float*>(s.v) + r * stride + head_off);
        }
      }
    }
  }
};

TEST(Attention, RowsMatchFrozenRows) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kSentinel = 12345.0f;
  util::Rng rng(29);
  std::size_t cases = 0, nan_outputs = 0, zero_probs = 0;
  for (const std::size_t hd : {1u, 7u, 8u, 9u, 16u, 32u, 64u, 65u}) {
    for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 8u, 24u, 33u}) {
      for (const Sharing sharing : {Sharing::kNone, Sharing::kChunk,
                                    Sharing::kSiblings, Sharing::kForward}) {
        for (const std::size_t page_rows : {5u, 8u, 16u}) {
          if (sharing == Sharing::kForward && page_rows != 16) continue;
          RowsCase tc(hd, page_rows, sharing, rows, rng);
          const std::size_t pattern = cases++ % 4;
          std::size_t key = 0;
          tc.for_each_key([&](float* k, float* v) {
            if (key % 19 == 0) std::fill_n(k, hd, -0.0f);
            if (pattern == 1 && key % 23 == 5) k[hd / 2] = kInf;
            if (pattern == 1 && key % 29 == 7) k[0] = -kInf;
            if (pattern == 2 && key % 31 == 11) k[hd - 1] = kNan;
            if (pattern == 3 && key % 3 == 1) {
              for (std::size_t c = 0; c < hd; ++c) k[c] *= 1e-39f;
            }
            if (pattern == 3 && key % 7 == 2) {
              // Far below row 0's other scores: p underflows to 0, and
              // only the p == 0 skip keeps its non-finite value out.
              for (std::size_t c = 0; c < hd; ++c) {
                k[c] = tc.q[0][c] < 0.0f ? 1e4f : -1e4f;
              }
              v[key % hd] = key % 2 == 0 ? kInf : kNan;
            }
            ++key;
          });

          std::vector<std::vector<float>> want_p(rows), want_ctx(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            want_p[r].resize(tc.n[r]);
            want_ctx[r].resize(hd);
            frozen_attend_row(tc.q[r].data(), tc.spans[r].data(),
                              tc.spans[r].size(), tc.stride, tc.head_off,
                              tc.n[r], hd, 0.125f, want_p[r].data(),
                              want_ctx[r].data());
            for (const float x : want_ctx[r]) nan_outputs += std::isnan(x);
            for (const float x : want_p[r]) zero_probs += x == 0.0f;
          }
          for (const bool portable : {false, true}) {
            std::vector<std::vector<float>> p(rows), ctx(rows);
            std::vector<AttendQuery> queries(rows);
            for (std::size_t r = 0; r < rows; ++r) {
              p[r].assign(tc.n[r] + 8, kSentinel);
              ctx[r].assign(hd + 8, kSentinel);
              queries[r] = {tc.q[r].data(), tc.spans[r], tc.n[r],
                            p[r].data(), ctx[r].data()};
            }
            (portable ? detail::attend_rows_portable : attend_rows)(
                queries, tc.stride, tc.head_off, hd, 0.125f);
            for (std::size_t r = 0; r < rows; ++r) {
              const auto where = [&] {
                return testing::Message()
                       << (portable ? "portable " : "") << "hd=" << hd
                       << " rows=" << rows << " sharing="
                       << static_cast<int>(sharing)
                       << " page_rows=" << page_rows
                       << " pattern=" << pattern << " row=" << r
                       << " n=" << tc.n[r];
              };
              for (std::size_t u = 0; u < tc.n[r]; ++u) {
                ASSERT_TRUE(same_float(p[r][u], want_p[r][u]))
                    << where() << " prow[" << u << "]: " << p[r][u]
                    << " vs " << want_p[r][u];
              }
              for (std::size_t c = 0; c < hd; ++c) {
                ASSERT_TRUE(same_float(ctx[r][c], want_ctx[r][c]))
                    << where() << " ctx[" << c << "]: " << ctx[r][c]
                    << " vs " << want_ctx[r][c];
              }
              ASSERT_TRUE(std::all_of(p[r].begin() + tc.n[r], p[r].end(),
                                      [](float x) { return x == kSentinel; }))
                  << where() << " wrote past prow";
              ASSERT_TRUE(std::all_of(ctx[r].begin() + hd, ctx[r].end(),
                                      [](float x) { return x == kSentinel; }))
                  << where() << " wrote past ctx";
            }
          }
        }
      }
    }
  }
  // The special values really reached the outputs and the p == 0 skip.
  EXPECT_GT(nan_outputs, 0u);
  EXPECT_GT(zero_probs, 0u);
}

// The softmax's lane exp against its scalar twin: every lane position and
// every tail length, over special values, both overflow/underflow edges
// and the ordinary range.
TEST(Exp, LanesMatchScalar) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {
      -0.0f, 0.0f, -kInf, kInf, std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(), -1e-40f, -1e-7f, 1e-7f,
      -87.9f, -88.0f, -88.5f, -103.0f, -103.27893f, -103.97208f,
      std::nextafter(-0x1.9fe368p6f, 0.0f), -0x1.9fe368p6f,
      std::nextafter(-0x1.9fe368p6f, -kInf), -150.0f, -1e30f,
      std::numeric_limits<float>::lowest(), 88.0f, 88.5f,
      std::nextafter(0x1.62e42ep6f, 0.0f), 0x1.62e42ep6f,
      std::nextafter(0x1.62e42ep6f, kInf), 1e30f,
      std::numeric_limits<float>::max()};
  util::Rng rng(31);
  std::size_t checked = 0;
  for (const float special : specials) {
    for (std::size_t n = 1; n <= 24; ++n) {
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<float> x(n), out(n + 1, 12345.0f);
        for (float& v : x) v = static_cast<float>(rng.uniform(-110.0, 95.0));
        x[at] = special;
        detail::expf_lanes(x.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          const float want = detail::expf_scalar(x[i]);
          ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                    std::bit_cast<std::uint32_t>(want))
              << "n=" << n << " i=" << i << " x=" << x[i] << ": " << out[i]
              << " vs " << want;
          ++checked;
        }
        ASSERT_EQ(out[n], 12345.0f) << "wrote past the end, n=" << n;
      }
    }
  }
  // The ordinary softmax range, densely.
  std::vector<float> x(1 << 16), out(x.size());
  for (float& v : x) v = -static_cast<float>(rng.uniform(0.0, 30.0));
  detail::expf_lanes(x.data(), x.size(), out.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(detail::expf_scalar(x[i])))
        << "x=" << x[i];
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(detail::expf_scalar(0.0f), 1.0f);
  EXPECT_EQ(detail::expf_scalar(-kInf), 0.0f);
  EXPECT_EQ(detail::expf_scalar(kInf), kInf);
}

TEST(MatmulGrads, ConsistentWithFiniteDifferences) {
  // d/dA sum(A*B) and d/dB sum(A*B) against numeric perturbation.
  util::Rng rng(1);
  Tensor a(3, 4), b(4, 2), out(3, 2);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  matmul(a, b, out);

  // loss = sum(out); dOut = ones.
  Tensor dout(3, 2);
  for (std::size_t i = 0; i < dout.size(); ++i) dout.data()[i] = 1.0f;
  Tensor da(3, 4), db(4, 2);
  matmul_grad_a(dout, b, da);
  matmul_grad_b(a, dout, db);

  const float eps = 1e-2f;
  auto loss = [&] {
    Tensor tmp(3, 2);
    matmul(a, b, tmp);
    float s = 0.0f;
    for (std::size_t i = 0; i < tmp.size(); ++i) s += tmp.data()[i];
    return s;
  };
  for (const std::size_t i : {0u, 5u, 11u}) {
    const float orig = a.data()[i];
    a.data()[i] = orig + eps;
    const float up = loss();
    a.data()[i] = orig - eps;
    const float down = loss();
    a.data()[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), da.data()[i], 1e-2f);
  }
  for (const std::size_t i : {0u, 3u, 7u}) {
    const float orig = b.data()[i];
    b.data()[i] = orig + eps;
    const float up = loss();
    b.data()[i] = orig - eps;
    const float down = loss();
    b.data()[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), db.data()[i], 1e-2f);
  }
}

TEST(LayerNorm, NormalisesRows) {
  Tensor x(2, 4), y(2, 4);
  const float xv[] = {1, 2, 3, 4, 10, 10, 10, 10};
  std::copy(xv, xv + 8, x.data());
  std::vector<float> gamma(4, 1.0f), beta(4, 0.0f);
  LayerNormCache cache;
  layer_norm(x, gamma, beta, y, cache);
  // Row 0: mean 2.5, normalised values symmetric around 0.
  float mean = 0.0f, var = 0.0f;
  for (std::size_t c = 0; c < 4; ++c) mean += y.at(0, c);
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  for (std::size_t c = 0; c < 4; ++c) var += y.at(0, c) * y.at(0, c);
  EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  // Constant row maps to beta (zero).
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(y.at(1, c), 0.0f, 1e-2f);
}

TEST(LayerNorm, GammaBetaApplied) {
  Tensor x(1, 2), y(1, 2);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 1.0f;
  std::vector<float> gamma{2.0f, 2.0f}, beta{1.0f, 1.0f};
  LayerNormCache cache;
  layer_norm(x, gamma, beta, y, cache);
  EXPECT_NEAR(y.at(0, 0), 1.0f - 2.0f, 1e-4f);
  EXPECT_NEAR(y.at(0, 1), 1.0f + 2.0f, 1e-4f);
}

TEST(Gelu, KnownPointsAndMonotoneRegion) {
  Tensor x(1, 3), y(1, 3);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 10.0f;
  x.at(0, 2) = -10.0f;
  gelu(x, y);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 1), 10.0f, 1e-3f);
  EXPECT_NEAR(y.at(0, 2), 0.0f, 1e-3f);
}

TEST(GeluBackward, MatchesFiniteDifference) {
  Tensor x(1, 5), y(1, 5), dy(1, 5), dx(1, 5);
  const float xv[] = {-2.0f, -0.5f, 0.0f, 0.7f, 2.0f};
  std::copy(xv, xv + 5, x.data());
  for (std::size_t i = 0; i < 5; ++i) dy.data()[i] = 1.0f;
  gelu_backward(x, dy, dx);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 5; ++i) {
    Tensor xp = x, xm = x, yp(1, 5), ym(1, 5);
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    gelu(xp, yp);
    gelu(xm, ym);
    const float fd = (yp.data()[i] - ym.data()[i]) / (2 * eps);
    EXPECT_NEAR(fd, dx.data()[i], 1e-3f);
  }
}

TEST(SoftmaxRows, RowsSumToOne) {
  Tensor x(2, 3);
  const float xv[] = {1, 2, 3, -1, 0, 1};
  std::copy(xv, xv + 6, x.data());
  softmax_rows(x);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      sum += x.at(r, c);
      EXPECT_GT(x.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(x.at(0, 2), x.at(0, 1));
}

TEST(Randomize, ApproximateMoments) {
  util::Rng rng(5);
  Tensor t(100, 100);
  t.randomize(rng, 0.5f);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t.data()[i];
    sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.01);
  EXPECT_NEAR(sq / t.size(), 0.25, 0.01);
}

}  // namespace
}  // namespace lmpeel::lm
