// lmpeel::quant — quantized inference backend (DESIGN.md §17).
//
// The load-bearing claims, in dependency order:
//   * fp16 conversion: float_to_half is round-to-nearest-even and
//     half_to_float is exact, so the round trip half→float→half is the
//     identity for every non-NaN bit pattern (checked exhaustively);
//   * activation quantization on lanes equals the frozen lrintf loop bit
//     for bit (codes and scale), NaN/inf/denormal/x.5 rows included;
//   * the packed int8 weight layout holds exactly the row-major codes,
//     their correction and error summary;
//   * int8 kernels: every compiled arch table (scalar, AVX2, AVX-512)
//     produces *identical* int32 accumulations on ragged shapes — int8
//     dot products in int32 are exact, so lane width can't change them;
//   * QuantizedLm int8 logits are bit-identical across archs (exact
//     kernels + all float pre/post work in one shared TU);
//   * prefill_from after copy_prefix reproduces a full prefill bit for
//     bit, so the prefix cache works on the quantized backend unchanged;
//   * a prefill chunk given no logits buffer appends the same K/V rows
//     as one given a buffer (f32 and int8), so mid-prompt chunks skip the
//     output head without changing anything after them;
//   * the weight-bytes gate from the ISSUE: int8 ≤ 0.55× f32, measured
//     through guard::Budget accounting rather than assumed;
//   * the serve engine runs the quantized backend end to end and its
//     batched greedy output matches serial lm::generate exactly.
//
// The test binary is registered twice in CMake: once plain and once with
// LMPEEL_FORCE_ARCH=scalar, so the scalar fallback path runs in CI even on
// AVX-512 hosts (DispatchHonoursForceEnv asserts which one is active).
#include "quant/quantized_lm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "guard/budget.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "quant/arch.hpp"
#include "quant/kernels.hpp"
#include "quant/qtensor.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace lmpeel::quant {
namespace {

lm::TransformerConfig tiny_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = 48;
  cfg.d_model = 24;  // not a multiple of 16 or 32: SIMD tails exercised
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

std::vector<Arch> supported_archs() {
  std::vector<Arch> archs{Arch::kScalar};
  if (arch_supported(Arch::kAvx2)) archs.push_back(Arch::kAvx2);
  if (arch_supported(Arch::kAvx512)) archs.push_back(Arch::kAvx512);
  return archs;
}

TEST(Fp16, RoundTripIsIdentityForEveryNonNanHalf) {
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = half_to_float(h);
    if (std::isnan(f)) continue;  // NaNs canonicalise; payload not preserved
    EXPECT_EQ(float_to_half(f), h) << "half bits 0x" << std::hex << bits;
  }
}

TEST(Fp16, ConversionRoundsToNearestEven) {
  EXPECT_EQ(float_to_half(1.0f), 0x3c00u);
  EXPECT_EQ(float_to_half(-2.0f), 0xc000u);
  EXPECT_EQ(float_to_half(65504.0f), 0x7bffu);  // largest finite half
  EXPECT_EQ(float_to_half(65520.0f), 0x7c00u);  // rounds up to +inf
  EXPECT_EQ(float_to_half(0.0f), 0x0000u);
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half; RNE keeps
  // the even mantissa.  1 + 3·2^-12 is above halfway and rounds up.
  EXPECT_EQ(float_to_half(1.0f + 0x1p-11f), 0x3c00u);
  EXPECT_EQ(float_to_half(1.0f + 3 * 0x1p-12f), 0x3c01u);
  // Smallest subnormal half is 2^-24; half of it rounds to zero (even).
  EXPECT_EQ(float_to_half(0x1p-24f), 0x0001u);
  EXPECT_EQ(float_to_half(0x1p-25f), 0x0000u);
  EXPECT_EQ(float_to_half(std::nanf("")) & 0x7e00u, 0x7e00u);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(float_to_half(inf), 0x7c00u);
  EXPECT_EQ(float_to_half(-inf), 0xfc00u);
}

TEST(Quantize, RowCodesAreDeterministicAndSymmetric) {
  util::Rng rng(7);
  std::vector<float> row(37);
  for (float& v : row) v = static_cast<float>(rng.normal()) * 0.3f;
  std::vector<std::int8_t> q1(row.size()), q2(row.size());
  float s1 = 0.0f, s2 = 0.0f;
  quantize_row_i8(row.data(), row.size(), q1.data(), s1);
  quantize_row_i8(row.data(), row.size(), q2.data(), s2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(q1, q2);
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_GE(q1[i], -127);
    EXPECT_LE(q1[i], 127);
    EXPECT_NEAR(static_cast<float>(q1[i]) * s1, row[i], s1 * 0.5f + 1e-6f);
  }
  // All-zero rows must not divide by zero and must code to zero.
  std::vector<float> zeros(16, 0.0f);
  std::vector<std::int8_t> qz(zeros.size(), 1);
  float sz = 1.0f;
  quantize_row_i8(zeros.data(), zeros.size(), qz.data(), sz);
  EXPECT_EQ(sz, 0.0f);
  for (const std::int8_t c : qz) EXPECT_EQ(c, 0);
}

// Frozen reference for the activation quantizer: the portable loop, libm's
// lrintf per element.  quantize_row_i8 must reproduce its codes and scale
// bit for bit on every target, lanes or not.
void frozen_quantize_row(const float* a, std::size_t k, std::int8_t* q,
                         float& scale) {
  float hi = 0.0f;
  for (std::size_t c = 0; c < k; ++c) hi = std::max(hi, std::abs(a[c]));
  scale = hi / 127.0f;
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  for (std::size_t c = 0; c < k; ++c) {
    const long r = std::lrintf(a[c] * inv);
    q[c] = static_cast<std::int8_t>(std::clamp<long>(r, -127, 127));
  }
}

TEST(Quantize, RowMatchesFrozenLrintfLoop) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  util::Rng rng(19);
  for (const std::size_t k : {1u, 15u, 16u, 17u, 128u, 512u}) {
    // Each case fills a row of length k; `at` is a spot inside it.
    std::vector<std::vector<float>> rows;
    auto row = [&](auto fill) {
      std::vector<float> r(k);
      for (std::size_t c = 0; c < k; ++c) r[c] = fill(c);
      rows.push_back(std::move(r));
    };
    row([&](std::size_t) { return static_cast<float>(rng.normal()); });
    row([&](std::size_t) { return 0.0f; });
    row([&](std::size_t c) { return c % 2 ? -0.0f : 0.0f; });
    // Max 127 makes scale exactly 1, so c - 63.5 lands on x.5 after
    // scaling: ties must go to even, as lrintf takes them.
    row([&](std::size_t c) {
      return c == 0 ? 127.0f : static_cast<float>(c % 128) - 63.5f;
    });
    row([&](std::size_t c) {
      return c == 0 ? -127.0f : 0.5f * static_cast<float>(c % 255) - 63.5f;
    });
    row([&](std::size_t c) {
      return static_cast<float>(c % 7) * denorm * (c % 2 ? -1.0f : 1.0f);
    });
    row([&](std::size_t c) {
      return c % 3 == 0 ? denorm * 100.0f : static_cast<float>(c) * 1e-42f;
    });
    for (const float special : {nan, inf, -inf}) {
      for (const std::size_t at : {std::size_t{0}, k / 2, k - 1}) {
        row([&](std::size_t c) {
          return c == at ? special : static_cast<float>(rng.normal());
        });
      }
    }
    row([&](std::size_t c) { return c % 2 ? nan : inf; });
    row([&](std::size_t) { return nan; });
    for (const auto& r : rows) {
      std::vector<std::int8_t> want(k), got(k, 99);
      float want_scale = -1.0f, got_scale = -2.0f;
      frozen_quantize_row(r.data(), k, want.data(), want_scale);
      quantize_row_i8(r.data(), k, got.data(), got_scale);
      EXPECT_EQ(std::memcmp(&got_scale, &want_scale, sizeof(float)), 0)
          << "k=" << k << " scale " << got_scale << " vs " << want_scale;
      EXPECT_EQ(got, want) << "k=" << k;
    }
  }
  // NaN codes to -127, as lrintf's LONG_MIN clamps.
  std::vector<float> one_nan(16, 1.0f);
  one_nan[5] = nan;
  std::vector<std::int8_t> q(16);
  float s = 0.0f;
  quantize_row_i8(one_nan.data(), 16, q.data(), s);
  EXPECT_EQ(q[5], -127);
  EXPECT_EQ(q[4], 127);
}

std::vector<std::int8_t> random_codes(util::Rng& rng, std::size_t count) {
  std::vector<std::int8_t> v(count);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.next() % 255) - 127);
  }
  return v;
}

// Every arch's int8 GEMM must produce the same int32 accumulations — the
// products are exact in int32 and addition is associative there, so wider
// lanes and the AVX-512 kernel's u8 offset and correction cannot change
// the result.  The shapes cover whole register blocks and every tail:
// rows past a multiple of 4, columns past a multiple of 16 (and of 64),
// k past a multiple of 4 (the packed group) and of 64.
TEST(Kernels, I8GemmIdenticalAcrossArchs) {
  util::Rng rng(11);
  const std::size_t ms[] = {1, 2, 4, 5, 8, 9, 32, 33};
  const std::size_t ns[] = {1, 5, 16, 17, 64, 385};
  const std::size_t ks[] = {1, 3, 4, 5, 31, 32, 33, 128, 130, 512};
  for (const std::size_t m : ms) {
    for (const std::size_t n : ns) {
      for (const std::size_t k : ks) {
        // Random codes, then the extremes: +127 and -127 everywhere, and
        // mixed signs at full scale (the offset activation reaches 1 and
        // 255).
        for (int fill = 0; fill < 4; ++fill) {
          std::vector<std::int8_t> a = random_codes(rng, m * k);
          std::vector<std::int8_t> b = random_codes(rng, n * k);
          if (fill == 1 || fill == 2) {
            const std::int8_t v = fill == 1 ? 127 : -127;
            std::fill(a.begin(), a.end(), v);
            std::fill(b.begin(), b.end(), v);
          } else if (fill == 3) {
            for (std::size_t i = 0; i < a.size(); ++i) {
              a[i] = i % 3 ? 127 : -127;
            }
            for (std::size_t i = 0; i < b.size(); ++i) {
              b[i] = i % 2 ? -127 : 127;
            }
          }
          const QTensor w = QTensor::from_codes(n, k, b.data(), 1.0f);
          std::vector<std::int32_t> want(m * n);
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              std::int64_t sum = 0;
              for (std::size_t c = 0; c < k; ++c) {
                sum += static_cast<std::int64_t>(a[i * k + c]) * b[j * k + c];
              }
              want[i * n + j] = static_cast<std::int32_t>(sum);
            }
          }
          for (const Arch arch : supported_archs()) {
            std::vector<std::int32_t> got(m * n, -1);
            kernels(arch).i8_gemm(a.data(), m, w.packed(), got.data());
            ASSERT_EQ(got, want) << "arch " << arch_name(arch) << " m=" << m
                                 << " n=" << n << " k=" << k
                                 << " fill=" << fill;
          }
        }
      }
    }
  }
}

// The packed layout is a reordering, nothing more: every code, the
// correction, the embedding rows read from it and the error summary
// equal a frozen row-major [n][k] copy quantized with lrintf code by code.
TEST(QTensor, PackedLayoutRoundTripsFrozenRowMajorCopy) {
  util::Rng rng(23);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{48, 24},
        {17, 5},
        {1, 1},
        {33, 130}}) {
    lm::Tensor w(rows, cols);
    w.randomize(rng, 0.5f);
    // from_rows: column j of the packed matmul is row j of w (tok_emb,
    // read back by the embedding); from_matmul_weights: w is [k, n].
    for (const bool as_rows : {true, false}) {
      SCOPED_TRACE(as_rows ? "from_rows" : "from_matmul_weights");
      const QTensor t = as_rows ? QTensor::from_rows(w)
                                : QTensor::from_matmul_weights(w);
      const std::size_t n = as_rows ? rows : cols;
      const std::size_t k = as_rows ? cols : rows;
      ASSERT_EQ(t.n, n);
      ASSERT_EQ(t.k, k);
      float hi = 0.0f;
      for (std::size_t i = 0; i < w.size(); ++i) {
        hi = std::max(hi, std::abs(w.data()[i]));
      }
      const float scale = hi / 127.0f;
      EXPECT_EQ(t.scale, scale);
      const float inv = 1.0f / scale;
      auto orig = [&](std::size_t j, std::size_t c) {
        return as_rows ? w.at(j, c) : w.at(c, j);
      };
      std::vector<std::int8_t> frozen(n * k);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t c = 0; c < k; ++c) {
          const long r = std::lrintf(orig(j, c) * inv);
          frozen[j * k + c] =
              static_cast<std::int8_t>(std::clamp<long>(r, -127, 127));
        }
      }
      double sq = 0.0;
      float max_err = 0.0f;
      for (std::size_t j = 0; j < n; ++j) {
        std::int32_t sum = 0;
        for (std::size_t c = 0; c < k; ++c) {
          const std::int8_t q = frozen[j * k + c];
          ASSERT_EQ(t.code(j, c), q) << "j=" << j << " c=" << c;
          // The embedding row of token j, as QuantizedLm::embed reads it.
          EXPECT_EQ(static_cast<float>(t.code(j, c)) * t.scale,
                    static_cast<float>(q) * scale);
          const float err =
              std::abs(orig(j, c) - static_cast<float>(q) * scale);
          max_err = std::max(max_err, err);
          sq += static_cast<double>(err) * err;
          sum += q;
        }
        EXPECT_EQ(t.corr[j], 128 * sum) << "j=" << j;
      }
      EXPECT_EQ(t.max_abs_error, max_err);
      EXPECT_EQ(t.rms_error,
                std::sqrt(sq / static_cast<double>(w.size())));
      // Padding is zero: codes past n and past k, and their correction.
      const std::size_t n_pad = i8_padded_cols(n);
      ASSERT_EQ(t.codes.size(), i8_k_groups(k) * n_pad * kI8PackK);
      ASSERT_EQ(t.corr.size(), n_pad);
      for (std::size_t c = 0; c < i8_k_groups(k) * kI8PackK; ++c) {
        for (std::size_t j = 0; j < n_pad; ++j) {
          if (c < k && j < n) continue;
          EXPECT_EQ(t.codes[i8_code_index(c, j, n_pad)], 0);
        }
      }
      for (std::size_t j = n; j < n_pad; ++j) EXPECT_EQ(t.corr[j], 0);
    }
  }
}

// fp16 GEMM accumulates f32 in arch-specific lane order, so cross-arch
// equality is only approximate — but every arch must agree with a
// double-precision reference to f32 rounding error.
TEST(Kernels, F16GemmMatchesReferenceOnEveryArch) {
  util::Rng rng(13);
  for (const std::size_t k : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 40u}) {
    const std::size_t m = 2, n = 4;
    std::vector<float> a(m * k);
    std::vector<std::uint16_t> bt(n * k);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : bt) {
      v = float_to_half(static_cast<float>(rng.normal()) * 0.2f);
    }
    for (const Arch arch : supported_archs()) {
      std::vector<float> out(m * n);
      kernels(arch).f16_gemm(a.data(), m, bt.data(), n, k, out.data());
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double want = 0.0;
          for (std::size_t c = 0; c < k; ++c) {
            want += static_cast<double>(a[i * k + c]) *
                    half_to_float(bt[j * k + c]);
          }
          EXPECT_NEAR(out[i * n + j], want, 1e-4 + 1e-5 * k)
              << "arch " << arch_name(arch) << " k=" << k;
        }
      }
    }
  }
}

TEST(Dispatch, HonoursForceEnvAndNeverExceedsHost) {
  const Arch arch = dispatched_arch();
  EXPECT_TRUE(arch_supported(arch));
  const char* force = std::getenv("LMPEEL_FORCE_ARCH");
  if (force != nullptr) {
    EXPECT_STREQ(arch_name(arch), force);
  } else {
    EXPECT_EQ(arch, best_supported_arch());
  }
  // The dispatch gauge is republished on every query.
  obs::Registry::global().reset();
  dispatched_arch();
  EXPECT_EQ(obs::Registry::global().gauge("quant.dispatch_arch").value(),
            static_cast<double>(static_cast<int>(arch)));
}

TEST(QuantizedLm, Int8LogitsBitIdenticalAcrossArchs) {
  lm::TransformerLm source(tiny_config(), 17);
  const std::vector<int> prompt{1, 9, 3, 9, 27, 4, 9, 3};
  std::vector<std::vector<float>> per_arch;
  for (const Arch arch : supported_archs()) {
    QuantizedLm q(source, WeightFormat::kInt8, arch);
    std::vector<float> logits(q.vocab_size());
    q.next_logits(prompt, /*seed=*/0, logits);
    per_arch.push_back(std::move(logits));
  }
  for (std::size_t i = 1; i < per_arch.size(); ++i) {
    // EXPECT_EQ on floats: identical bits, not just close.
    EXPECT_EQ(per_arch[i], per_arch[0])
        << "arch " << arch_name(supported_archs()[i]);
  }
}

TEST(QuantizedLm, LogitsTrackF32WithinQuantizationError) {
  lm::TransformerLm source(tiny_config(), 23);
  const std::vector<int> prompt{2, 5, 11, 5, 2, 40};
  std::vector<float> f32(source.vocab_size());
  source.next_logits(prompt, /*seed=*/0, f32);
  for (const WeightFormat format : {WeightFormat::kInt8, WeightFormat::kFp16}) {
    QuantizedLm q(source, format);
    std::vector<float> ql(q.vocab_size());
    q.next_logits(prompt, /*seed=*/0, ql);
    float max_drift = 0.0f;
    for (int v = 0; v < source.vocab_size(); ++v) {
      max_drift = std::max(max_drift, std::abs(ql[v] - f32[v]));
    }
    // Untrained tiny model logits are O(1); quantization drift must be a
    // small fraction of that (fp16 far tighter than int8).
    const float bound = format == WeightFormat::kInt8 ? 0.25f : 0.02f;
    EXPECT_LT(max_drift, bound) << format_name(format);
    EXPECT_GT(max_drift, 0.0f);  // it IS quantized — zero would mean f32
  }
}

TEST(QuantizedLm, PrefillFromAfterCopyPrefixMatchesFullPrefill) {
  lm::TransformerLm source(tiny_config(), 29);
  for (const WeightFormat format : {WeightFormat::kInt8, WeightFormat::kFp16}) {
    SCOPED_TRACE(format_name(format));
    QuantizedLm q(source, format);
    const std::vector<int> full{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
    const std::size_t split = 6;

    lm::KvCache whole;
    std::vector<float> want(q.vocab_size());
    q.prefill(whole, full, want);

    lm::KvCache prefix;
    std::vector<float> scratch(q.vocab_size());
    q.prefill(prefix, std::span<const int>(full).first(split), scratch);
    lm::KvCache forked;
    forked.copy_prefix(prefix, split);
    std::vector<float> got(q.vocab_size());
    q.prefill_from(forked, std::span<const int>(full).subspan(split), got);

    EXPECT_EQ(got, want);
    EXPECT_EQ(forked.length(), full.size());

    // And decode continues identically from either cache.
    lm::Tensor logits_a(1, static_cast<std::size_t>(q.vocab_size()));
    lm::Tensor logits_b(1, static_cast<std::size_t>(q.vocab_size()));
    lm::KvCache* wa[] = {&whole};
    lm::KvCache* wb[] = {&forked};
    const int tok[] = {7};
    q.decode_batch(wa, tok, logits_a);
    q.decode_batch(wb, tok, logits_b);
    for (std::size_t v = 0; v < logits_a.cols(); ++v) {
      EXPECT_EQ(logits_a.at(0, v), logits_b.at(0, v));
    }
  }
}

// A prompt chunk that is not the last needs no logits: prefill_from with an
// empty `out` must append the same K/V rows as with a real one, and the
// next chunk's logits must not change.  Covers the f32 backend and int8.
TEST(KvBackend, EmptyOutSkipsOnlyTheHead) {
  lm::TransformerLm f32(tiny_config(), 31);
  QuantizedLm int8(f32, WeightFormat::kInt8);
  const auto d = static_cast<std::size_t>(f32.config().d_model);
  const auto n_layer = static_cast<std::size_t>(f32.config().n_layer);
  const std::vector<int> prompt{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  const std::size_t split = 7;
  for (lm::KvBackend* backend : {static_cast<lm::KvBackend*>(&f32),
                                 static_cast<lm::KvBackend*>(&int8)}) {
    SCOPED_TRACE(backend->backend_name());
    const auto vocab = static_cast<std::size_t>(backend->vocab_size());
    lm::KvCache with_out, without_out;
    std::vector<float> mid(vocab);
    backend->prefill_from(with_out, std::span<const int>(prompt).first(split),
                          mid);
    backend->prefill_from(without_out,
                          std::span<const int>(prompt).first(split), {});
    std::vector<float> want(vocab), got(vocab);
    backend->prefill_from(with_out,
                          std::span<const int>(prompt).subspan(split), want);
    backend->prefill_from(without_out,
                          std::span<const int>(prompt).subspan(split), got);
    EXPECT_EQ(got, want);
    ASSERT_EQ(without_out.length(), prompt.size());
    for (std::size_t l = 0; l < n_layer; ++l) {
      for (std::size_t pos = 0; pos < prompt.size(); ++pos) {
        EXPECT_EQ(std::memcmp(with_out.k_row(l, pos),
                              without_out.k_row(l, pos), d * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(with_out.v_row(l, pos),
                              without_out.v_row(l, pos), d * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(QuantizedLm, WeightBytesMeetGateAndAreBudgetAccounted) {
  lm::TransformerConfig cfg;
  cfg.vocab = 512;
  cfg.d_model = 96;
  cfg.n_head = 4;
  cfg.n_layer = 2;
  cfg.max_seq = 128;
  lm::TransformerLm source(cfg, 31);
  for (const WeightFormat format : {WeightFormat::kInt8, WeightFormat::kFp16}) {
    QuantizedLm q(source, format);
    EXPECT_EQ(q.f32_weight_bytes(), source.parameter_count() * sizeof(float));
    const double ratio = static_cast<double>(q.weight_bytes()) /
                         static_cast<double>(q.f32_weight_bytes());
    EXPECT_LE(ratio, 0.55) << format_name(format);  // the ISSUE gate
    guard::Budget budget(1u << 30);
    q.bind_weight_budget(&budget);
    EXPECT_EQ(budget.accounted(), q.weight_bytes());
    q.bind_weight_budget(nullptr);
    EXPECT_EQ(budget.accounted(), 0u);
  }
}

TEST(QuantizedLm, ReportsPerTensorScalesAndErrors) {
  lm::TransformerLm source(tiny_config(), 37);
  QuantizedLm q(source, WeightFormat::kInt8);
  const auto reports = q.tensor_reports();
  // tok_emb + 4 matrices per layer.
  ASSERT_EQ(reports.size(), 1u + 4u * 2u);
  for (const auto& r : reports) {
    EXPECT_GT(r.scale, 0.0f) << r.name;
    EXPECT_GT(r.bytes, 0u) << r.name;
    // Symmetric per-tensor rounding error is at most scale/2 per value.
    EXPECT_LE(r.max_abs_error, r.scale * 0.5f + 1e-6f) << r.name;
    EXPECT_LE(r.rms_error, r.max_abs_error + 1e-12) << r.name;
  }
}

// End-to-end: the serve engine batching over the quantized backend emits
// exactly what serial lm::generate over the same QuantizedLm emits — the
// engine's equivalence guarantee is backend-independent.  Prefill chunks
// shorter than every prompt put the shared body's multi-chunk
// prefill_from path under the quantized weights too.
TEST(QuantizedLm, ServeEngineGreedyMatchesSerialGenerate) {
  lm::TransformerLm source(tiny_config(), 41);
  for (const WeightFormat format : {WeightFormat::kInt8, WeightFormat::kFp16}) {
    SCOPED_TRACE(format_name(format));
    QuantizedLm q(source, format);

    std::vector<std::vector<int>> prompts;
    for (int r = 0; r < 5; ++r) {
      std::vector<int> p;
      for (int t = 0; t < 3 + r; ++t) p.push_back((r * 7 + t * 3) % 48);
      prompts.push_back(std::move(p));
    }
    lm::GenerateOptions options;
    options.sampler.temperature = 0.0;
    options.max_tokens = 8;
    std::vector<lm::Generation> expected;
    for (const auto& p : prompts) {
      expected.push_back(lm::generate(q, p, options));
    }

    serve::TransformerBatchDecoder decoder(q, 4);
    serve::EngineConfig config;
    config.max_batch = 4;
    config.prefill_chunk_tokens = 2;
    serve::Engine engine(decoder, config);
    std::vector<serve::Request> requests;
    for (const auto& p : prompts) {
      serve::Request request;
      request.prompt = p;
      request.options = options;
      requests.push_back(std::move(request));
    }
    const auto results = serve::generate_all(engine, std::move(requests));
    ASSERT_EQ(results.size(), prompts.size());
    for (std::size_t r = 0; r < results.size(); ++r) {
      ASSERT_EQ(results[r].status, serve::RequestStatus::Ok) << r;
      EXPECT_EQ(results[r].generation.tokens, expected[r].tokens) << r;
    }
  }
}

}  // namespace
}  // namespace lmpeel::quant
