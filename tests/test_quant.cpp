// lmpeel::quant — quantized inference backend (DESIGN.md §17).
//
// The load-bearing claims, in dependency order:
//   * fp16 conversion: float_to_half is round-to-nearest-even and
//     half_to_float is exact, so the round trip half→float→half is the
//     identity for every non-NaN bit pattern (checked exhaustively);
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

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
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

// Every arch's int8 GEMM must produce the same int32 accumulations — the
// products are exact in int32 and addition is associative there, so wider
// lanes cannot change the result.  Ragged k values cover the 16- and
// 32-lane tails of the AVX2/AVX-512 kernels.
TEST(Kernels, I8GemmIdenticalAcrossArchs) {
  util::Rng rng(11);
  for (const std::size_t k : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 70u}) {
    const std::size_t m = 3, n = 5;
    std::vector<std::int8_t> a(m * k), bt(n * k);
    for (auto& v : a) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next() % 255) - 127);
    }
    for (auto& v : bt) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next() % 255) - 127);
    }
    std::vector<std::int32_t> ref(m * n);
    kernels(Arch::kScalar).i8_gemm(a.data(), m, bt.data(), n, k, ref.data());
    // Independent exactness check of the scalar kernel itself.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        std::int64_t want = 0;
        for (std::size_t c = 0; c < k; ++c) {
          want += static_cast<std::int64_t>(a[i * k + c]) * bt[j * k + c];
        }
        EXPECT_EQ(ref[i * n + j], want) << "k=" << k;
      }
    }
    for (const Arch arch : supported_archs()) {
      std::vector<std::int32_t> got(m * n, -1);
      kernels(arch).i8_gemm(a.data(), m, bt.data(), n, k, got.data());
      EXPECT_EQ(got, ref) << "arch " << arch_name(arch) << " k=" << k;
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
