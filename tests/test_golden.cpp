// Whole-model golden digests: a fixed prompt set through every inference
// path of the f32 TransformerLm and of QuantizedLm in int8 and fp16, with
// a 64-bit digest of the logit bits and the greedy tokens compared against
// values recorded in this file.  The per-kernel tests pin each kernel to a
// frozen reference; this pins what they add up to, so a change that claims
// "outputs bit-identical" is checked rather than asserted.
//
// Paths, each compared with the same recorded values:
//   * next_logits over the growing context (the serial reference);
//   * prefill_from in 32-token chunks (no logits before the last chunk),
//     then decode_batch over all prompts at once;
//   * f32 only: the training forward and backward pass (train_sequence),
//     digesting the loss and every gradient.
//
// Every parameter of the seeded model is scaled by 4 (exact: a power of
// two), so the MLP's GELU sees arguments across its whole tanh range rather
// than the narrow band a 0.02-std init gives.  d_model is odd, so the
// elementwise kernels run ragged tails.
//
// The weights are Rng::normal draws, which call the libm's double log and
// cos; glibc picks its FMA variants of those on a CPU with FMA and AVX2.
// The values below hold for that libm, so anywhere else the test skips
// and says why.  Registered once per LMPEEL_FORCE_ARCH tier the build host
// has; int8 logits are identical on every tier.  A change that moves a
// digest says why in CHANGES.md and records the printed values here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "lm/sampler.hpp"
#include "lm/transformer.hpp"
#include "quant/arch.hpp"
#include "quant/quantized_lm.hpp"

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace lmpeel {
namespace {

constexpr std::size_t kChunk = 32;  // prefill chunk, as the serve engine's
constexpr std::size_t kGreedy = 8;  // greedy tokens after each prompt

/// Empty when this host's libm draws the weights the digests were recorded
/// with, else the reason it may not.
std::string not_recorded_libm() {
#if defined(__GLIBC__) && defined(__x86_64__)
  const char* version = gnu_get_libc_version();
  int major = 0, minor = 0;
  if (std::sscanf(version, "%d.%d", &major, &minor) != 2 ||
      major * 1000 + minor < 2028) {
    return std::string("glibc ") + version +
           " predates the 2.28 log the weights are drawn through";
  }
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
    return "this CPU lacks FMA or AVX2, so glibc runs other log/cos "
           "variants than the digests were recorded with";
  }
  return "";
#else
  return "the libm is not glibc on x86-64";
#endif
}

/// Empty unless LMPEEL_FORCE_ARCH names a tier this machine cannot run.
std::string forced_arch_unavailable() {
  const char* forced = std::getenv("LMPEEL_FORCE_ARCH");
  if (forced == nullptr) return "";
  for (const quant::Arch arch :
       {quant::Arch::kScalar, quant::Arch::kAvx2, quant::Arch::kAvx512}) {
    if (std::string(forced) == quant::arch_name(arch) &&
        !quant::arch_supported(arch)) {
      return std::string("this machine cannot run the forced ") + forced +
             " tier";
    }
  }
  return "";
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325u;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3u;
    }
  }
  void add(std::span<const float> xs) {
    for (const float x : xs) add(std::bit_cast<std::uint32_t>(x));
  }
};

lm::TransformerConfig golden_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = 300;
  cfg.d_model = 45;
  cfg.n_head = 3;
  cfg.n_layer = 2;
  cfg.max_seq = 128;
  return cfg;
}

std::vector<std::vector<int>> golden_prompts(int vocab) {
  std::vector<std::vector<int>> prompts;
  for (const std::size_t len : {45u, 80u, 107u}) {
    std::vector<int> p(len);
    for (std::size_t i = 0; i < len; ++i) {
      p[i] = static_cast<int>((i * i * 7 + i * 31 + len) % vocab);
    }
    prompts.push_back(std::move(p));
  }
  return prompts;
}

lm::TransformerLm& golden_model() {
  static lm::TransformerLm model = [] {
    lm::TransformerLm m(golden_config(), /*seed=*/2024);
    for (lm::Tensor* p : m.parameters()) {
      for (std::size_t i = 0; i < p->size(); ++i) p->data()[i] *= 4.0f;
    }
    return m;
  }();
  return model;
}

struct Run {
  std::uint64_t digest = 0;
  std::vector<std::vector<int>> greedy;  // per prompt
};

/// Logits after each prompt and after each of its greedy tokens, through
/// next_logits over the whole growing context.
Run run_next_logits(lm::LanguageModel& model,
                    const std::vector<std::vector<int>>& prompts) {
  const auto vocab = static_cast<std::size_t>(model.vocab_size());
  std::vector<std::vector<float>> logits;  // [prompt * (kGreedy + 1) + step]
  Run run;
  for (const std::vector<int>& prompt : prompts) {
    std::vector<int> context = prompt;
    std::vector<int> tokens;
    for (std::size_t step = 0; step <= kGreedy; ++step) {
      std::vector<float> out(vocab);
      model.next_logits(context, /*seed=*/0, out);
      const int next = lm::sample_greedy(out);
      logits.push_back(std::move(out));
      if (step == kGreedy) break;
      tokens.push_back(next);
      context.push_back(next);
    }
    run.greedy.push_back(std::move(tokens));
  }
  Digest d;
  for (const std::vector<float>& row : logits) d.add(row);
  run.digest = d.h;
  return run;
}

/// The same logits through chunked prefill and one batched decode step per
/// greedy token, digested in run_next_logits' order.
Run run_chunked(lm::KvBackend& model,
                const std::vector<std::vector<int>>& prompts) {
  const auto vocab = static_cast<std::size_t>(model.vocab_size());
  const std::size_t n = prompts.size();
  std::vector<lm::KvCache> caches(n);
  std::vector<std::vector<std::vector<float>>> logits(n);
  std::vector<int> tokens(n);
  Run run;
  run.greedy.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    const std::span<const int> prompt = prompts[b];
    std::vector<float> out(vocab);
    for (std::size_t at = 0; at < prompt.size(); at += kChunk) {
      const std::size_t len = std::min(kChunk, prompt.size() - at);
      const bool last = at + len == prompt.size();
      model.prefill_from(caches[b], prompt.subspan(at, len),
                         last ? std::span<float>(out) : std::span<float>());
    }
    tokens[b] = lm::sample_greedy(out);
    logits[b].push_back(std::move(out));
  }
  std::vector<lm::KvCache*> ptrs;
  for (lm::KvCache& c : caches) ptrs.push_back(&c);
  lm::Tensor out(n, vocab);
  for (std::size_t step = 0; step < kGreedy; ++step) {
    for (std::size_t b = 0; b < n; ++b) run.greedy[b].push_back(tokens[b]);
    model.decode_batch(ptrs, tokens, out);
    for (std::size_t b = 0; b < n; ++b) {
      const std::span<const float> row = out.row(b);
      tokens[b] = lm::sample_greedy(row);
      logits[b].emplace_back(row.begin(), row.end());
    }
  }
  Digest d;
  for (const auto& per_prompt : logits) {
    for (const std::vector<float>& row : per_prompt) d.add(row);
  }
  run.digest = d.h;
  return run;
}

std::string tokens_text(const std::vector<std::vector<int>>& greedy) {
  std::string s;
  for (const std::vector<int>& t : greedy) {
    s += "{";
    for (std::size_t i = 0; i < t.size(); ++i) {
      s += (i ? ", " : "") + std::to_string(t[i]);
    }
    s += "} ";
  }
  return s;
}

/// The greedy continuation every model here gives: int8 and fp16 drift
/// from f32 in the logits, not in these argmaxes.
const std::vector<std::vector<int>> kGreedyTokens = {
    {185, 229, 48, 86, 152, 203, 194, 86},
    {162, 11, 203, 194, 149, 86, 230, 280},
    {133, 291, 133, 214, 280, 182, 86, 60},
};

void expect_golden(lm::LanguageModel& lm, lm::KvBackend& kv,
                   const char* label, std::uint64_t want_digest) {
  const auto prompts = golden_prompts(lm.vocab_size());
  const Run serial = run_next_logits(lm, prompts);
  const Run chunked = run_chunked(kv, prompts);
  std::printf("golden %s: digest 0x%016llx greedy %s\n", label,
              static_cast<unsigned long long>(serial.digest),
              tokens_text(serial.greedy).c_str());
  EXPECT_EQ(serial.digest, want_digest) << label << " next_logits";
  EXPECT_EQ(serial.greedy, kGreedyTokens) << label << " next_logits";
  EXPECT_EQ(chunked.digest, want_digest) << label << " chunked + batch";
  EXPECT_EQ(chunked.greedy, kGreedyTokens) << label << " chunked + batch";
}

class Golden : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string why = not_recorded_libm();
    if (why.empty()) why = forced_arch_unavailable();
    if (!why.empty()) GTEST_SKIP() << why;
  }
};

TEST_F(Golden, F32TrainingForwardAndBackward) {
  lm::TransformerLm& model = golden_model();
  Digest d;
  for (const std::vector<int>& prompt : golden_prompts(model.vocab_size())) {
    model.zero_gradients();
    d.add(std::bit_cast<std::uint64_t>(model.train_sequence(prompt)));
    for (const lm::Tensor* g : model.gradients()) {
      d.add(std::span<const float>(g->data(), g->size()));
    }
  }
  model.zero_gradients();
  std::printf("golden f32 train: digest 0x%016llx\n",
              static_cast<unsigned long long>(d.h));
  EXPECT_EQ(d.h, 0x8b93a9fad78da107u);
}

TEST_F(Golden, F32Inference) {
  lm::TransformerLm& model = golden_model();
  expect_golden(model, model, "f32", 0xcfab8a3aba886308u);
}

TEST_F(Golden, Int8Inference) {
  quant::QuantizedLm model(golden_model(), quant::WeightFormat::kInt8);
  expect_golden(model, model, "int8", 0x40f78c2fbeedf4d6u);
}

TEST_F(Golden, Fp16Inference) {
  quant::QuantizedLm model(golden_model(), quant::WeightFormat::kFp16);
  // The fp16 kernels round their dot products differently per tier.
  constexpr std::uint64_t kByArch[] = {
      0x49d348524769dee5u,  // scalar
      0x1295a2aa7b030216u,  // avx2
      0xf0976e3f991142c7u,  // avx512
  };
  expect_golden(model, model, "fp16",
                kByArch[static_cast<int>(model.arch())]);
}

}  // namespace
}  // namespace lmpeel
