// Micro-benchmarks of the substrates (google-benchmark): tokenizer
// throughput, induction-model logit computation, transformer forward pass,
// paged attention, the tied output head, the int8 GEMM kernel on every
// arch, temperature sampling, GBT
// training, syr2k model evaluation, dataset generation, trace-step
// construction and haystack enumeration.  These validate that the
// HPC-parallel substrate is fast enough for the paper-scale sweeps and
// catch performance regressions.
#include <benchmark/benchmark.h>

#include <array>

#include "core/pipeline.hpp"
#include "gbt/booster.hpp"
#include "haystack/decoding_set.hpp"
#include "lm/attention.hpp"
#include "lm/generate.hpp"
#include "lm/sampler.hpp"
#include "lm/tensor.hpp"
#include "lm/trace.hpp"
#include "lm/transformer.hpp"
#include "mem/paged_kv.hpp"
#include "perf/dataset.hpp"
#include "quant/arch.hpp"
#include "quant/kernels.hpp"
#include "quant/qtensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmpeel;

core::Pipeline& shared_pipeline() {
  static core::Pipeline pipeline;
  return pipeline;
}

void BM_TokenizerEncode(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(data.samples().begin(),
                                     data.samples().begin() + 10);
  const std::string text = builder.user_text(examples, data[77].config);
  std::size_t tokens = 0;
  for (auto _ : state) {
    const auto ids = pipeline.tokenizer().encode(text);
    benchmark::DoNotOptimize(ids.data());
    tokens += ids.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tokens));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_TokenizerEncode);

void BM_InductionNextLogits(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(
      data.samples().begin(),
      data.samples().begin() + state.range(0));
  auto ids = builder.encode(pipeline.tokenizer(), examples, data[5].config);
  ids.push_back(pipeline.tokenizer().space_token());
  std::vector<float> logits(pipeline.model().vocab_size());
  for (auto _ : state) {
    pipeline.model().next_logits(ids, /*seed=*/0, logits);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_InductionNextLogits)->Arg(10)->Arg(50)->Arg(100);

void BM_TransformerForward(benchmark::State& state) {
  lm::TransformerConfig config;
  config.vocab = 1500;
  config.d_model = 64;
  config.n_head = 4;
  config.n_layer = 2;
  config.max_seq = 128;
  lm::TransformerLm model(config, 1);
  std::vector<int> context(state.range(0));
  for (std::size_t i = 0; i < context.size(); ++i) {
    context[i] = static_cast<int>(i * 37 % config.vocab);
  }
  std::vector<float> logits(config.vocab);
  for (auto _ : state) {
    model.next_logits(context, /*seed=*/0, logits);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_TransformerForward)->Arg(32)->Arg(128);

// The f32 weight-tied output head (lm::matmul_transposed_b) at the
// serving shape — vocab 1761, d_model 128 — over 1, 8 or 32 rows: the
// per-step cost of the head in prefill (1 row) and batched decode.
void BM_TiedHead(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kVocab = 1761, kDModel = 128;
  util::Rng rng(5);
  lm::Tensor f(rows, kDModel), tok_emb(kVocab, kDModel), logits(rows, kVocab);
  f.randomize(rng, 1.0f);
  tok_emb.randomize(rng, 0.02f);
  for (auto _ : state) {
    lm::matmul_transposed_b(f, tok_emb, logits);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows * kVocab * kDModel));
}
BENCHMARK(BM_TiedHead)->Arg(1)->Arg(8)->Arg(32);

// The MLP's GELU over R rows of the serving fc1 width (4 · d_model 128):
// a decode step (R = 8) and a prefill chunk (R = 32).
void BM_Gelu(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWidth = 4 * 128;
  util::Rng rng(7);
  lm::Tensor h1(rows, kWidth), g(rows, kWidth);
  h1.randomize(rng, 1.0f);
  for (auto _ : state) {
    lm::gelu(h1, g);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows * kWidth));
}
BENCHMARK(BM_Gelu)->Arg(8)->Arg(32);

// Attention of R query rows over the same n cached positions
// (lm::attend_rows) at the serving shape — head dim 64, K/V rows of d_model
// 128 — gathered from 16-row page spans: the per-head cost a long ICL block
// puts on a decode step's sibling rows (R = 8) or a prefill chunk (R = 24),
// against a lone row (R = 1).  Items are row-keys, so items/s compares the
// per-row cost across R.
void BM_AttendRows(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kHeadDim = 64, kStride = 128, kPageRows = 16;
  util::Rng rng(13);
  const std::size_t pages = (n + kPageRows - 1) / kPageRows;
  lm::Tensor q(rows, kHeadDim), k(pages * kPageRows, kStride),
      v(pages * kPageRows, kStride);
  q.randomize(rng, 1.0f);
  k.randomize(rng, 1.0f);
  v.randomize(rng, 1.0f);
  std::vector<mem::KvSpan> spans;
  for (std::size_t p = 0; p < pages; ++p) {
    spans.push_back({k.data() + p * kPageRows * kStride,
                     v.data() + p * kPageRows * kStride, kPageRows});
  }
  lm::Tensor prow(rows, n), ctx(rows, kHeadDim);
  std::vector<lm::AttendQuery> queries;
  for (std::size_t r = 0; r < rows; ++r) {
    queries.push_back({q.row(r).data(), spans, n, prow.row(r).data(),
                       ctx.row(r).data()});
  }
  for (auto _ : state) {
    lm::attend_rows(queries, kStride, /*head_off=*/kHeadDim, kHeadDim, 0.125f);
    benchmark::DoNotOptimize(ctx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows * n));
}
BENCHMARK(BM_AttendRows)->ArgsProduct({{1, 8, 24}, {80, 1000}});

// The int8 GEMM kernel alone (quant::KernelSet::i8_gemm) at ingest's
// int8 shapes: a 32-row prefill chunk through w_qkv (k 128, n 384) and
// w_fc2 (k 512, n 128), and one decode row through w_qkv.  The last
// argument is the arch (0 scalar, 1 AVX2, 2 AVX-512); an arch the host
// cannot run is skipped.  Items are multiply-adds.
void BM_I8Gemm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto arch = static_cast<quant::Arch>(state.range(3));
  if (!quant::arch_supported(arch)) {
    state.SkipWithError("arch not supported on this host");
    return;
  }
  state.SetLabel(quant::arch_name(arch));
  util::Rng rng(17);
  auto codes = [&](std::size_t count) {
    std::vector<std::int8_t> v(count);
    for (auto& x : v) {
      x = static_cast<std::int8_t>(static_cast<int>(rng.next() % 255) - 127);
    }
    return v;
  };
  const std::vector<std::int8_t> a = codes(m * k);
  const std::vector<std::int8_t> b = codes(n * k);
  const quant::QTensor w = quant::QTensor::from_codes(n, k, b.data(), 1.0f);
  std::vector<std::int32_t> acc(m * n);
  const quant::KernelSet& ks = quant::kernels(arch);
  for (auto _ : state) {
    ks.i8_gemm(a.data(), m, w.packed(), acc.data());
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * m * n * k));
}
BENCHMARK(BM_I8Gemm)->Apply([](benchmark::internal::Benchmark* b) {
  for (const auto& [m, k, n] : {std::array<std::int64_t, 3>{32, 128, 384},
                                std::array<std::int64_t, 3>{32, 512, 128},
                                std::array<std::int64_t, 3>{1, 128, 384}}) {
    for (std::int64_t arch = 0; arch <= 2; ++arch) b->Args({m, k, n, arch});
  }
});

// One temperature-0.8 draw over a full-vocabulary logit row, the per-token
// sampling cost of a sampled (non-greedy) request.  The logits are normal
// with standard deviation arg / 100: 200 is a wide row, 23 the spread
// measured on campaign rows (logits within about 2 of each other).
void BM_SampleT08(benchmark::State& state) {
  std::vector<float> logits(1761);
  util::Rng rng(9);
  const double sd = static_cast<double>(state.range(0)) / 100.0;
  for (float& l : logits) l = static_cast<float>(rng.normal(0.0, sd));
  const lm::SamplerConfig config{0.8, 0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm::sample(logits, config, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleT08)->ArgName("sd_x100")->Arg(200)->Arg(23);

void BM_GbtFit(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  const auto x = data.feature_matrix();
  const auto y = data.targets();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = perf::ConfigSpace::kNumFeatures;
  const std::vector<double> tx(x.begin(), x.begin() + rows * cols);
  const std::vector<double> ty(y.begin(), y.begin() + rows);
  gbt::BoosterParams params;
  params.n_estimators = 50;
  params.max_depth = 5;
  for (auto _ : state) {
    gbt::GradientBoostedTrees model;
    model.fit(tx, cols, ty, params, 1);
    benchmark::DoNotOptimize(model.n_trees());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_GbtFit)->Arg(500)->Arg(2000);

void BM_Syr2kEvaluate(benchmark::State& state) {
  const perf::Syr2kModel model;
  const perf::ConfigSpace space;
  std::size_t i = 0;
  for (auto _ : state) {
    const double t = model.expected_runtime(
        space.at(i % space.size()), perf::SizeClass::XL);
    benchmark::DoNotOptimize(t);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Syr2kEvaluate);

void BM_DatasetGenerate(benchmark::State& state) {
  const perf::Syr2kModel model;
  for (auto _ : state) {
    const auto data =
        perf::Dataset::generate(model, perf::SizeClass::SM, 42);
    benchmark::DoNotOptimize(data.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * perf::kSpaceSize));
}
BENCHMARK(BM_DatasetGenerate)->Unit(benchmark::kMillisecond);

// One recorded trace step over a random-init-like logit row (nearly every
// entry clears kSelectableProb), i.e. the per-token cost a traced request
// pays on top of sampling.
void BM_MakeStep(benchmark::State& state) {
  std::vector<float> logits(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(7);
  for (float& l : logits) l = static_cast<float>(rng.normal());
  for (auto _ : state) {
    const lm::Step step = lm::make_step(logits, 0);
    benchmark::DoNotOptimize(step.candidates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeStep)->Arg(512);

void BM_HaystackEnumeration(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto& tz = pipeline.tokenizer();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(data.samples().begin(),
                                     data.samples().begin() + 25);
  const auto ids = builder.encode(tz, examples, data[9].config);
  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 1.0};
  gen.stop_token = tz.newline_token();
  gen.seed = 1;
  gen.record_trace = true;
  const auto generation = lm::generate(pipeline.model(), ids, gen);
  const auto span = haystack::find_value_span(generation.trace, tz);
  if (!span.has_value()) {
    state.SkipWithError("no value span");
    return;
  }
  haystack::DecodingOptions options;
  options.exact_limit = 1;  // force the Monte-Carlo path
  options.mc_samples = 5000;
  for (auto _ : state) {
    const auto set = haystack::build_decoding_set(
        generation.trace, tz, span->first, span->second, options);
    benchmark::DoNotOptimize(set.values.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * options.mc_samples));
}
BENCHMARK(BM_HaystackEnumeration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
