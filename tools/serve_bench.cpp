// lmpeel serve-bench — closed-loop load test of the serve engine.
//
// Sweeps offered concurrency x engine max_batch over a from-scratch
// TransformerLm and reports aggregate throughput and request-latency
// percentiles per cell.  Every request generates exactly LMPEEL_SERVE_GEN
// tokens (eos stopping disabled), so tokens/sec is comparable across cells
// and the batch=1 row is the serial baseline the continuous-batching rows
// are measured against.
//
// Knobs (all env, see bench/bench_common.hpp):
//   LMPEEL_SERVE_DMODEL / _LAYERS / _HEADS / _VOCAB   model shape
//   LMPEEL_SERVE_REQUESTS / _PROMPT / _GEN            workload shape
//
// The max-concurrency rows merge into BENCH_baseline.json (keyed
// serve_bench/b<max_batch>) with tokens_per_sec / p50_ms / p99_ms values.
//
// The `prefix` workload instead measures shared-prefix KV reuse
// (DESIGN.md §12): every request repeats the same long prompt prefix with a
// short unique tail, once with the prefix cache attached and once without.
// Rows merge as serve_bench/prefix_{on,off}; generated tokens are checked
// bit-identical between the two variants.  Slots run on a paged KV pool,
// so cache-on hits are zero-copy page shares — the run asserts that pure
// hits copied zero KV bytes.
//
// The `mixed` workload contrasts the two-stage scheduler against the
// single-stage baseline (DESIGN.md §14), both on a paged pool, under
// antagonistic traffic: a few clients stream long-prompt requests while
// many stream short ones.  Single-stage admission prefills a long prompt
// in one gulp, stalling every short request behind it; chunked prefill
// bounds that stall.  Rows merge as serve_bench/mixed_{paged,single_stage}
// with short-request TTFT percentiles and decode tokens/sec; generated
// tokens are checked bit-identical between the two schedulers.
//
// The `shard` workload scales out (DESIGN.md §15): campaign-style traffic
// (a handful of shared ICL prefixes, short unique tails) through a
// shard::Router over 1 and then 3 single-threaded engine replicas, with
// client concurrency scaled to keep every replica's batch fed.  Rows merge
// as serve_bench/shard_r{1,3} with aggregate decode tokens/sec and the
// prefix-cache hit rate.  The gates: 3 replicas sustain >= 2.5x the
// aggregate decode throughput of 1 (on machines with >= 3 cores; with
// fewer the gate degrades to router overhead <= 15%), prefix affinity
// keeps the fleet hit rate no worse than the single replica's, and
// generated tokens are bit-identical across replica counts.
//
// The `recover` workload measures resurrection (DESIGN.md §16): the same
// campaign traffic over 3 replicas, then the busiest replica is killed and
// brought back through shard::Router::revive (engine restart, cache
// re-warm, probation probes, ring re-add), and the workload runs again.
// Rows merge as serve_bench/recover_mttr (kill -> Healthy seconds, probes,
// re-warmed prefixes) and serve_bench/recover_post_revive (pre/post decode
// tok/s).  The gates: the revive completes, generated tokens are
// bit-identical before and after (the resurrected replica serves the same
// answers), and — on machines with >= 3 cores — post-revive aggregate
// decode throughput holds >= 90% of pre-kill.
#include <algorithm>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/prefix_cache.hpp"
#include "guard/budget.hpp"
#include "lm/transformer.hpp"
#include "mem/page_pool.hpp"
#include "quant/arch.hpp"
#include "quant/quantized_lm.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "shard/router.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lmpeel;

struct CellResult {
  double wall_s = 0.0;
  double tokens_per_sec = 0.0;
  /// Generated tokens over the decode-step compute time alone (the
  /// serve.step span sum) — what the steady-state batch sustains once
  /// admission prefill is out of the picture.
  double decode_tokens_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Decode-only throughput from the registry of the cell that just ran.
double decode_only_tok_s() {
  auto& reg = obs::Registry::global();
  const auto decoded =
      static_cast<double>(reg.counter("lm.transformer.decode_tokens").value());
  const double step_s = reg.histogram("serve.step").sum();
  return step_s > 0.0 ? decoded / step_s : 0.0;
}

/// Whole-run SLO verdicts over the registry of the cell that just ran,
/// printed and merged into the bench baseline under `name` — one
/// value / burn / ok triple per objective, so the perf trajectory records
/// not just how fast the engine went but whether the service held its
/// objectives while doing it.
void record_slo(const std::string& name) {
  const auto snapshot =
      obs::MetricsSnapshot::from_registry(obs::Registry::global());
  const auto verdicts =
      obs::SloMonitor::evaluate(snapshot, obs::SloOptions{});
  if (verdicts.empty()) return;
  util::print_banner(std::cout, "slo verdicts (" + name + ")");
  std::cout << obs::SloMonitor::verdict_table(verdicts).to_text();
  bench::BenchRecord record;
  record.name = name;
  for (const auto& verdict : verdicts) {
    record.values.emplace_back(verdict.name, verdict.value);
    record.values.emplace_back(verdict.name + "_burn", verdict.burn);
    record.values.emplace_back(verdict.name + "_ok",
                               verdict.ok ? 1.0 : 0.0);
  }
  bench::write_bench_record(record);
}

std::vector<int> make_prompt(std::uint64_t seed, std::size_t length,
                             int vocab) {
  util::Rng rng(seed, /*stream=*/0x6e);
  std::vector<int> prompt(length);
  for (auto& id : prompt) {
    // Skip the special ids (bos/eos/roles) so prompts are plain content.
    id = static_cast<int>(rng.uniform_int(5, vocab - 1));
  }
  return prompt;
}

/// Host CPU feature level for bench-row labels: which kernel tier this
/// machine's numbers were measured on (rows from different tiers are not
/// comparable).
const char* host_cpu_arch() {
  return quant::arch_name(quant::best_supported_arch());
}

CellResult run_cell(lm::KvBackend& model, std::size_t concurrency,
                    std::size_t max_batch, std::size_t requests,
                    std::size_t prompt_len, std::size_t gen_tokens) {
  obs::Registry::global().reset();
  serve::TransformerBatchDecoder decoder(model, /*slots=*/max_batch);
  serve::EngineConfig config;
  config.max_batch = max_batch;
  // One outstanding request per client, so capacity >= concurrency means
  // QueueFull cannot fire in this closed loop.
  config.queue_capacity = std::max<std::size_t>(64, concurrency * 2);
  serve::Engine engine(decoder, config);

  util::ThreadPool clients(concurrency);
  util::Stopwatch wall;
  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(concurrency);
  for (std::size_t k = 0; k < concurrency; ++k) {
    const std::size_t lo = requests * k / concurrency;
    const std::size_t hi = requests * (k + 1) / concurrency;
    futures.push_back(clients.submit([&engine, &model, lo, hi, prompt_len,
                                      gen_tokens]() -> std::vector<double> {
      std::vector<double> latencies_ms;
      latencies_ms.reserve(hi - lo);
      for (std::size_t r = lo; r < hi; ++r) {
        const auto prompt =
            make_prompt(r, prompt_len, model.config().vocab);
        lm::GenerateOptions options;
        options.sampler.temperature = 0.0;  // greedy, deterministic
        options.stop_on_eos = false;        // fixed-length generations
        options.max_tokens = gen_tokens;
        options.seed = r;
        util::Stopwatch latency;
        const auto result = serve::generate_sync(engine, prompt, options);
        LMPEEL_CHECK_MSG(result.status == serve::RequestStatus::Ok,
                         "serve-bench request rejected");
        LMPEEL_CHECK_MSG(result.generation.tokens.size() == gen_tokens,
                         "serve-bench generation truncated");
        latencies_ms.push_back(latency.milliseconds());
      }
      return latencies_ms;
    }));
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(requests);
  for (auto& f : futures) {
    const auto client_latencies = f.get();
    latencies_ms.insert(latencies_ms.end(), client_latencies.begin(),
                        client_latencies.end());
  }
  CellResult cell;
  cell.wall_s = wall.seconds();
  cell.tokens_per_sec =
      static_cast<double>(requests * gen_tokens) / cell.wall_s;
  cell.decode_tokens_per_sec = decode_only_tok_s();
  cell.p50_ms = util::percentile(latencies_ms, 50.0);
  cell.p99_ms = util::percentile(latencies_ms, 99.0);
  return cell;
}

struct PrefixCellResult {
  CellResult cell;
  std::uint64_t prefill_tokens = 0;  ///< lm.transformer.forward_tokens
  std::uint64_t cache_hits = 0;
  std::uint64_t saved_prefill_tokens = 0;
  std::uint64_t zero_copy_hits = 0;   ///< hits served by page sharing
  std::uint64_t hit_bytes_copied = 0; ///< KV bytes copied on hits
  std::vector<std::vector<int>> generated;  ///< per-request token ids
};

PrefixCellResult run_prefix_cell(lm::TransformerLm& model, bool cache_on,
                                 std::size_t requests,
                                 const std::vector<int>& prefix,
                                 std::size_t tail_len,
                                 std::size_t gen_tokens) {
  obs::Registry::global().reset();
  constexpr std::size_t kBatch = 8;
  // Paged slots (DESIGN.md §14): the pool outlives the cache and decoder
  // because their page handles release into it on destruction.
  mem::PagePoolConfig pool_config;
  pool_config.page_tokens = 16;
  pool_config.n_layer = static_cast<std::size_t>(model.config().n_layer);
  pool_config.d_model = static_cast<std::size_t>(model.config().d_model);
  mem::PagePool pool(pool_config);
  cache::PrefixCacheConfig cache_config;
  cache_config.page_tokens = pool.page_tokens();
  cache::PrefixCache prefix_cache(model, cache_config);
  serve::TransformerBatchDecoder decoder(model, /*slots=*/kBatch,
                                         /*parallel=*/true, &pool);
  if (cache_on) decoder.set_prefix_cache(&prefix_cache);
  serve::EngineConfig config;
  config.max_batch = kBatch;
  config.queue_capacity = std::max<std::size_t>(64, requests);
  // Single-stage prefill: chunking would interleave the whole first batch
  // before any insert lands, turning one cold miss into kBatch of them.
  // This cell isolates the cache effect; `mixed` measures the scheduler.
  config.prefill_chunk_tokens = 0;
  serve::Engine engine(decoder, config);

  PrefixCellResult result;
  result.generated.resize(requests);
  util::ThreadPool clients(kBatch);
  util::Stopwatch wall;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t k = 0; k < kBatch; ++k) {
    const std::size_t lo = requests * k / kBatch;
    const std::size_t hi = requests * (k + 1) / kBatch;
    futures.push_back(clients.submit([&engine, &model, &prefix, &result, lo,
                                      hi, tail_len,
                                      gen_tokens]() -> std::vector<double> {
      std::vector<double> latencies_ms;
      latencies_ms.reserve(hi - lo);
      for (std::size_t r = lo; r < hi; ++r) {
        serve::Request request;
        request.prompt = prefix;
        const auto tail = make_prompt(0x7a11 + r, tail_len,
                                      model.config().vocab);
        request.prompt.insert(request.prompt.end(), tail.begin(), tail.end());
        // Only the shared prefix is worth caching: insert-once, every
        // later request forks its slot cache from it.
        request.shared_prefix_tokens = prefix.size();
        request.options.sampler.temperature = 0.0;
        request.options.stop_on_eos = false;
        request.options.max_tokens = gen_tokens;
        request.options.seed = r;
        util::Stopwatch latency;
        auto served = engine.submit(std::move(request)).get();
        LMPEEL_CHECK_MSG(served.status == serve::RequestStatus::Ok,
                         "serve-bench prefix request rejected");
        LMPEEL_CHECK_MSG(served.generation.tokens.size() == gen_tokens,
                         "serve-bench prefix generation truncated");
        latencies_ms.push_back(latency.milliseconds());
        result.generated[r] = std::move(served.generation.tokens);
      }
      return latencies_ms;
    }));
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(requests);
  for (auto& f : futures) {
    const auto client_latencies = f.get();
    latencies_ms.insert(latencies_ms.end(), client_latencies.begin(),
                        client_latencies.end());
  }
  result.cell.wall_s = wall.seconds();
  result.cell.tokens_per_sec =
      static_cast<double>(requests * gen_tokens) / result.cell.wall_s;
  result.cell.decode_tokens_per_sec = decode_only_tok_s();
  result.cell.p50_ms = util::percentile(latencies_ms, 50.0);
  result.cell.p99_ms = util::percentile(latencies_ms, 99.0);
  auto& reg = obs::Registry::global();
  result.prefill_tokens = reg.counter("lm.transformer.forward_tokens").value();
  result.cache_hits = reg.counter("cache.prefix.hits").value();
  result.saved_prefill_tokens =
      reg.counter("cache.prefix.saved_prefill_tokens").value();
  result.zero_copy_hits = reg.counter("cache.prefix.zero_copy_hits").value();
  result.hit_bytes_copied =
      reg.counter("cache.prefix.hit_bytes_copied").value();
  return result;
}

int run_prefix_bench(bool quick, bool run_on, bool run_off) {
  lm::TransformerConfig model_config;
  // Narrower default than the batching sweep: the workload is prefill-bound
  // by construction, so the interesting number is how much prefill the
  // cache removes, not how fat the matmuls are.
  model_config.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  model_config.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 384);
  model_config.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 6);
  model_config.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);

  const auto requests = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 16 : 64));
  const auto prefix_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PREFIX", quick ? 128 : 400));
  const auto tail_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_TAIL", 8));
  const auto gen_tokens = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", 8));
  model_config.max_seq =
      static_cast<int>(prefix_len + tail_len + gen_tokens);

  lm::TransformerLm model(model_config, /*seed=*/1);
  const auto prefix =
      make_prompt(/*seed=*/0x5e9, prefix_len, model_config.vocab);
  std::cout << "model: d_model " << model_config.d_model << ", layers "
            << model_config.n_layer << ", vocab " << model_config.vocab
            << " (" << model.parameter_count() << " parameters)\n"
            << "workload: " << requests << " requests sharing a "
            << prefix_len << "-token prefix, " << tail_len
            << "-token tails, " << gen_tokens << " generated tokens each\n";

  util::Table table({"prefix_cache", "requests", "prefill_tok", "hits",
                     "saved_tok", "wall_s", "tok_s", "dec_tok_s", "p50_ms",
                     "p99_ms"});
  PrefixCellResult on, off;
  for (const bool cache_on : {false, true}) {
    if (cache_on ? !run_on : !run_off) continue;
    auto result = run_prefix_cell(model, cache_on, requests, prefix,
                                  tail_len, gen_tokens);
    table.add_row({cache_on ? "on" : "off", std::to_string(requests),
                   std::to_string(result.prefill_tokens),
                   std::to_string(result.cache_hits),
                   std::to_string(result.saved_prefill_tokens),
                   util::Table::num(result.cell.wall_s),
                   util::Table::num(result.cell.tokens_per_sec),
                   util::Table::num(result.cell.decode_tokens_per_sec),
                   util::Table::num(result.cell.p50_ms),
                   util::Table::num(result.cell.p99_ms)});
    bench::BenchRecord record;
    record.name = cache_on ? "serve_bench/prefix_on"
                           : "serve_bench/prefix_off";
    record.wall_s = result.cell.wall_s;
    record.counters = bench::counter_snapshot();
    record.values = {
        {"tokens_per_sec", result.cell.tokens_per_sec},
        {"decode_tokens_per_sec", result.cell.decode_tokens_per_sec},
        {"prefill_tokens", static_cast<double>(result.prefill_tokens)},
        {"p50_ms", result.cell.p50_ms},
        {"p99_ms", result.cell.p99_ms}};
    bench::write_bench_record(record);
    if (cache_on && result.cache_hits > 0) {
      // The prefix is a whole number of pages, so every hit is pure: it
      // must be served by sharing page handles, never by copying rows.
      LMPEEL_CHECK_MSG(result.zero_copy_hits == result.cache_hits,
                       "paged prefix hit fell back to copying");
      LMPEEL_CHECK_MSG(result.hit_bytes_copied == 0,
                       "pure prefix hits copied KV bytes");
      std::cout << "zero-copy: " << result.zero_copy_hits
                << " hit(s) served by page sharing, 0 KV bytes copied\n";
    }
    (cache_on ? on : off) = std::move(result);
  }
  // The registry still holds the last variant's run (cache-on when both
  // ran); grade it so the baseline carries SLO rows for the cached path.
  record_slo("serve_bench/prefix_slo");
  bench::emit("serve-bench: shared-prefix cache on/off", table);
  if (run_on && run_off) {
    LMPEEL_CHECK_MSG(on.generated == off.generated,
                     "prefix cache changed generated tokens");
    std::cout << "generated tokens bit-identical across variants\n"
              << "prefix-cache speedup: "
              << util::Table::num(on.cell.tokens_per_sec /
                                      off.cell.tokens_per_sec,
                                  3)
              << "x end-to-end (prefill tokens "
              << off.prefill_tokens << " -> " << on.prefill_tokens << ")\n";
  }
  return 0;
}

// ---- mixed long/short workload (DESIGN.md §14) ----------------------------

struct MixedResult {
  double wall_s = 0.0;
  double decode_tokens_per_sec = 0.0;
  double short_ttft_p50_ms = 0.0;
  double short_ttft_p99_ms = 0.0;
  double long_ttft_p50_ms = 0.0;
  std::uint64_t prefill_chunks = 0;  ///< serve.prefill_stage.chunks
  /// Per-request token ids, shorts then longs — must be bit-identical
  /// between the chunked and single-stage variants.
  std::vector<std::vector<int>> generated;
};

MixedResult run_mixed_cell(lm::TransformerLm& model, bool chunked,
                           std::size_t shorts, std::size_t longs,
                           std::size_t short_prompt, std::size_t long_prompt,
                           std::size_t short_gen, std::size_t long_gen) {
  obs::Registry::global().reset();
  constexpr std::size_t kBatch = 8;
  mem::PagePoolConfig pool_config;
  pool_config.page_tokens = 16;
  pool_config.n_layer = static_cast<std::size_t>(model.config().n_layer);
  pool_config.d_model = static_cast<std::size_t>(model.config().d_model);
  mem::PagePool pool(pool_config);
  serve::TransformerBatchDecoder decoder(model, /*slots=*/kBatch,
                                         /*parallel=*/true, &pool);
  serve::EngineConfig config;
  config.max_batch = kBatch;
  config.queue_capacity = std::max<std::size_t>(64, shorts + longs);
  // The contrast under test: chunked two-stage scheduling vs legacy
  // prefill-at-admission.  32-token slices keep each tick's prefill work
  // an order of magnitude below a whole long prompt.
  config.prefill_chunk_tokens = chunked ? 32 : 0;
  serve::Engine engine(decoder, config);

  MixedResult result;
  result.generated.resize(shorts + longs);
  std::vector<double> short_ttft_ms(shorts);
  std::vector<double> long_ttft_ms(longs);
  // 4 short-traffic clients and 2 long-traffic ones: the longs keep at
  // least one fat prefill in flight for most of the run, which is exactly
  // the antagonist short-request TTFT suffers under single-stage
  // scheduling.
  util::ThreadPool clients(6);
  util::Stopwatch wall;
  std::vector<std::future<void>> futures;
  for (std::size_t k = 0; k < 6; ++k) {
    const bool is_long = k >= 4;
    const std::size_t n = is_long ? longs : shorts;
    const std::size_t workers = is_long ? 2 : 4;
    const std::size_t w = is_long ? k - 4 : k;
    const std::size_t lo = n * w / workers;
    const std::size_t hi = n * (w + 1) / workers;
    futures.push_back(clients.submit([&, is_long, lo, hi] {
      for (std::size_t r = lo; r < hi; ++r) {
        serve::Request request;
        request.prompt = make_prompt(is_long ? 0x10000 + r : r,
                                     is_long ? long_prompt : short_prompt,
                                     model.config().vocab);
        request.options.sampler.temperature = 0.0;
        request.options.stop_on_eos = false;
        request.options.max_tokens = is_long ? long_gen : short_gen;
        request.options.seed = is_long ? 0x10000 + r : r;
        auto served = engine.submit(std::move(request)).get();
        LMPEEL_CHECK_MSG(served.status == serve::RequestStatus::Ok,
                         "serve-bench mixed request rejected");
        (is_long ? long_ttft_ms : short_ttft_ms)[r] = served.ttft_s * 1e3;
        result.generated[is_long ? shorts + r : r] =
            std::move(served.generation.tokens);
      }
    }));
  }
  for (auto& f : futures) f.get();
  result.wall_s = wall.seconds();
  result.decode_tokens_per_sec = decode_only_tok_s();
  result.short_ttft_p50_ms = util::percentile(short_ttft_ms, 50.0);
  result.short_ttft_p99_ms = util::percentile(short_ttft_ms, 99.0);
  result.long_ttft_p50_ms = util::percentile(long_ttft_ms, 50.0);
  result.prefill_chunks =
      obs::Registry::global().counter("serve.prefill_stage.chunks").value();
  return result;
}

int run_mixed_bench(bool quick) {
  lm::TransformerConfig model_config;
  model_config.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  model_config.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 384);
  model_config.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 6);
  model_config.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);

  const auto shorts = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 24 : 64));
  const auto longs = std::max<std::size_t>(2, shorts / 5);
  const auto short_prompt = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PROMPT", 8));
  const auto long_prompt = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_LONG_PROMPT", quick ? 160 : 320));
  const auto short_gen = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", 16));
  const std::size_t long_gen = 4;
  model_config.max_seq = static_cast<int>(
      std::max(long_prompt + long_gen, short_prompt + short_gen));

  lm::TransformerLm model(model_config, /*seed=*/1);
  std::cout << "model: d_model " << model_config.d_model << ", layers "
            << model_config.n_layer << ", vocab " << model_config.vocab
            << " (" << model.parameter_count() << " parameters)\n"
            << "workload: " << shorts << " short requests (" << short_prompt
            << " prompt / " << short_gen << " gen) vs " << longs
            << " long (" << long_prompt << " prompt / " << long_gen
            << " gen)\n";

  util::Table table({"scheduler", "chunks", "short_p50_ms", "short_p99_ms",
                     "long_p50_ms", "dec_tok_s", "wall_s"});
  MixedResult chunked, single_stage;
  for (const bool use_chunks : {false, true}) {
    auto result = run_mixed_cell(model, use_chunks, shorts, longs,
                                 short_prompt, long_prompt, short_gen,
                                 long_gen);
    table.add_row({use_chunks ? "two-stage" : "single-stage",
                   std::to_string(result.prefill_chunks),
                   util::Table::num(result.short_ttft_p50_ms),
                   util::Table::num(result.short_ttft_p99_ms),
                   util::Table::num(result.long_ttft_p50_ms),
                   util::Table::num(result.decode_tokens_per_sec),
                   util::Table::num(result.wall_s)});
    bench::BenchRecord record;
    record.name = use_chunks ? "serve_bench/mixed_paged"
                             : "serve_bench/mixed_single_stage";
    record.wall_s = result.wall_s;
    record.counters = bench::counter_snapshot();
    record.values = {
        {"short_ttft_p50_ms", result.short_ttft_p50_ms},
        {"short_ttft_p99_ms", result.short_ttft_p99_ms},
        {"long_ttft_p50_ms", result.long_ttft_p50_ms},
        {"decode_tokens_per_sec", result.decode_tokens_per_sec}};
    bench::write_bench_record(record);
    (use_chunks ? chunked : single_stage) = std::move(result);
  }
  record_slo("serve_bench/mixed_slo");
  bench::emit("serve-bench: mixed long/short traffic", table);
  LMPEEL_CHECK_MSG(chunked.generated == single_stage.generated,
                   "two-stage scheduling changed generated tokens");
  std::cout << "generated tokens bit-identical across schedulers\n";
  const bool ttft_better =
      chunked.short_ttft_p99_ms < single_stage.short_ttft_p99_ms;
  const bool decode_held = chunked.decode_tokens_per_sec >=
                           0.95 * single_stage.decode_tokens_per_sec;
  std::cout << "short-request p99 TTFT: "
            << util::Table::num(single_stage.short_ttft_p99_ms) << " -> "
            << util::Table::num(chunked.short_ttft_p99_ms) << " ms ("
            << (ttft_better ? "improved" : "REGRESSED") << ")\n"
            << "decode throughput: "
            << util::Table::num(single_stage.decode_tokens_per_sec) << " -> "
            << util::Table::num(chunked.decode_tokens_per_sec) << " tok/s ("
            << (decode_held ? "held" : "REGRESSED") << ")\n";
  return ttft_better && decode_held ? 0 : 1;
}

// ---- sharded fleet workload (DESIGN.md §15) -------------------------------

struct ShardCellResult {
  CellResult cell;
  /// Decode tokens over wall clock — with N independent single-threaded
  /// replicas decoding concurrently this is the aggregate fleet rate (the
  /// per-compute-second serve.step ratio would double-count overlap).
  double aggregate_decode_tok_s = 0.0;
  double hit_rate = 0.0;  ///< cache.prefix hits / (hits + misses)
  std::vector<std::vector<int>> generated;  ///< per-request token ids
};

ShardCellResult run_shard_cell(const lm::TransformerConfig& model_config,
                               std::size_t replicas, std::size_t requests,
                               const std::vector<std::vector<int>>& prefixes,
                               std::size_t tail_len, std::size_t gen_tokens) {
  obs::Registry::global().reset();
  constexpr std::size_t kBatch = 4;
  // Identical (config, seed) per replica — the determinism the router's
  // failover contract rests on, and what makes the r1-vs-r3 bit-identical
  // check below meaningful.  Decoders are single-threaded so aggregate
  // scaling comes from replica concurrency, not intra-op threads.
  struct Stack {
    std::unique_ptr<lm::TransformerLm> model;
    std::unique_ptr<cache::PrefixCache> cache;
    std::unique_ptr<serve::TransformerBatchDecoder> decoder;
    std::unique_ptr<serve::Engine> engine;
  };
  std::vector<Stack> fleet(replicas);
  std::vector<shard::Replica> descriptors;
  for (std::size_t r = 0; r < replicas; ++r) {
    Stack& stack = fleet[r];
    stack.model = std::make_unique<lm::TransformerLm>(model_config,
                                                      /*seed=*/1);
    stack.cache = std::make_unique<cache::PrefixCache>(*stack.model);
    stack.decoder = std::make_unique<serve::TransformerBatchDecoder>(
        *stack.model, /*slots=*/kBatch, /*parallel=*/false);
    stack.decoder->set_prefix_cache(stack.cache.get());
    serve::EngineConfig config;
    config.max_batch = kBatch;
    config.queue_capacity = std::max<std::size_t>(64, requests);
    // Single-stage prefill: admission inserts the prefix before the next
    // request's lookup, so the hit-rate column measures affinity, not
    // chunking interleave.
    config.prefill_chunk_tokens = 0;
    stack.engine = std::make_unique<serve::Engine>(*stack.decoder, config);
    shard::Replica descriptor;
    descriptor.client = stack.engine.get();
    descriptor.cache = stack.cache.get();
    descriptor.name = "replica-" + std::to_string(r);
    descriptors.push_back(std::move(descriptor));
  }
  shard::RouterConfig router_config;
  router_config.seed = 1;
  shard::Router router(std::move(descriptors), router_config);

  ShardCellResult result;
  result.generated.resize(requests);
  // Enough closed-loop clients to keep every replica's batch full.
  const std::size_t concurrency = replicas * kBatch;
  util::ThreadPool clients(concurrency);
  util::Stopwatch wall;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t k = 0; k < concurrency; ++k) {
    const std::size_t lo = requests * k / concurrency;
    const std::size_t hi = requests * (k + 1) / concurrency;
    futures.push_back(clients.submit([&router, &prefixes, &result, lo, hi,
                                      tail_len, &model_config,
                                      gen_tokens]() -> std::vector<double> {
      std::vector<double> latencies_ms;
      latencies_ms.reserve(hi - lo);
      for (std::size_t r = lo; r < hi; ++r) {
        serve::Request request;
        const auto& prefix = prefixes[r % prefixes.size()];
        request.prompt = prefix;
        const auto tail =
            make_prompt(0x5a0 + r, tail_len, model_config.vocab);
        request.prompt.insert(request.prompt.end(), tail.begin(),
                              tail.end());
        request.shared_prefix_tokens = prefix.size();
        request.options.sampler.temperature = 0.0;
        request.options.stop_on_eos = false;
        request.options.max_tokens = gen_tokens;
        request.options.seed = r;
        util::Stopwatch latency;
        auto served = router.submit(std::move(request)).get();
        LMPEEL_CHECK_MSG(served.status == serve::RequestStatus::Ok,
                         "serve-bench shard request rejected");
        LMPEEL_CHECK_MSG(served.generation.tokens.size() == gen_tokens,
                         "serve-bench shard generation truncated");
        latencies_ms.push_back(latency.milliseconds());
        result.generated[r] = std::move(served.generation.tokens);
      }
      return latencies_ms;
    }));
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(requests);
  for (auto& f : futures) {
    const auto client_latencies = f.get();
    latencies_ms.insert(latencies_ms.end(), client_latencies.begin(),
                        client_latencies.end());
  }
  result.cell.wall_s = wall.seconds();
  result.cell.tokens_per_sec =
      static_cast<double>(requests * gen_tokens) / result.cell.wall_s;
  auto& reg = obs::Registry::global();
  result.aggregate_decode_tok_s =
      static_cast<double>(reg.counter("lm.transformer.decode_tokens").value()) /
      result.cell.wall_s;
  result.cell.decode_tokens_per_sec = result.aggregate_decode_tok_s;
  result.cell.p50_ms = util::percentile(latencies_ms, 50.0);
  result.cell.p99_ms = util::percentile(latencies_ms, 99.0);
  const auto hits = static_cast<double>(reg.counter("cache.prefix.hits").value());
  const auto misses =
      static_cast<double>(reg.counter("cache.prefix.misses").value());
  result.hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  return result;
}

int run_shard_bench(bool quick) {
  lm::TransformerConfig model_config;
  model_config.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  model_config.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 384);
  model_config.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 6);
  model_config.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);

  const auto requests = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 24 : 96));
  const auto prefix_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PREFIX", quick ? 64 : 128));
  const auto tail_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_TAIL", 8));
  const auto gen_tokens = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", quick ? 16 : 32));
  model_config.max_seq =
      static_cast<int>(prefix_len + tail_len + gen_tokens);

  // A few distinct campaign prefixes — more than any replica count under
  // test, so affinity (not luck) decides whether a prefix's requests all
  // find the cache warm.
  std::vector<std::vector<int>> prefixes;
  for (std::uint64_t p = 0; p < 4; ++p) {
    prefixes.push_back(
        make_prompt(0xca3 + p, prefix_len, model_config.vocab));
  }
  std::cout << "model: d_model " << model_config.d_model << ", layers "
            << model_config.n_layer << ", vocab " << model_config.vocab
            << "\nworkload: " << requests << " requests over "
            << prefixes.size() << " shared " << prefix_len
            << "-token prefixes, " << tail_len << "-token tails, "
            << gen_tokens << " generated tokens each\n";

  util::Table table({"replicas", "requests", "wall_s", "tok_s",
                     "agg_dec_tok_s", "hit_rate", "p50_ms", "p99_ms"});
  ShardCellResult r1, r3;
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{3}}) {
    auto result = run_shard_cell(model_config, replicas, requests, prefixes,
                                 tail_len, gen_tokens);
    table.add_row({std::to_string(replicas), std::to_string(requests),
                   util::Table::num(result.cell.wall_s),
                   util::Table::num(result.cell.tokens_per_sec),
                   util::Table::num(result.aggregate_decode_tok_s),
                   util::Table::num(result.hit_rate, 3),
                   util::Table::num(result.cell.p50_ms),
                   util::Table::num(result.cell.p99_ms)});
    bench::BenchRecord record;
    record.name = "serve_bench/shard_r" + std::to_string(replicas);
    record.wall_s = result.cell.wall_s;
    record.counters = bench::counter_snapshot();
    record.values = {
        {"tokens_per_sec", result.cell.tokens_per_sec},
        {"aggregate_decode_tok_s", result.aggregate_decode_tok_s},
        {"hit_rate", result.hit_rate},
        {"p50_ms", result.cell.p50_ms},
        {"p99_ms", result.cell.p99_ms}};
    bench::write_bench_record(record);
    (replicas == 1 ? r1 : r3) = std::move(result);
  }
  record_slo("serve_bench/shard_slo");
  bench::emit("serve-bench: sharded fleet scaling", table);
  LMPEEL_CHECK_MSG(r1.generated == r3.generated,
                   "replica count changed generated tokens");
  std::cout << "generated tokens bit-identical across replica counts\n";
  const double speedup =
      r1.aggregate_decode_tok_s > 0.0
          ? r3.aggregate_decode_tok_s / r1.aggregate_decode_tok_s
          : 0.0;
  // The scaling gate needs the hardware to scale on: three decoding
  // replicas cannot beat one by 2.5x while time-slicing fewer than three
  // cores.  On smaller machines the gate degrades to "the router layer is
  // not the bottleneck" — 3 replicas on one core must still deliver at
  // least 85% of the single-replica rate.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool can_scale = hw >= 3;
  const double target = can_scale ? 2.5 : 0.85;
  const bool throughput_ok = speedup >= target;
  const bool affinity_ok = r3.hit_rate >= r1.hit_rate - 1e-9;
  std::cout << "aggregate decode scaling 1 -> 3 replicas: "
            << util::Table::num(speedup, 3) << "x (gate >= "
            << util::Table::num(target, 2) << "x"
            << (can_scale ? "" : ", overhead-only: " + std::to_string(hw) +
                                     " core(s)")
            << ", " << (throughput_ok ? "ok" : "FAILED") << ")\n"
            << "prefix-affinity hit rate: " << util::Table::num(r1.hit_rate, 3)
            << " -> " << util::Table::num(r3.hit_rate, 3) << " ("
            << (affinity_ok ? "held" : "REGRESSED") << ")\n";
  return throughput_ok && affinity_ok ? 0 : 1;
}

// ---- crash-recovery workload (DESIGN.md §16) ------------------------------

struct RecoverPhaseResult {
  double wall_s = 0.0;
  double decode_tok_s = 0.0;  ///< aggregate fleet rate over this phase
  std::vector<std::vector<int>> generated;  ///< per-request token ids
};

/// One closed-loop pass of the campaign workload through the router,
/// measured by decode-counter delta so phases compose on one registry.
RecoverPhaseResult run_recover_phase(
    shard::Router& router, const lm::TransformerConfig& model_config,
    std::size_t requests, const std::vector<std::vector<int>>& prefixes,
    std::size_t tail_len, std::size_t gen_tokens, std::size_t concurrency) {
  RecoverPhaseResult result;
  result.generated.resize(requests);
  auto& reg = obs::Registry::global();
  const auto decoded0 = reg.counter("lm.transformer.decode_tokens").value();
  util::ThreadPool clients(concurrency);
  util::Stopwatch wall;
  std::vector<std::future<void>> futures;
  for (std::size_t k = 0; k < concurrency; ++k) {
    const std::size_t lo = requests * k / concurrency;
    const std::size_t hi = requests * (k + 1) / concurrency;
    futures.push_back(clients.submit([&router, &prefixes, &result, lo, hi,
                                      tail_len, &model_config, gen_tokens] {
      for (std::size_t r = lo; r < hi; ++r) {
        serve::Request request;
        const auto& prefix = prefixes[r % prefixes.size()];
        request.prompt = prefix;
        const auto tail =
            make_prompt(0x5a0 + r, tail_len, model_config.vocab);
        request.prompt.insert(request.prompt.end(), tail.begin(),
                              tail.end());
        request.shared_prefix_tokens = prefix.size();
        request.options.sampler.temperature = 0.0;
        request.options.stop_on_eos = false;
        request.options.max_tokens = gen_tokens;
        request.options.seed = r;
        auto served = router.submit(std::move(request)).get();
        LMPEEL_CHECK_MSG(served.status == serve::RequestStatus::Ok,
                         "serve-bench recover request rejected");
        LMPEEL_CHECK_MSG(served.generation.tokens.size() == gen_tokens,
                         "serve-bench recover generation truncated");
        result.generated[r] = std::move(served.generation.tokens);
      }
    }));
  }
  for (auto& f : futures) f.get();
  result.wall_s = wall.seconds();
  const auto decoded =
      reg.counter("lm.transformer.decode_tokens").value() - decoded0;
  result.decode_tok_s =
      result.wall_s > 0.0 ? static_cast<double>(decoded) / result.wall_s
                          : 0.0;
  return result;
}

int run_recover_bench(bool quick) {
  lm::TransformerConfig model_config;
  model_config.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  model_config.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 384);
  model_config.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 6);
  model_config.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);

  const auto requests = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 24 : 96));
  const auto prefix_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PREFIX", quick ? 64 : 128));
  const auto tail_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_TAIL", 8));
  const auto gen_tokens = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", quick ? 16 : 32));
  model_config.max_seq =
      static_cast<int>(prefix_len + tail_len + gen_tokens);

  std::vector<std::vector<int>> prefixes;
  for (std::uint64_t p = 0; p < 4; ++p) {
    prefixes.push_back(
        make_prompt(0xca3 + p, prefix_len, model_config.vocab));
  }
  std::cout << "model: d_model " << model_config.d_model << ", layers "
            << model_config.n_layer << ", vocab " << model_config.vocab
            << "\nworkload: " << requests << " requests over "
            << prefixes.size() << " shared " << prefix_len
            << "-token prefixes, " << gen_tokens
            << " generated tokens each; kill + revive between passes\n";

  obs::Registry::global().reset();
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kBatch = 4;
  struct Stack {
    std::unique_ptr<lm::TransformerLm> model;
    std::unique_ptr<cache::PrefixCache> cache;
    std::unique_ptr<serve::TransformerBatchDecoder> decoder;
    /// Killed engines parked by the restart hook; must outlive the router
    /// (its state may still point at them — shard/router.hpp contract).
    std::vector<std::unique_ptr<serve::Engine>> retired;
    std::unique_ptr<serve::Engine> engine;
  };
  std::vector<Stack> fleet(kReplicas);
  std::vector<shard::Replica> descriptors;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    Stack& stack = fleet[r];
    stack.model = std::make_unique<lm::TransformerLm>(model_config,
                                                      /*seed=*/1);
    stack.cache = std::make_unique<cache::PrefixCache>(*stack.model);
    stack.decoder = std::make_unique<serve::TransformerBatchDecoder>(
        *stack.model, /*slots=*/kBatch, /*parallel=*/false);
    stack.decoder->set_prefix_cache(stack.cache.get());
    serve::EngineConfig config;
    config.max_batch = kBatch;
    config.queue_capacity = std::max<std::size_t>(64, requests);
    config.prefill_chunk_tokens = 0;
    stack.engine = std::make_unique<serve::Engine>(*stack.decoder, config);
    shard::Replica descriptor;
    descriptor.client = stack.engine.get();
    descriptor.cache = stack.cache.get();
    descriptor.name = "replica-" + std::to_string(r);
    descriptor.restart = [&stack, config]() -> serve::Client* {
      stack.retired.push_back(std::move(stack.engine));
      stack.engine = std::make_unique<serve::Engine>(*stack.decoder, config);
      return stack.engine.get();
    };
    descriptors.push_back(std::move(descriptor));
  }
  shard::RouterConfig router_config;
  router_config.seed = 1;
  shard::Router router(std::move(descriptors), router_config);
  const std::size_t concurrency = kReplicas * kBatch;

  const RecoverPhaseResult pre = run_recover_phase(
      router, model_config, requests, prefixes, tail_len, gen_tokens,
      concurrency);

  // Kill the replica that owns the first campaign prefix — the most
  // affinity-loaded target — then resurrect it through the full protocol.
  const std::size_t victim = router.preference_order(prefixes[0]).front();
  fleet[victim].engine->kill();
  router.probe(victim);  // death is detected lazily; make revive eligible
  const shard::ReviveReport revived = router.revive(victim);
  LMPEEL_CHECK_MSG(revived.ok, "serve-bench recover: revive failed");

  const RecoverPhaseResult post = run_recover_phase(
      router, model_config, requests, prefixes, tail_len, gen_tokens,
      concurrency);

  const double ratio =
      pre.decode_tok_s > 0.0 ? post.decode_tok_s / pre.decode_tok_s : 0.0;
  util::Table table({"phase", "requests", "wall_s", "agg_dec_tok_s"});
  table.add_row({"pre-kill", std::to_string(requests),
                 util::Table::num(pre.wall_s),
                 util::Table::num(pre.decode_tok_s)});
  table.add_row({"post-revive", std::to_string(requests),
                 util::Table::num(post.wall_s),
                 util::Table::num(post.decode_tok_s)});

  bench::BenchRecord mttr_record;
  mttr_record.name = "serve_bench/recover_mttr";
  mttr_record.wall_s = revived.mttr_s;
  mttr_record.counters = bench::counter_snapshot();
  mttr_record.values = {
      {"mttr_s", revived.mttr_s},
      {"probes", static_cast<double>(revived.probes)},
      {"rewarmed_prefixes", static_cast<double>(revived.rewarmed)},
      {"ring_generation", static_cast<double>(revived.ring_generation)}};
  bench::write_bench_record(mttr_record);
  bench::BenchRecord post_record;
  post_record.name = "serve_bench/recover_post_revive";
  post_record.wall_s = post.wall_s;
  post_record.values = {
      {"pre_decode_tok_s", pre.decode_tok_s},
      {"post_decode_tok_s", post.decode_tok_s},
      {"post_over_pre", ratio}};
  bench::write_bench_record(post_record);
  record_slo("serve_bench/recover_slo");
  bench::emit("serve-bench: kill + revive recovery", table);

  LMPEEL_CHECK_MSG(pre.generated == post.generated,
                   "revive changed generated tokens");
  std::cout << "generated tokens bit-identical across the kill/revive\n"
            << "revive: MTTR " << util::Table::num(revived.mttr_s, 3)
            << " s, " << revived.probes << " probe(s), "
            << revived.rewarmed << " prefix(es) re-warmed\n";
  // Three replicas decoding concurrently need three cores for the
  // post-revive throughput comparison to measure recovery rather than
  // scheduler time-slicing noise; below that the ratio is report-only.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool gate_throughput = hw >= 3;
  const bool throughput_ok = !gate_throughput || ratio >= 0.90;
  std::cout << "post-revive decode throughput: "
            << util::Table::num(pre.decode_tok_s) << " -> "
            << util::Table::num(post.decode_tok_s) << " tok/s ("
            << util::Table::num(100.0 * ratio, 1) << "% of pre-kill, gate "
            << (gate_throughput
                    ? ">= 90%"
                    : "report-only: " + std::to_string(hw) + " core(s)")
            << ", " << (throughput_ok ? "ok" : "FAILED") << ")\n";
  return throughput_ok ? 0 : 1;
}

// The `quant` workload (DESIGN.md §17): the decode-heavy default grid run
// against the f32 backend and its int8/fp16 quantizations of the *same*
// weights, on the CPUID-dispatched kernel arch.  Rows merge as
// serve_bench/quant_{f32,int8,fp16} with decode-only tok/s, weight bytes
// (measured through guard::Budget accounting, not computed on faith) and
// the speedup vs f32.  Gates, per the kernel tier actually dispatched:
// int8 decode-only speedup >= 2.0x on AVX-512 hosts, >= 1.3x on AVX2,
// report-only on scalar; quantized weight bytes <= 0.55x f32 for both
// formats everywhere.
int run_quant_bench(bool quick) {
  lm::TransformerConfig model_config;
  model_config.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  model_config.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 768);
  model_config.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 8);
  model_config.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);
  const auto requests = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 16 : 64));
  const auto prompt_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PROMPT", 8));
  const auto gen_tokens = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", quick ? 16 : 64));
  model_config.max_seq = static_cast<int>(prompt_len + gen_tokens);
  const std::size_t concurrency = 4;
  const std::size_t max_batch = 8;

  const quant::Arch arch = quant::dispatched_arch();
  lm::TransformerLm f32(model_config, /*seed=*/1);
  std::cout << "model: d_model " << model_config.d_model << ", layers "
            << model_config.n_layer << ", vocab " << model_config.vocab
            << " (" << f32.parameter_count() << " parameters)\n"
            << "kernel arch: " << quant::arch_name(arch) << " (host best "
            << host_cpu_arch() << ")\n"
            << "workload: " << requests << " requests x " << gen_tokens
            << " tokens, prompt length " << prompt_len << ", conc "
            << concurrency << ", max_batch " << max_batch << "\n";

  struct Variant {
    std::string name;
    lm::KvBackend* backend;
    std::size_t weight_bytes;
    CellResult cell;
  };
  quant::QuantizedLm int8(f32, quant::WeightFormat::kInt8, arch);
  quant::QuantizedLm fp16(f32, quant::WeightFormat::kFp16, arch);
  // Weight footprints through guard accounting: bind, read, detach.
  const auto measured_bytes = [](quant::QuantizedLm& q) {
    guard::Budget budget(std::size_t{1} << 32);
    q.bind_weight_budget(&budget);
    const std::size_t bytes = budget.accounted();
    q.bind_weight_budget(nullptr);
    return bytes;
  };
  std::vector<Variant> variants;
  variants.push_back(
      {"f32", &f32, f32.parameter_count() * sizeof(float), {}});
  variants.push_back({"int8", &int8, measured_bytes(int8), {}});
  variants.push_back({"fp16", &fp16, measured_bytes(fp16), {}});

  util::Table table({"backend", "weight_mb", "ratio", "wall_s", "tok_s",
                     "dec_tok_s", "speedup", "p50_ms", "p99_ms"});
  const double f32_bytes = static_cast<double>(variants[0].weight_bytes);
  for (auto& v : variants) {
    v.cell = run_cell(*v.backend, concurrency, max_batch, requests,
                      prompt_len, gen_tokens);
    const double dec_speedup =
        variants[0].cell.decode_tokens_per_sec > 0.0
            ? v.cell.decode_tokens_per_sec /
                  variants[0].cell.decode_tokens_per_sec
            : 0.0;
    const double ratio = static_cast<double>(v.weight_bytes) / f32_bytes;
    table.add_row({v.name,
                   util::Table::num(static_cast<double>(v.weight_bytes) /
                                    (1024.0 * 1024.0)),
                   util::Table::num(ratio, 3),
                   util::Table::num(v.cell.wall_s),
                   util::Table::num(v.cell.tokens_per_sec),
                   util::Table::num(v.cell.decode_tokens_per_sec),
                   util::Table::num(dec_speedup, 3),
                   util::Table::num(v.cell.p50_ms),
                   util::Table::num(v.cell.p99_ms)});
    bench::BenchRecord record;
    record.name = "serve_bench/quant_" + v.name;
    record.wall_s = v.cell.wall_s;
    record.counters = bench::counter_snapshot();
    record.values = {{"tokens_per_sec", v.cell.tokens_per_sec},
                     {"decode_tokens_per_sec", v.cell.decode_tokens_per_sec},
                     {"p50_ms", v.cell.p50_ms},
                     {"p99_ms", v.cell.p99_ms},
                     {"weight_bytes", static_cast<double>(v.weight_bytes)},
                     {"weight_ratio_vs_f32", ratio},
                     {"decode_speedup_vs_f32", dec_speedup}};
    record.labels = {{"cpu_arch", host_cpu_arch()},
                     {"kernel_arch", quant::arch_name(arch)},
                     {"weight_format", v.name}};
    bench::write_bench_record(record);
  }
  bench::emit("serve-bench quant: backend comparison", table);

  bool ok = true;
  for (std::size_t i = 1; i < variants.size(); ++i) {
    const double ratio =
        static_cast<double>(variants[i].weight_bytes) / f32_bytes;
    const bool bytes_ok = ratio <= 0.55;
    ok = ok && bytes_ok;
    std::cout << variants[i].name << " weight bytes: "
              << util::Table::num(ratio, 3) << "x f32 (gate <= 0.55, "
              << (bytes_ok ? "ok" : "FAILED") << ")\n";
  }
  const double int8_speedup =
      variants[0].cell.decode_tokens_per_sec > 0.0
          ? variants[1].cell.decode_tokens_per_sec /
                variants[0].cell.decode_tokens_per_sec
          : 0.0;
  double speedup_gate = 0.0;  // scalar tier: report-only
  if (arch == quant::Arch::kAvx512) speedup_gate = 2.0;
  if (arch == quant::Arch::kAvx2) speedup_gate = 1.3;
  const bool speedup_ok = speedup_gate == 0.0 || int8_speedup >= speedup_gate;
  ok = ok && speedup_ok;
  std::cout << "int8 decode-only speedup vs f32: "
            << util::Table::num(int8_speedup, 3) << "x (gate "
            << (speedup_gate > 0.0
                    ? ">= " + util::Table::num(speedup_gate, 1) + " on " +
                          quant::arch_name(arch)
                    : std::string("report-only on scalar"))
            << ", " << (speedup_ok ? "ok" : "FAILED") << ")\n";
  return ok ? 0 : 1;
}

}  // namespace

int cmd_serve_bench(int argc, char** argv) {
  bool quick = false;
  bool prefix_mode = false;
  bool mixed_mode = false;
  bool shard_mode = false;
  bool recover_mode = false;
  bool quant_mode = false;
  bool run_on = true;
  bool run_off = true;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "prefix") == 0) {
      prefix_mode = true;
    } else if (std::strcmp(argv[i], "mixed") == 0) {
      mixed_mode = true;
    } else if (std::strcmp(argv[i], "shard") == 0) {
      shard_mode = true;
    } else if (std::strcmp(argv[i], "recover") == 0) {
      recover_mode = true;
    } else if (std::strcmp(argv[i], "quant") == 0) {
      quant_mode = true;
    } else if (std::strcmp(argv[i], "--prefix") == 0 && i + 1 < argc) {
      // --prefix on|off implies the prefix workload and restricts it to
      // one variant (both run by default, so the speedup line can print).
      prefix_mode = true;
      const std::string which = argv[++i];
      if (which == "on") {
        run_off = false;
      } else if (which == "off") {
        run_on = false;
      } else {
        std::cerr << "serve-bench: --prefix takes on|off\n";
        return 2;
      }
    } else {
      std::cerr << "usage: lmpeel serve-bench [quick] "
                   "[prefix|mixed|shard|recover|quant] [--prefix on|off]\n";
      return 2;
    }
  }
  if (prefix_mode) return run_prefix_bench(quick, run_on, run_off);
  if (mixed_mode) return run_mixed_bench(quick);
  if (shard_mode) return run_shard_bench(quick);
  if (recover_mode) return run_recover_bench(quick);
  if (quant_mode) return run_quant_bench(quick);

  lm::TransformerConfig model_config;
  // Default shape: wide and shallow, ~59 MB of weights.  Big enough that
  // batch-1 decode is bound by streaming the weights per token (the regime
  // continuous batching exists for), wide enough that the batched matmuls
  // dominate the per-row scalar work (attention, tied head, gelu).
  model_config.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  model_config.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 768);
  model_config.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 8);
  model_config.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);

  // Decode-heavy workload (short prompts, long generations): admission
  // prefill is a full forward that stalls the running batch, so the regime
  // where continuous batching pays is the one where decode steps dominate.
  const auto requests = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 16 : 64));
  const auto prompt_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PROMPT", 8));
  const auto gen_tokens = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", quick ? 16 : 64));
  model_config.max_seq = static_cast<int>(prompt_len + gen_tokens);

  lm::TransformerLm model(model_config, /*seed=*/1);
  std::cout << "model: d_model " << model_config.d_model << ", layers "
            << model_config.n_layer << ", vocab " << model_config.vocab
            << " (" << model.parameter_count() << " parameters)\n"
            << "workload: " << requests << " requests x " << gen_tokens
            << " tokens, prompt length " << prompt_len << "\n";

  const std::vector<std::size_t> concurrencies =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 16};
  const std::vector<std::size_t> batches =
      quick ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16};

  util::Table table({"conc", "max_batch", "requests", "tokens", "wall_s",
                     "tok_s", "dec_tok_s", "p50_ms", "p99_ms"});
  const std::size_t top_conc = concurrencies.back();
  double serial_tok_s = 0.0, best_batched_tok_s = 0.0;
  for (const std::size_t conc : concurrencies) {
    for (const std::size_t batch : batches) {
      const CellResult cell = run_cell(model, conc, batch, requests,
                                       prompt_len, gen_tokens);
      table.add_row({std::to_string(conc), std::to_string(batch),
                     std::to_string(requests),
                     std::to_string(requests * gen_tokens),
                     util::Table::num(cell.wall_s),
                     util::Table::num(cell.tokens_per_sec),
                     util::Table::num(cell.decode_tokens_per_sec),
                     util::Table::num(cell.p50_ms),
                     util::Table::num(cell.p99_ms)});
      if (conc == top_conc) {
        if (batch == 1) serial_tok_s = cell.tokens_per_sec;
        if (batch >= 8) {
          best_batched_tok_s =
              std::max(best_batched_tok_s, cell.tokens_per_sec);
        }
        bench::BenchRecord record;
        record.name = "serve_bench/b" + std::to_string(batch);
        record.wall_s = cell.wall_s;
        record.counters = bench::counter_snapshot();
        record.values = {{"tokens_per_sec", cell.tokens_per_sec},
                         {"decode_tokens_per_sec", cell.decode_tokens_per_sec},
                         {"p50_ms", cell.p50_ms},
                         {"p99_ms", cell.p99_ms}};
        record.labels = {{"cpu_arch", host_cpu_arch()}};
        bench::write_bench_record(record);
      }
    }
  }
  // Grade the last cell (top concurrency, largest max_batch — the
  // configuration the headline numbers come from).
  record_slo("serve_bench/slo");
  bench::emit("serve-bench: concurrency x max_batch", table);
  if (serial_tok_s > 0.0 && best_batched_tok_s > 0.0) {
    std::cout << "batching speedup at conc " << top_conc
              << " (best max_batch >= 8 vs max_batch 1): "
              << util::Table::num(best_batched_tok_s / serial_tok_s, 3)
              << "x\n";
  }
  return 0;
}
