// lmpeel serve-bench — closed-loop load tests of a shard::Router fleet.
//
// Both workloads send campaign-style traffic (a handful of shared ICL
// prefixes, short unique tails) through a router over single-threaded
// engine replicas, with client concurrency scaled to keep every replica's
// batch fed.
//
// The `shard` workload scales out (DESIGN.md §15): the traffic runs over 1
// and then 3 replicas and the table reports aggregate decode tokens/sec
// and the prefix-cache hit rate.  The gates: 3 replicas sustain >= 2.5x
// the aggregate decode throughput of 1 (on machines with >= 3 cores; with
// fewer the gate degrades to router overhead <= 15%), prefix affinity
// keeps the fleet hit rate no worse than the single replica's, and
// generated tokens are bit-identical across replica counts.
//
// The `recover` workload measures resurrection (DESIGN.md §16): the
// traffic runs over 3 replicas, then the busiest replica is killed and
// brought back through shard::Router::revive (engine restart, cache
// re-warm, probation probes, ring re-add), and the traffic runs again.
// The gates: the revive completes, generated tokens are bit-identical
// before and after (the resurrected replica serves the same answers), and
// — on machines with >= 3 cores — post-revive aggregate decode throughput
// holds >= 90% of pre-kill.
//
// Knobs (all env, see bench/bench_common.hpp):
//   LMPEEL_SERVE_DMODEL / _LAYERS / _HEADS / _VOCAB   model shape
//   LMPEEL_SERVE_REQUESTS / _PREFIX / _TAIL / _GEN    workload shape
#include <algorithm>
#include <cstring>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/prefix_cache.hpp"
#include "lm/transformer.hpp"
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

constexpr std::size_t kBatch = 4;

/// Prints the whole-run SLO verdicts over the registry of the run that
/// just finished, so the report says not just how fast the fleet went but
/// whether the service held its objectives while doing it.
void print_slo(const std::string& name) {
  const auto snapshot =
      obs::MetricsSnapshot::from_registry(obs::Registry::global());
  const auto verdicts =
      obs::SloMonitor::evaluate(snapshot, obs::SloOptions{});
  if (verdicts.empty()) return;
  util::print_banner(std::cout, "slo verdicts (" + name + ")");
  std::cout << obs::SloMonitor::verdict_table(verdicts).to_text();
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

/// Model shape and campaign traffic shared by both workloads.
struct Workload {
  lm::TransformerConfig model;
  std::size_t requests = 0;
  std::size_t prefix_len = 0;
  std::size_t tail_len = 0;
  std::size_t gen_tokens = 0;
  /// A few distinct campaign prefixes — more than any replica count under
  /// test, so affinity (not luck) decides whether a prefix's requests all
  /// find the cache warm.
  std::vector<std::vector<int>> prefixes;
};

Workload make_workload(bool quick) {
  Workload w;
  w.model.vocab = bench::env_int("LMPEEL_SERVE_VOCAB", 512);
  w.model.d_model = bench::env_int("LMPEEL_SERVE_DMODEL", 384);
  w.model.n_head = bench::env_int("LMPEEL_SERVE_HEADS", 6);
  w.model.n_layer = bench::env_int("LMPEEL_SERVE_LAYERS", 2);
  w.requests = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_REQUESTS", quick ? 24 : 96));
  w.prefix_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_PREFIX", quick ? 64 : 128));
  w.tail_len = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_TAIL", 8));
  w.gen_tokens = static_cast<std::size_t>(
      bench::env_int("LMPEEL_SERVE_GEN", quick ? 16 : 32));
  w.model.max_seq = static_cast<int>(w.prefix_len + w.tail_len +
                                     w.gen_tokens);
  for (std::uint64_t p = 0; p < 4; ++p) {
    w.prefixes.push_back(make_prompt(0xca3 + p, w.prefix_len, w.model.vocab));
  }
  return w;
}

/// `replicas` identical (config, seed) stacks behind one router — the
/// determinism the router's failover contract rests on, and what makes the
/// bit-identical checks meaningful.  Decoders are single-threaded so
/// aggregate scaling comes from replica concurrency, not intra-op threads.
struct Fleet {
  struct Stack {
    std::unique_ptr<lm::TransformerLm> model;
    std::unique_ptr<cache::PrefixCache> cache;
    std::unique_ptr<serve::TransformerBatchDecoder> decoder;
    /// Killed engines parked by the restart hook; must outlive the router
    /// (its state may still point at them — shard/router.hpp contract).
    std::vector<std::unique_ptr<serve::Engine>> retired;
    std::unique_ptr<serve::Engine> engine;
  };
  std::vector<Stack> stacks;
  std::unique_ptr<shard::Router> router;

  Fleet(const Workload& w, std::size_t replicas) : stacks(replicas) {
    std::vector<shard::Replica> descriptors;
    for (std::size_t r = 0; r < replicas; ++r) {
      Stack& stack = stacks[r];
      stack.model = std::make_unique<lm::TransformerLm>(w.model, /*seed=*/1);
      stack.cache = std::make_unique<cache::PrefixCache>(*stack.model);
      stack.decoder = std::make_unique<serve::TransformerBatchDecoder>(
          *stack.model, /*slots=*/kBatch, /*parallel=*/false);
      stack.decoder->set_prefix_cache(stack.cache.get());
      serve::EngineConfig config;
      config.max_batch = kBatch;
      config.queue_capacity = std::max<std::size_t>(64, w.requests);
      // Whole-prompt admission inserts the prefix before the next
      // request's lookup, so the hit rate measures affinity, not chunking
      // interleave.
      config.prefill_chunk_tokens = 0;
      stack.engine = std::make_unique<serve::Engine>(*stack.decoder, config);
      shard::Replica descriptor;
      descriptor.client = stack.engine.get();
      descriptor.cache = stack.cache.get();
      descriptor.name = "replica-" + std::to_string(r);
      descriptor.restart = [&stack, config]() -> serve::Client* {
        stack.retired.push_back(std::move(stack.engine));
        stack.engine =
            std::make_unique<serve::Engine>(*stack.decoder, config);
        return stack.engine.get();
      };
      descriptors.push_back(std::move(descriptor));
    }
    shard::RouterConfig router_config;
    router_config.seed = 1;
    router = std::make_unique<shard::Router>(std::move(descriptors),
                                             router_config);
  }
};

struct PassResult {
  double wall_s = 0.0;
  double tokens_per_sec = 0.0;
  /// Decode tokens over wall clock — with N independent single-threaded
  /// replicas decoding concurrently this is the aggregate fleet rate (the
  /// per-compute-second serve.step ratio would double-count overlap).
  double decode_tok_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<std::vector<int>> generated;  ///< per-request token ids
};

/// One closed-loop pass of the campaign traffic through the router,
/// enough clients to keep every replica's batch full, measured by
/// decode-counter delta so passes compose on one registry.
PassResult run_pass(shard::Router& router, const Workload& w) {
  PassResult result;
  result.generated.resize(w.requests);
  auto& reg = obs::Registry::global();
  const auto decoded0 = reg.counter("lm.transformer.decode_tokens").value();
  const std::size_t concurrency = router.replica_count() * kBatch;
  util::ThreadPool clients(concurrency);
  util::Stopwatch wall;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t k = 0; k < concurrency; ++k) {
    const std::size_t lo = w.requests * k / concurrency;
    const std::size_t hi = w.requests * (k + 1) / concurrency;
    futures.push_back(clients.submit([&router, &w, &result, lo,
                                      hi]() -> std::vector<double> {
      std::vector<double> latencies_ms;
      latencies_ms.reserve(hi - lo);
      for (std::size_t r = lo; r < hi; ++r) {
        serve::Request request;
        const auto& prefix = w.prefixes[r % w.prefixes.size()];
        request.prompt = prefix;
        const auto tail = make_prompt(0x5a0 + r, w.tail_len, w.model.vocab);
        request.prompt.insert(request.prompt.end(), tail.begin(),
                              tail.end());
        request.shared_prefix_tokens = prefix.size();
        request.options.sampler.temperature = 0.0;
        request.options.stop_on_eos = false;
        request.options.max_tokens = w.gen_tokens;
        request.options.seed = r;
        util::Stopwatch latency;
        auto served = router.submit(std::move(request)).get();
        LMPEEL_CHECK_MSG(served.status == serve::RequestStatus::Ok,
                         "serve-bench request rejected");
        LMPEEL_CHECK_MSG(served.generation.tokens.size() == w.gen_tokens,
                         "serve-bench generation truncated");
        latencies_ms.push_back(latency.milliseconds());
        result.generated[r] = std::move(served.generation.tokens);
      }
      return latencies_ms;
    }));
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(w.requests);
  for (auto& f : futures) {
    const auto client_latencies = f.get();
    latencies_ms.insert(latencies_ms.end(), client_latencies.begin(),
                        client_latencies.end());
  }
  result.wall_s = wall.seconds();
  result.tokens_per_sec =
      static_cast<double>(w.requests * w.gen_tokens) / result.wall_s;
  const auto decoded =
      reg.counter("lm.transformer.decode_tokens").value() - decoded0;
  result.decode_tok_s =
      result.wall_s > 0.0 ? static_cast<double>(decoded) / result.wall_s
                          : 0.0;
  result.p50_ms = util::percentile(latencies_ms, 50.0);
  result.p99_ms = util::percentile(latencies_ms, 99.0);
  return result;
}

// ---- sharded fleet workload (DESIGN.md §15) -------------------------------

int run_shard_bench(bool quick) {
  const Workload w = make_workload(quick);
  std::cout << "model: d_model " << w.model.d_model << ", layers "
            << w.model.n_layer << ", vocab " << w.model.vocab
            << "\nworkload: " << w.requests << " requests over "
            << w.prefixes.size() << " shared " << w.prefix_len
            << "-token prefixes, " << w.tail_len << "-token tails, "
            << w.gen_tokens << " generated tokens each\n";

  util::Table table({"replicas", "requests", "wall_s", "tok_s",
                     "agg_dec_tok_s", "hit_rate", "p50_ms", "p99_ms"});
  PassResult r1, r3;
  double hit_rate1 = 0.0, hit_rate3 = 0.0;
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{3}}) {
    obs::Registry::global().reset();
    Fleet fleet(w, replicas);
    auto result = run_pass(*fleet.router, w);
    auto& reg = obs::Registry::global();
    const auto hits =
        static_cast<double>(reg.counter("cache.prefix.hits").value());
    const auto misses =
        static_cast<double>(reg.counter("cache.prefix.misses").value());
    const double hit_rate =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    table.add_row({std::to_string(replicas), std::to_string(w.requests),
                   util::Table::num(result.wall_s),
                   util::Table::num(result.tokens_per_sec),
                   util::Table::num(result.decode_tok_s),
                   util::Table::num(hit_rate, 3),
                   util::Table::num(result.p50_ms),
                   util::Table::num(result.p99_ms)});
    (replicas == 1 ? r1 : r3) = std::move(result);
    (replicas == 1 ? hit_rate1 : hit_rate3) = hit_rate;
  }
  print_slo("serve_bench/shard_slo");
  bench::emit("serve-bench: sharded fleet scaling", table);
  LMPEEL_CHECK_MSG(r1.generated == r3.generated,
                   "replica count changed generated tokens");
  std::cout << "generated tokens bit-identical across replica counts\n";
  const double speedup =
      r1.decode_tok_s > 0.0 ? r3.decode_tok_s / r1.decode_tok_s : 0.0;
  // The scaling gate needs the hardware to scale on: three decoding
  // replicas cannot beat one by 2.5x while time-slicing fewer than three
  // cores.  On smaller machines the gate degrades to "the router layer is
  // not the bottleneck" — 3 replicas on one core must still deliver at
  // least 85% of the single-replica rate.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool can_scale = hw >= 3;
  const double target = can_scale ? 2.5 : 0.85;
  const bool throughput_ok = speedup >= target;
  const bool affinity_ok = hit_rate3 >= hit_rate1 - 1e-9;
  std::cout << "aggregate decode scaling 1 -> 3 replicas: "
            << util::Table::num(speedup, 3) << "x (gate >= "
            << util::Table::num(target, 2) << "x"
            << (can_scale ? "" : ", overhead-only: " + std::to_string(hw) +
                                     " core(s)")
            << ", " << (throughput_ok ? "ok" : "FAILED") << ")\n"
            << "prefix-affinity hit rate: " << util::Table::num(hit_rate1, 3)
            << " -> " << util::Table::num(hit_rate3, 3) << " ("
            << (affinity_ok ? "held" : "REGRESSED") << ")\n";
  return throughput_ok && affinity_ok ? 0 : 1;
}

// ---- crash-recovery workload (DESIGN.md §16) ------------------------------

int run_recover_bench(bool quick) {
  const Workload w = make_workload(quick);
  std::cout << "model: d_model " << w.model.d_model << ", layers "
            << w.model.n_layer << ", vocab " << w.model.vocab
            << "\nworkload: " << w.requests << " requests over "
            << w.prefixes.size() << " shared " << w.prefix_len
            << "-token prefixes, " << w.gen_tokens
            << " generated tokens each; kill + revive between passes\n";

  obs::Registry::global().reset();
  Fleet fleet(w, /*replicas=*/3);
  shard::Router& router = *fleet.router;
  const PassResult pre = run_pass(router, w);

  // Kill the replica that owns the first campaign prefix — the most
  // affinity-loaded target — then resurrect it through the full protocol.
  const std::size_t victim = router.preference_order(w.prefixes[0]).front();
  fleet.stacks[victim].engine->kill();
  router.probe(victim);  // death is detected lazily; make revive eligible
  const shard::ReviveReport revived = router.revive(victim);
  LMPEEL_CHECK_MSG(revived.ok, "serve-bench recover: revive failed");

  const PassResult post = run_pass(router, w);

  const double ratio =
      pre.decode_tok_s > 0.0 ? post.decode_tok_s / pre.decode_tok_s : 0.0;
  util::Table table({"phase", "requests", "wall_s", "agg_dec_tok_s"});
  table.add_row({"pre-kill", std::to_string(w.requests),
                 util::Table::num(pre.wall_s),
                 util::Table::num(pre.decode_tok_s)});
  table.add_row({"post-revive", std::to_string(w.requests),
                 util::Table::num(post.wall_s),
                 util::Table::num(post.decode_tok_s)});
  print_slo("serve_bench/recover_slo");
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
            << std::fixed << std::setprecision(1) << 100.0 * ratio
            << std::defaultfloat << "% of pre-kill, gate "
            << (gate_throughput
                    ? ">= 90%"
                    : "report-only: " + std::to_string(hw) + " core(s)")
            << ", " << (throughput_ok ? "ok" : "FAILED") << ")\n";
  return throughput_ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: lmpeel serve-bench [quick] <shard|recover>\n";
  return 2;
}

}  // namespace

int cmd_serve_bench(int argc, char** argv) {
  bool quick = false;
  bool shard_mode = false;
  bool recover_mode = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "shard") == 0) {
      shard_mode = true;
    } else if (std::strcmp(argv[i], "recover") == 0) {
      recover_mode = true;
    } else {
      return usage();
    }
  }
  if (shard_mode) return run_shard_bench(quick);
  if (recover_mode) return run_recover_bench(quick);
  return usage();
}
