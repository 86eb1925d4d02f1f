#include "guard/soak.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#ifdef __linux__
#include <unistd.h>
#endif

#include "cache/prefix_cache.hpp"
#include "fault/fault.hpp"
#include "guard/breaker.hpp"
#include "guard/budget.hpp"
#include "lm/transformer.hpp"
#include "mem/page_pool.hpp"
#include "shard/router.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "serve/retry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lmpeel::guard {

namespace {

using Clock = serve::Clock;

/// Decoder wrapper whose prefill throws while the sick flag is up — the
/// soak's way of making the engine visibly unhealthy for a bounded window
/// so the breaker has something real to trip on.  Steps stay healthy:
/// in-flight work admitted before the window finishes normally.
class SickWindowDecoder final : public serve::BatchDecoder {
 public:
  SickWindowDecoder(serve::BatchDecoder& inner, std::atomic<bool>& sick)
      : inner_(&inner), sick_(&sick) {}

  int vocab_size() const override { return inner_->vocab_size(); }
  std::size_t slots() const override { return inner_->slots(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  void start(std::size_t slot, std::span<const int> prompt,
             std::uint64_t seed, std::span<float> out,
             std::size_t shared_prefix_tokens = 0) override {
    if (sick_->load(std::memory_order_relaxed)) {
      // Thrown before forwarding: the engine's containment path must also
      // abandon the prefix the inner decoder prepared (engine.cpp catch).
      throw std::runtime_error("soak sick window: prefill refused");
    }
    inner_->start(slot, prompt, seed, out, shared_prefix_tokens);
  }
  void step(std::span<const Step> steps, lm::Tensor& logits) override {
    inner_->step(steps, logits);
  }
  void release(std::size_t slot) override { inner_->release(slot); }
  std::string name() const override { return "sick(" + inner_->name() + ")"; }
  std::size_t bytes_per_token() const override {
    return inner_->bytes_per_token();
  }
  void bind_budget(Budget* budget) override { inner_->bind_budget(budget); }
  std::size_t prepare_prefix(std::span<const int> prompt) override {
    return inner_->prepare_prefix(prompt);
  }
  void abandon_prefix() override { inner_->abandon_prefix(); }
  std::size_t shed_cache(std::size_t bytes) override {
    return inner_->shed_cache(bytes);
  }
  std::size_t cost_slack_bytes() const override {
    return inner_->cost_slack_bytes();
  }
  bool supports_chunked_prefill() const override {
    return inner_->supports_chunked_prefill();
  }
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override {
    // Under two-stage scheduling admission is where the sick window bites
    // (same containment path as start()); chunks of already-admitted
    // prompts stay healthy, mirroring how step() does.
    if (sick_->load(std::memory_order_relaxed)) {
      throw std::runtime_error("soak sick window: prefill refused");
    }
    inner_->start_chunked(slot, prompt, seed, shared_prefix_tokens);
  }
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override {
    return inner_->prefill_chunk(slot, max_tokens, out, done);
  }

 private:
  serve::BatchDecoder* inner_;
  std::atomic<bool>* sick_;
};

/// Resident set size in KiB from /proc/self/statm; 0 when unavailable.
std::size_t rss_kb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(page) / 1024;
#else
  return 0;
#endif
}

void tally(SoakReport::ClassStats& stats, serve::RequestStatus status) {
  ++stats.submitted;
  switch (status) {
    case serve::RequestStatus::Ok: ++stats.ok; break;
    case serve::RequestStatus::Shed: ++stats.shed; break;
    case serve::RequestStatus::QueueFull: ++stats.queue_full; break;
    case serve::RequestStatus::EngineError: ++stats.engine_error; break;
    case serve::RequestStatus::BreakerOpen: ++stats.breaker_open; break;
    default: ++stats.other; break;
  }
}

constexpr std::size_t kMaxPromptLen = 11;

/// KV page pool for one soak engine (DESIGN.md §14).  8-token pages keep
/// the page-rounding and copy-on-write slack of one request well inside
/// the auto-sized budget.
mem::PagePoolConfig soak_pool_config(const lm::TransformerConfig& model) {
  mem::PagePoolConfig config;
  config.page_tokens = 8;
  config.n_layer = static_cast<std::size_t>(model.n_layer);
  config.d_model = static_cast<std::size_t>(model.d_model);
  return config;
}

/// Tokens of the per-class shared prompt prefix: long enough for radix
/// hits to matter, short enough that prompts stay mostly random tail.
constexpr std::size_t kSharedPrefixLen = 4;

serve::Request soak_request(util::Rng& rng, int vocab,
                            serve::Priority priority,
                            std::size_t max_tokens, bool shared_prefix) {
  serve::Request request;
  const auto len =
      static_cast<std::size_t>(rng.uniform_int(4, kMaxPromptLen));
  if (shared_prefix) {
    // Deterministic per-class prefix (the soak's stand-in for a tuner's
    // shared ICL block) followed by a random tail — the mix the prefix
    // cache is built for.
    for (std::size_t t = 0; t < kSharedPrefixLen; ++t) {
      request.prompt.push_back(
          4 + (static_cast<int>(priority) * 7 + static_cast<int>(t) * 3) %
                  (vocab - 4));
    }
    request.shared_prefix_tokens = kSharedPrefixLen;
  }
  for (std::size_t t = request.prompt.size(); t < len; ++t) {
    request.prompt.push_back(
        static_cast<int>(rng.uniform_int(4, vocab - 1)));
  }
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = max_tokens;
  request.options.seed = rng.next();
  request.priority = priority;
  return request;
}

/// Decoder wrapper realising fault::FaultKind::ReplicaStall: arm() charges
/// one stall window, and the next decoder op sleeps it off — the replica
/// visibly stops making progress without corrupting any state.
class StallDecoder final : public serve::BatchDecoder {
 public:
  explicit StallDecoder(serve::BatchDecoder& inner) : inner_(&inner) {}

  void arm(double seconds) {
    stall_s_.store(seconds, std::memory_order_relaxed);
  }

  int vocab_size() const override { return inner_->vocab_size(); }
  std::size_t slots() const override { return inner_->slots(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  void start(std::size_t slot, std::span<const int> prompt,
             std::uint64_t seed, std::span<float> out,
             std::size_t shared_prefix_tokens = 0) override {
    maybe_stall();
    inner_->start(slot, prompt, seed, out, shared_prefix_tokens);
  }
  void step(std::span<const Step> steps, lm::Tensor& logits) override {
    maybe_stall();
    inner_->step(steps, logits);
  }
  void release(std::size_t slot) override { inner_->release(slot); }
  std::string name() const override {
    return "stall(" + inner_->name() + ")";
  }
  std::size_t bytes_per_token() const override {
    return inner_->bytes_per_token();
  }
  void bind_budget(Budget* budget) override { inner_->bind_budget(budget); }
  std::size_t prepare_prefix(std::span<const int> prompt) override {
    return inner_->prepare_prefix(prompt);
  }
  void abandon_prefix() override { inner_->abandon_prefix(); }
  std::size_t shed_cache(std::size_t bytes) override {
    return inner_->shed_cache(bytes);
  }
  std::size_t cost_slack_bytes() const override {
    return inner_->cost_slack_bytes();
  }
  bool supports_chunked_prefill() const override {
    return inner_->supports_chunked_prefill();
  }
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override {
    maybe_stall();
    inner_->start_chunked(slot, prompt, seed, shared_prefix_tokens);
  }
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override {
    return inner_->prefill_chunk(slot, max_tokens, out, done);
  }

 private:
  void maybe_stall() {
    const double s = stall_s_.exchange(0.0, std::memory_order_relaxed);
    if (s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    }
  }

  serve::BatchDecoder* inner_;
  std::atomic<double> stall_s_{0.0};
};

/// Fleet-mode soak (DESIGN.md §15): N replicas — identical weights,
/// per-replica Budget children under one global cap — behind a
/// shard::Router, with seeded replica kills and stalls from the extended
/// fault::FaultPlan replacing the single-engine sick window.
SoakReport run_fleet_soak(const SoakOptions& options) {
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));

  lm::TransformerConfig model_config;
  model_config.vocab = 64;
  model_config.d_model = 32;
  model_config.n_head = 2;
  model_config.n_layer = 2;
  model_config.max_seq = 128;

  const std::size_t per_request_cost =
      (kMaxPromptLen + options.max_tokens) *
          (2 * static_cast<std::size_t>(model_config.n_layer) *
           static_cast<std::size_t>(model_config.d_model) * sizeof(float)) +
      3 * static_cast<std::size_t>(model_config.vocab) * sizeof(float);
  const std::size_t child_limit = options.budget_bytes != 0
                                      ? options.budget_bytes
                                      : 2 * per_request_cost;

  SoakReport report;
  report.replicas = options.replicas;
  report.budget_bytes = child_limit * options.replicas;

  // Budget hierarchy outlives every replica: a dying replica's retiring
  // requests release their reservations through child -> parent, so the
  // parent's meters must still exist when the engines tear down.
  Budget global_budget(child_limit * options.replicas);
  std::vector<std::unique_ptr<Budget>> child_budgets;
  child_budgets.reserve(options.replicas);
  for (std::size_t r = 0; r < options.replicas; ++r) {
    child_budgets.push_back(
        std::make_unique<Budget>(child_limit, &global_budget));
  }
  // One KV pool per replica, outliving the fleet scope below so the
  // pool-drained grade can be read once every stack has released its
  // pages.
  std::vector<std::unique_ptr<mem::PagePool>> pools;
  for (std::size_t r = 0; r < options.replicas; ++r) {
    pools.push_back(
        std::make_unique<mem::PagePool>(soak_pool_config(model_config)));
  }

  const serve::Priority kClasses[] = {
      serve::Priority::High, serve::Priority::Normal, serve::Priority::Batch,
      serve::Priority::Batch};
  SoakReport::ClassStats per_thread[4];
  std::atomic<std::size_t> crashes{0};
  std::atomic<std::size_t> issued{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> kills{0};
  std::atomic<std::uint64_t> stalls{0};
  std::uint64_t failover_attempts = 0;
  std::uint64_t failover_successes = 0;
  std::uint64_t revives_done = 0;

  {
    // Per-replica stacks.  Identical (config, seed) => identical weights —
    // the determinism failover relies on.  Members tear down in reverse
    // order: engine first, then decoder wrappers, cache, model.
    struct ReplicaStack {
      std::unique_ptr<lm::TransformerLm> model;
      std::unique_ptr<cache::PrefixCache> cache;
      std::unique_ptr<serve::TransformerBatchDecoder> decoder;
      std::unique_ptr<StallDecoder> stall;
      /// Engines parked by the restart hook.  A killed engine must stay
      /// alive — answering accepting() == false — until the router is
      /// gone, because router state may still point at it (the Replica
      /// contract in shard/router.hpp).  Declared before `engine` so all
      /// engines tear down before the shared decoder wrappers.
      std::vector<std::unique_ptr<serve::Engine>> retired;
      std::unique_ptr<serve::Engine> engine;
    };
    std::vector<ReplicaStack> fleet(options.replicas);
    std::vector<shard::Replica> descriptors;
    descriptors.reserve(options.replicas);
    for (std::size_t r = 0; r < options.replicas; ++r) {
      ReplicaStack& stack = fleet[r];
      stack.model =
          std::make_unique<lm::TransformerLm>(model_config, options.seed);
      cache::PrefixCacheConfig cache_config;
      cache_config.page_tokens = pools[r]->page_tokens();
      stack.cache =
          std::make_unique<cache::PrefixCache>(*stack.model, cache_config);
      stack.decoder = std::make_unique<serve::TransformerBatchDecoder>(
          *stack.model, options.max_batch, /*parallel=*/false,
          pools[r].get());
      if (options.prefix_cache) {
        stack.decoder->set_prefix_cache(stack.cache.get());
      }
      stack.stall = std::make_unique<StallDecoder>(*stack.decoder);
      serve::EngineConfig engine_config;
      engine_config.max_batch = options.max_batch;
      engine_config.queue_capacity = options.queue_capacity;
      engine_config.budget = child_budgets[r].get();
      engine_config.queue_slo_s = options.queue_slo_s;
      engine_config.prefill_chunk_tokens = 4;
      stack.engine =
          std::make_unique<serve::Engine>(*stack.stall, engine_config);
      shard::Replica descriptor;
      descriptor.client = stack.engine.get();
      descriptor.cache = stack.cache.get();
      descriptor.name = "replica-" + std::to_string(r);
      // Resurrection hook: same decoder stack and budget child, fresh
      // scheduler thread — the revived replica is the same replica minus
      // its KV state, which revive()'s re-warm rebuilds.  Runs on the
      // chaos-controller thread (the only revive() caller here), so the
      // engine swap never races the kill/accepting reads below.
      descriptor.restart = [&stack, engine_config]() -> serve::Client* {
        stack.retired.push_back(std::move(stack.engine));
        stack.engine =
            std::make_unique<serve::Engine>(*stack.stall, engine_config);
        return stack.engine.get();
      };
      descriptors.push_back(std::move(descriptor));
    }

    shard::RouterConfig router_config;
    router_config.seed = options.seed;
    // A killed replica fails fast; don't demand many consecutive errors
    // before the breaker stops lending it traffic.
    router_config.breaker.failure_threshold = 2;
    router_config.breaker.open_s = 0.05;
    router_config.breaker.max_open_s = 0.5;
    shard::Router router(std::move(descriptors), router_config);

    // Seeded replica-level chaos schedule, op = router submission index.
    fault::FaultPlanOptions plan_options;
    plan_options.horizon = 512;
    plan_options.p_throw = 0.0;
    plan_options.p_nan = 0.0;
    plan_options.p_inf = 0.0;
    plan_options.p_delay = 0.0;
    plan_options.p_queue_pressure = 0.0;
    plan_options.p_replica_kill = options.kill_rate / 2.0;
    plan_options.p_replica_stall = options.kill_rate / 2.0;
    plan_options.replica_stall_s = 0.05;
    plan_options.row_range = options.replicas;
    fault::FaultPlan plan =
        fault::FaultPlan::from_seed(options.seed, plan_options);
    if (options.kill_rate > 0.0) {
      bool has_kill = false;
      for (const fault::FaultEvent& event : plan.events()) {
        if (event.kind == fault::FaultKind::ReplicaKill) has_kill = true;
      }
      if (!has_kill) {
        // Never let the failover grade pass vacuously at low rates.
        fault::FaultEvent forced;
        forced.op = 8;
        forced.kind = fault::FaultKind::ReplicaKill;
        forced.row = static_cast<std::size_t>(options.seed) %
                     options.replicas;
        plan = plan.with_event(forced);
      }
    }

    std::vector<std::thread> clients;
    clients.reserve(4);
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        try {
          util::Rng rng(options.seed, /*stream=*/0x50a0 + c);
          serve::RetryOptions retry_options;
          retry_options.max_attempts = 2;
          retry_options.base_delay_s = 0.005;
          retry_options.max_delay_s = 0.05;
          retry_options.seed = options.seed + c;
          serve::RetryClient client(router, retry_options);
          while (Clock::now() < deadline) {
            issued.fetch_add(1, std::memory_order_relaxed);
            const serve::ServeResult result = client.generate(
                soak_request(rng, model_config.vocab, kClasses[c],
                             options.max_tokens, options.prefix_cache));
            completed.fetch_add(1, std::memory_order_relaxed);
            tally(per_thread[c], result.status);
          }
        } catch (...) {
          crashes.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // ---- chaos controller: apply replica events as submissions pass ----
    obs::Registry& reg = obs::Registry::global();
    std::size_t cursor = 0;
    const auto& events = plan.events();
    util::Rng revive_rng(options.seed, /*stream=*/0x4e71);
    // Monotonic seconds at which each replica was killed; 0 = not dead.
    // Drives the seeded revive draws and the overdue forcing below.
    std::vector<double> dead_since(options.replicas, 0.0);
    while (Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::size_t submitted = issued.load(std::memory_order_relaxed);
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - begin).count();
      while (cursor < events.size() && events[cursor].op <= submitted) {
        const fault::FaultEvent& event = events[cursor++];
        const std::size_t target = event.row % options.replicas;
        if (event.kind == fault::FaultKind::ReplicaKill) {
          std::size_t alive = 0;
          for (const ReplicaStack& stack : fleet) {
            if (stack.engine->accepting()) ++alive;
          }
          // Grade failover, not fleet extinction: spare the last replica.
          if (alive < 2 || !fleet[target].engine->accepting()) continue;
          fleet[target].engine->kill();
          dead_since[target] = elapsed;
          kills.fetch_add(1, std::memory_order_relaxed);
        } else if (event.kind == fault::FaultKind::ReplicaStall) {
          fleet[target].stall->arm(event.delay_s);
          stalls.fetch_add(1, std::memory_order_relaxed);
        } else {
          continue;
        }
        reg.counter("fault.injected").add();
        reg.counter(std::string("fault.injected.") +
                    fault::fault_kind_name(event.kind))
            .add();
      }
      if (options.restart_rate > 0.0) {
        for (std::size_t r = 0; r < options.replicas; ++r) {
          if (dead_since[r] == 0.0) continue;
          // Seeded per-tick resurrection draw; replicas dead much longer
          // than a stall window are revived unconditionally so the grade
          // never passes vacuously at low rates.
          const bool overdue = elapsed - dead_since[r] >= 0.5;
          if (!overdue && !revive_rng.bernoulli(options.restart_rate)) {
            continue;
          }
          // The router marks death lazily (on probe or a failed attempt);
          // refresh so revive()'s Dead -> Recovering transition can fire
          // even if no traffic touched the replica since the kill.
          router.probe(r);
          const shard::ReviveReport revived = router.revive(r);
          if (revived.ok) {
            dead_since[r] = 0.0;
            ++revives_done;
          }
        }
      }
    }

    for (auto& client : clients) client.join();
    const shard::RouterStats router_stats = router.stats();
    failover_attempts = router_stats.failover_attempts;
    failover_successes = router_stats.failover_successes;
  }

  // ---- grade ------------------------------------------------------------
  report.wall_s = std::chrono::duration<double>(Clock::now() - begin).count();
  report.high = per_thread[0];
  report.normal = per_thread[1];
  report.batch = per_thread[2];
  report.batch.submitted += per_thread[3].submitted;
  report.batch.ok += per_thread[3].ok;
  report.batch.shed += per_thread[3].shed;
  report.batch.queue_full += per_thread[3].queue_full;
  report.batch.engine_error += per_thread[3].engine_error;
  report.batch.breaker_open += per_thread[3].breaker_open;
  report.batch.other += per_thread[3].other;

  report.accounted_peak_bytes = global_budget.accounted_peak();
  report.reserve_denied = global_budget.denied();
  report.crashes = crashes.load();
  report.replica_kills = kills.load();
  report.replica_stalls = stalls.load();
  report.failover_attempts = failover_attempts;
  report.failover_successes = failover_successes;
  report.replica_revives = revives_done;
  const std::size_t issued_total = issued.load();
  const std::size_t completed_total = completed.load();
  report.lost_requests =
      issued_total > completed_total ? issued_total - completed_total : 0;

  report.budget_ok = report.accounted_peak_bytes <= report.budget_bytes;
  report.shed_ordering_ok = report.high.shed == 0 && report.normal.shed == 0;
  report.high_served = report.high.ok > 0 && report.high.shed == 0;
  for (const auto& pool : pools) report.pool_pages_end += pool->pages_in_use();
  report.pool_drained = report.pool_pages_end == 0;
  // Single-engine-only grades hold trivially in fleet mode.
  report.rss_ok = true;
  report.eviction_pressure_ok = true;
  report.breaker_exercised = true;
  // With resurrection chasing the kills, a replica's dead window shrinks
  // to milliseconds, so whether any request even *lands* on the dead
  // replica's hash range inside it — let alone completes Ok rather than
  // re-routing into a Batch shed on a saturated successor — is a coin
  // flip.  A kill was handled if a failover attempt ran or the revive
  // closed the window before any request needed re-routing.  Kills-only
  // mode keeps the stricter success gate.
  const bool failover_proven =
      options.restart_rate > 0.0
          ? report.failover_attempts >= 1 || report.replica_revives >= 1
          : report.failover_successes >= 1;
  report.failover_ok = options.kill_rate == 0.0 ||
                       (report.replica_kills >= 1 && failover_proven);
  report.no_lost_requests =
      report.lost_requests == 0 && report.crashes == 0;
  // With restarts requested and kills happening, at least one dead replica
  // must have completed the full rejoin (the overdue forcing above makes
  // this reachable at any rate); no kills = nothing to resurrect.
  report.revive_ok = options.restart_rate == 0.0 ||
                     options.kill_rate == 0.0 || report.replica_revives >= 1;
  return report;
}

}  // namespace

SoakReport run_soak(const SoakOptions& options) {
  LMPEEL_CHECK_MSG(options.seconds > 0.0, "soak needs a positive duration");
  LMPEEL_CHECK_MSG(options.replicas >= 1, "soak needs at least one replica");
  if (options.replicas > 1) return run_fleet_soak(options);
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));

  // Small but real: KV caches, batched decode, the works.
  lm::TransformerConfig model_config;
  model_config.vocab = 64;
  model_config.d_model = 32;
  model_config.n_head = 2;
  model_config.n_layer = 2;
  model_config.max_seq = 128;
  lm::TransformerLm model(model_config, options.seed);

  // Budget declared before the decoder: KV caches uncharge into it on
  // destruction, so it must be destroyed last.
  const std::size_t per_request_cost =
      (kMaxPromptLen + options.max_tokens) *
          (2 * static_cast<std::size_t>(model_config.n_layer) *
           static_cast<std::size_t>(model_config.d_model) * sizeof(float)) +
      3 * static_cast<std::size_t>(model_config.vocab) * sizeof(float);
  const std::size_t budget_bytes = options.budget_bytes != 0
                                       ? options.budget_bytes
                                       : 2 * per_request_cost;
  Budget budget(budget_bytes);
  Breaker breaker(BreakerOptions{.failure_threshold = 3,
                                 .open_s = 0.2,
                                 .max_open_s = 1.0,
                                 .seed = options.seed});

  // Paged KV backing (DESIGN.md §14).  Declared right after the budget so
  // it is destroyed immediately before it — after the engine, decoder and
  // prefix cache in the scope below have released every page handle.
  // That ordering is what makes the pool-drained grade meaningful: by the
  // time it is sampled, nothing may legitimately hold a page.
  mem::PagePool pool(soak_pool_config(model_config));

  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t hits0 = reg.counter("cache.prefix.hits").value();
  const std::uint64_t inserts0 = reg.counter("cache.prefix.inserts").value();
  const std::uint64_t evictions0 =
      reg.counter("cache.prefix.evictions").value();
  const std::uint64_t cow0 = reg.counter("mem.pool.cow_copies").value();
  const std::uint64_t exhausted0 = reg.counter("mem.pool.exhausted").value();
  const std::uint64_t zero_copy0 =
      reg.counter("cache.prefix.zero_copy_hits").value();
  // SLO window spanning the whole soak: one snapshot now, one at the end,
  // so the verdicts grade this run's deltas, not process-lifetime totals.
  obs::SloOptions slo_options;
  slo_options.window_s = options.seconds * 10.0 + 3600.0;
  obs::SloMonitor slo_monitor(slo_options);
  slo_monitor.observe(obs::MetricsSnapshot::from_registry(reg));
  const std::string postmortem_before =
      obs::FlightRecorder::global().last_dump_path();

  SoakReport report;
  report.budget_bytes = budget_bytes;

  const serve::Priority kClasses[] = {
      serve::Priority::High, serve::Priority::Normal, serve::Priority::Batch,
      serve::Priority::Batch};
  SoakReport::ClassStats per_thread[4];
  std::atomic<std::size_t> crashes{0};

  {
    // Prefix cache between pool and decoder: nodes release their budget
    // reservations and pages on destruction and the decoder holds a raw
    // pointer, so it must outlive the decoder and die before the pool and
    // budget.  Node reservations round up to page granularity so they
    // stay upper bounds on owned bytes.
    cache::PrefixCacheConfig cache_config;
    cache_config.page_tokens = pool.page_tokens();
    cache::PrefixCache prefix_cache(model, cache_config);

    serve::TransformerBatchDecoder inner(model, options.max_batch,
                                         /*parallel=*/true, &pool);
    if (options.prefix_cache) inner.set_prefix_cache(&prefix_cache);
    std::atomic<bool> sick{false};
    SickWindowDecoder decoder(inner, sick);

    serve::EngineConfig engine_config;
    engine_config.max_batch = options.max_batch;
    engine_config.queue_capacity = options.queue_capacity;
    engine_config.budget = &budget;
    engine_config.queue_slo_s = options.queue_slo_s;
    // Chunks smaller than the longest soak prompt, so two-stage
    // scheduling genuinely interleaves prefill slices with decode steps.
    engine_config.prefill_chunk_tokens = 4;
    serve::Engine engine(decoder, engine_config);

    // ---- client threads -------------------------------------------------
    std::vector<std::thread> clients;
    clients.reserve(4);
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        try {
          util::Rng rng(options.seed, /*stream=*/0x50a0 + c);
          serve::RetryOptions retry_options;
          retry_options.max_attempts = 2;
          retry_options.base_delay_s = 0.005;
          retry_options.max_delay_s = 0.05;
          retry_options.seed = options.seed + c;
          retry_options.breaker = &breaker;
          serve::RetryClient client(engine, retry_options);
          while (Clock::now() < deadline) {
            const serve::ServeResult result = client.generate(
                soak_request(rng, model_config.vocab, kClasses[c],
                             options.max_tokens, options.prefix_cache));
            tally(per_thread[c], result.status);
            if (result.status == serve::RequestStatus::BreakerOpen) {
              // Nothing was submitted; don't spin on the open breaker.
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
          }
        } catch (...) {
          crashes.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // ---- controller: sick window + RSS sampling -------------------------
    const double warmup_s = options.seconds * 0.25;
    const double sick_at_s = options.seconds * 0.4;
    const double sick_len_s = std::min(0.5, options.seconds * 0.1);
    bool sick_done = !options.sick_window;
    while (Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - begin).count();
      if (!sick_done && elapsed >= sick_at_s) {
        sick.store(true, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sick_len_s));
        sick.store(false, std::memory_order_relaxed);
        sick_done = true;
      }
      if (elapsed >= warmup_s) {
        // ~4 Hz is plenty: the check is about the trend, not the waveform.
        if (const std::size_t kb = rss_kb(); kb != 0) {
          if (report.rss_kb.empty() ||
              std::chrono::duration<double>(Clock::now() - begin).count() >=
                  warmup_s +
                      0.25 * static_cast<double>(report.rss_kb.size())) {
            report.rss_kb.push_back(kb);
          }
        }
      }
    }

    for (auto& client : clients) client.join();
    engine.shutdown();
  }

  // ---- grade ------------------------------------------------------------
  report.wall_s = std::chrono::duration<double>(Clock::now() - begin).count();
  report.high = per_thread[0];
  report.normal = per_thread[1];
  report.batch = per_thread[2];
  report.batch.submitted += per_thread[3].submitted;
  report.batch.ok += per_thread[3].ok;
  report.batch.shed += per_thread[3].shed;
  report.batch.queue_full += per_thread[3].queue_full;
  report.batch.engine_error += per_thread[3].engine_error;
  report.batch.breaker_open += per_thread[3].breaker_open;
  report.batch.other += per_thread[3].other;

  report.accounted_peak_bytes = budget.accounted_peak();
  report.reserve_denied = budget.denied();
  report.breaker_opened = breaker.opened();
  report.breaker_half_opened = breaker.half_opened();
  report.breaker_closed = breaker.closed();
  report.cache_hits = reg.counter("cache.prefix.hits").value() - hits0;
  report.cache_inserts =
      reg.counter("cache.prefix.inserts").value() - inserts0;
  report.cache_evictions =
      reg.counter("cache.prefix.evictions").value() - evictions0;
  report.pool_pages_end = pool.pages_in_use();
  report.pool_cow_copies = reg.counter("mem.pool.cow_copies").value() - cow0;
  report.pool_exhausted =
      reg.counter("mem.pool.exhausted").value() - exhausted0;
  report.pool_zero_copy_hits =
      reg.counter("cache.prefix.zero_copy_hits").value() - zero_copy0;
  report.crashes = crashes.load();
  slo_monitor.observe(obs::MetricsSnapshot::from_registry(reg));
  report.slo = slo_monitor.verdicts();
  // Archive the black box only if this soak actually dumped one (the sick
  // window's engine errors and breaker trip normally do).
  const std::string postmortem_after =
      obs::FlightRecorder::global().last_dump_path();
  if (postmortem_after != postmortem_before) {
    report.postmortem_path = postmortem_after;
  }

  report.budget_ok = report.accounted_peak_bytes <= budget_bytes;
  report.shed_ordering_ok = report.high.shed == 0 && report.normal.shed == 0;
  report.high_served = report.high.ok > 0 && report.high.shed == 0;
  report.breaker_exercised = breaker.opened() > 0;
  report.pool_drained = report.pool_pages_end == 0;
  // Eviction under pressure: a half-load budget that actually denied
  // reservations must also have squeezed cached state out — otherwise the
  // cache hoarded bytes while live work was refused.  No denials = no
  // pressure = nothing to grade.
  report.eviction_pressure_ok = !options.prefix_cache ||
                                report.cache_evictions > 0 ||
                                report.reserve_denied == 0;
  // Leak heuristic: fail only when RSS grew at *every* sample step AND the
  // total growth is material (> 20% and > 16 MiB).  A healthy soak
  // plateaus once slots and scratch are warm.
  report.rss_ok = true;
  if (report.rss_kb.size() >= 5) {
    bool monotonic = true;
    for (std::size_t i = 1; i < report.rss_kb.size(); ++i) {
      if (report.rss_kb[i] <= report.rss_kb[i - 1]) {
        monotonic = false;
        break;
      }
    }
    const std::size_t first = report.rss_kb.front();
    const std::size_t last = report.rss_kb.back();
    const bool material =
        last > first + std::max<std::size_t>(16 * 1024, first / 5);
    report.rss_ok = !(monotonic && material);
  }

  return report;
}

util::Table soak_table(const SoakReport& report, bool sick_window) {
  util::Table table({"metric", "high", "normal", "batch"});
  const auto class_row = [&](const char* name,
                             std::size_t SoakReport::ClassStats::*field) {
    table.add_row({name, std::to_string(report.high.*field),
                   std::to_string(report.normal.*field),
                   std::to_string(report.batch.*field)});
  };
  class_row("submitted", &SoakReport::ClassStats::submitted);
  class_row("ok", &SoakReport::ClassStats::ok);
  class_row("shed", &SoakReport::ClassStats::shed);
  class_row("queue_full", &SoakReport::ClassStats::queue_full);
  class_row("engine_error", &SoakReport::ClassStats::engine_error);
  class_row("breaker_open", &SoakReport::ClassStats::breaker_open);
  class_row("other", &SoakReport::ClassStats::other);

  const auto fact = [&](const char* name, const std::string& value) {
    table.add_row({name, value, "", ""});
  };
  fact("wall_s", util::Table::num(report.wall_s, 2));
  fact("budget_bytes", std::to_string(report.budget_bytes));
  fact("accounted_peak_bytes", std::to_string(report.accounted_peak_bytes));
  fact("reserve_denied", std::to_string(report.reserve_denied));
  fact("breaker open/half/closed",
       std::to_string(report.breaker_opened) + "/" +
           std::to_string(report.breaker_half_opened) + "/" +
           std::to_string(report.breaker_closed));
  fact("cache hit/insert/evict",
       std::to_string(report.cache_hits) + "/" +
           std::to_string(report.cache_inserts) + "/" +
           std::to_string(report.cache_evictions));
  if (report.replicas > 1) {
    fact("replicas", std::to_string(report.replicas));
    fact("replica kills/stalls", std::to_string(report.replica_kills) + "/" +
                                     std::to_string(report.replica_stalls));
    fact("failover attempts/successes",
         std::to_string(report.failover_attempts) + "/" +
             std::to_string(report.failover_successes));
    fact("replica revives", std::to_string(report.replica_revives));
    fact("lost requests", std::to_string(report.lost_requests));
  }
  if (report.replicas == 1) {
    fact("pool cow/exhausted/zero-copy",
         std::to_string(report.pool_cow_copies) + "/" +
             std::to_string(report.pool_exhausted) + "/" +
             std::to_string(report.pool_zero_copy_hits));
  }
  fact("pool pages after teardown", std::to_string(report.pool_pages_end));
  if (!report.rss_kb.empty()) {
    fact("rss_kb first..last", std::to_string(report.rss_kb.front()) +
                                   ".." +
                                   std::to_string(report.rss_kb.back()));
  }
  fact("postmortem", report.postmortem_path.empty() ? "(none)"
                                                    : report.postmortem_path);
  // SLO verdicts ride along report-only: a soak is a deliberate overload,
  // so e.g. shed_rate exceeding its objective is expected, not a failure.
  for (const obs::SloVerdict& v : report.slo) {
    fact(("slo " + v.name).c_str(),
         util::Table::num(v.value, 4) + (v.upper_bound ? " <= " : " >= ") +
             util::Table::num(v.threshold, 4) + (v.ok ? " ok" : " VIOLATED") +
             " (burn " + util::Table::num(v.burn, 2) + ")");
  }
  const auto verdict = [&](const char* name, bool ok) {
    table.add_row({name, ok ? "yes" : "NO", "", ""});
  };
  verdict("no crashes", report.crashes == 0);
  verdict("budget honoured", report.budget_ok);
  verdict("shed ordering (batch only)", report.shed_ordering_ok);
  verdict("high priority served", report.high_served);
  verdict("rss stable", report.rss_ok);
  verdict("pool drained", report.pool_drained);
  verdict("eviction under pressure", report.eviction_pressure_ok);
  if (report.replicas > 1) {
    verdict("failover exercised", report.failover_ok);
    verdict("no lost requests", report.no_lost_requests);
    verdict("revive after kill", report.revive_ok);
  }
  if (sick_window) verdict("breaker exercised", report.breaker_exercised);
  verdict("PASSED", report.passed(sick_window));
  return table;
}

}  // namespace lmpeel::guard
