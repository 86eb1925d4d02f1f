#include "shard/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lmpeel::shard {

namespace {

obs::Counter& counter(const char* name) {
  return obs::Registry::global().counter(name);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sticky states: once parked, only revive() moves the replica again.
bool is_parked(Health health) {
  return health == Health::Dead || health == Health::Draining ||
         health == Health::Recovering;
}

}  // namespace

const char* health_name(Health health) {
  switch (health) {
    case Health::Healthy: return "healthy";
    case Health::Degraded: return "degraded";
    case Health::Draining: return "draining";
    case Health::Dead: return "dead";
    case Health::Recovering: return "recovering";
  }
  return "unknown";
}

Router::Router(std::vector<Replica> replicas, RouterConfig config)
    : config_(config) {
  LMPEEL_CHECK_MSG(!replicas.empty(), "Router needs at least one replica");
  LMPEEL_CHECK_MSG(config_.virtual_nodes > 0, "virtual_nodes must be >= 1");
  replicas_.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    LMPEEL_CHECK_MSG(replicas[i].client != nullptr,
                     "Router replica has no client");
    auto state = std::make_unique<ReplicaState>();
    state->replica = std::move(replicas[i]);
    if (state->replica.name.empty()) {
      state->replica.name = "replica-" + std::to_string(i);
    }
    state->client.store(state->replica.client, std::memory_order_relaxed);
    guard::BreakerOptions breaker_options = config_.breaker;
    // Per-replica jitter stream so breaker cooldown probes decorrelate
    // across the fleet — the same reason RetryClient jitters per request.
    breaker_options.seed = util::hash_combine(config_.seed, i);
    state->breaker = std::make_unique<guard::Breaker>(breaker_options);
    serve::RetryOptions retry_options = config_.retry;
    retry_options.breaker = state->breaker.get();
    retry_options.seed = util::hash_combine(config_.seed, 0x9e77 + i);
    state->retry = std::make_unique<serve::RetryClient>(
        *state->replica.client, retry_options);
    replicas_.push_back(std::move(state));
  }
  // The ring is immutable: replica death is handled by skipping at lookup
  // time, so the survivors' affinity never churns when a replica dies and
  // comes back in a later fleet generation.
  ring_.reserve(replicas_.size() * config_.virtual_nodes);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      const std::uint64_t h = util::mix64(
          util::hash_combine(util::hash_combine(config_.seed, i), v));
      ring_.emplace_back(h, i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  obs::Registry::global().gauge("shard.replicas")
      .set(static_cast<double>(replicas_.size()));
  const std::size_t workers =
      config_.workers > 0 ? config_.workers : 4 * replicas_.size();
  pool_ = std::make_unique<util::ThreadPool>(workers);
}

Router::~Router() {
  {
    // New submits refuse with ShutDown from here on; in-flight worker
    // tasks keep running — the pool destructor drains the queue, so every
    // accepted future resolves before this returns.
    std::lock_guard lock(submit_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  pool_.reset();
}

std::span<const int> Router::route_key(const serve::Request& request) {
  if (request.shared_prefix_tokens > 0 &&
      request.shared_prefix_tokens <= request.prompt.size()) {
    return std::span<const int>(request.prompt.data(),
                                request.shared_prefix_tokens);
  }
  return std::span<const int>(request.prompt.data(), request.prompt.size());
}

std::uint64_t Router::hash_tokens(std::span<const int> tokens) const {
  std::uint64_t h = util::mix64(config_.seed ^ 0x5a4dULL);
  for (const int token : tokens) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(token)));
  }
  return util::mix64(h);
}

std::vector<std::size_t> Router::preference_order(
    std::span<const int> prefix_tokens) const {
  const std::uint64_t key = hash_tokens(prefix_tokens);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const std::pair<std::uint64_t, std::size_t>& entry,
         std::uint64_t value) { return entry.first < value; });
  std::vector<std::size_t> order;
  order.reserve(replicas_.size());
  std::vector<bool> seen(replicas_.size(), false);
  // Clockwise walk from the key's position; each distinct replica joins
  // the order once, so the full walk is the failover preference list.
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
      if (order.size() == replicas_.size()) break;
    }
    ++it;
  }
  return order;
}

Health Router::probe(std::size_t i) {
  ReplicaState& state = *replicas_[i];
  const Health sticky = state.health.load(std::memory_order_acquire);
  if (is_parked(sticky)) return sticky;
  if (!state.client.load(std::memory_order_acquire)->accepting()) {
    mark_dead(state);
    return Health::Dead;
  }
  const bool degraded =
      state.breaker->state() != guard::Breaker::State::Closed ||
      state.consecutive_errors.load(std::memory_order_relaxed) >=
          config_.degrade_after_errors;
  const Health next = degraded ? Health::Degraded : Health::Healthy;
  if (state.health.exchange(next, std::memory_order_acq_rel) != next &&
      next == Health::Degraded) {
    counter("shard.replica.degraded").add();
  }
  return next;
}

std::size_t Router::probe_all() {
  std::size_t admittable_count = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (admittable(probe(i))) ++admittable_count;
  }
  obs::Registry::global().gauge("shard.replicas_admittable")
      .set(static_cast<double>(admittable_count));
  return admittable_count;
}

bool Router::accepting() const {
  if (stopping_.load(std::memory_order_acquire)) return false;
  for (const auto& state : replicas_) {
    const Health health = state->health.load(std::memory_order_acquire);
    if (is_parked(health)) continue;
    if (state->client.load(std::memory_order_acquire)->accepting()) {
      return true;
    }
  }
  return false;
}

std::future<serve::ServeResult> Router::submit(serve::Request request) {
  // Trace identity is minted here so every failover attempt — across
  // replicas — shares one timeline lane.
  if (request.trace == 0) request.trace = obs::mint_trace_id();
  std::promise<serve::ServeResult> promise;
  std::future<serve::ServeResult> future = promise.get_future();
  std::lock_guard lock(submit_mutex_);
  if (stopping_.load(std::memory_order_acquire)) {
    serve::ServeResult result;
    result.status = serve::RequestStatus::ShutDown;
    counter("serve.rejected.shut_down").add();
    promise.set_value(std::move(result));
    return future;
  }
  counter("shard.routed").add();
  // Append-before-ack (DESIGN.md §16): the acceptance is journaled before
  // the request is dispatched, so a crash between here and the ack leaves
  // durable evidence of the promise.
  journal_append("sub", request.trace, 0);
  // The worker owns the blocking failover loop; submit() never waits on
  // model work.  shared_ptr because std::function requires copyable.
  auto shared_promise =
      std::make_shared<std::promise<serve::ServeResult>>(std::move(promise));
  auto shared_request =
      std::make_shared<serve::Request>(std::move(request));
  pool_->submit([this, shared_promise, shared_request]() mutable {
    serve_one(std::move(*shared_request), std::move(*shared_promise));
  });
  return future;
}

void Router::serve_one(serve::Request request,
                       std::promise<serve::ServeResult> promise) {
  const std::vector<std::size_t> order = preference_order(route_key(request));
  serve::ServeResult last;
  last.status = serve::RequestStatus::ShutDown;
  bool attempted = false;
  bool failed_over = false;
  for (const std::size_t idx : order) {
    ReplicaState& state = *replicas_[idx];
    if (!admittable(probe(idx))) continue;
    if (failed_over) {
      // Count the re-route before the attempt so a hang would still be
      // visible in metrics; the fallback prefill re-warms the prefix on
      // this replica's cache as a side effect of the resubmission.
      failover_attempts_.fetch_add(1, std::memory_order_relaxed);
      counter("shard.failover.attempts").add();
      obs::timeline(obs::TimelineKind::ReplicaFailover, request.trace,
                    static_cast<double>(idx));
    }
    // seq_cst increment + health re-check closes the race with revive():
    // either this thread sees the replica parked here and backs off, or
    // revive()'s outstanding-drain wait sees the increment and blocks until
    // this attempt finishes — so the retry/breaker swap never happens under
    // a live call.
    state.outstanding.fetch_add(1);
    if (!admittable(state.health.load())) {
      state.outstanding.fetch_sub(1);
      continue;
    }
    state.routed.fetch_add(1, std::memory_order_relaxed);
    serve::ServeResult result = state.retry->generate(request);
    state.outstanding.fetch_sub(1);
    attempted = true;
    switch (result.status) {
      case serve::RequestStatus::Ok:
        state.consecutive_errors.store(0, std::memory_order_relaxed);
        if (failed_over) {
          failover_successes_.fetch_add(1, std::memory_order_relaxed);
          counter("shard.failover.success").add();
        }
        journal_append("ack", request.trace,
                       static_cast<int>(result.status));
        promise.set_value(std::move(result));
        return;
      case serve::RequestStatus::EngineError:
      case serve::RequestStatus::ShutDown:
      case serve::RequestStatus::BreakerOpen:
      case serve::RequestStatus::QueueFull:
        // Replica-level failure (died, sick, or saturated past its retry
        // budget): record it and walk the ring.  Determinism makes the
        // resubmission safe — the fallback recomputes the identical
        // generation from the request seed; the failed attempt's partial
        // output is discarded with `result`.
        note_replica_failure(idx, result.status);
        failed_over = true;
        last = std::move(result);
        continue;
      default:
        // Request-level verdicts (Shed, Cancelled, DeadlineExpired,
        // PromptTooLong) hold on every replica; failing over would just
        // burn a second replica's admission queue on the same answer.
        journal_append("ack", request.trace,
                       static_cast<int>(result.status));
        promise.set_value(std::move(result));
        return;
    }
  }
  failover_exhausted_.fetch_add(1, std::memory_order_relaxed);
  counter("shard.failover.exhausted").add();
  if (!attempted || last.status == serve::RequestStatus::EngineError) {
    // Nothing admittable, or the last live replica died under us: the
    // fleet cannot serve this request.  ShutDown is the truthful fleet
    // status — and unlike EngineError it tells a RetryClient above us not
    // to hammer a dead fleet.
    last.generation = {};
    last.status = serve::RequestStatus::ShutDown;
  }
  journal_append("ack", request.trace, static_cast<int>(last.status));
  promise.set_value(std::move(last));
}

void Router::journal_append(const char* kind, std::uint64_t trace,
                            int status) {
  if (config_.journal == nullptr) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s %016llx %d", kind,
                static_cast<unsigned long long>(trace), status);
  config_.journal->append(buf);
}

bool Router::mark_dead(ReplicaState& state) {
  Health expected = state.health.load(std::memory_order_acquire);
  while (!is_parked(expected) &&
         !state.health.compare_exchange_weak(expected, Health::Dead,
                                             std::memory_order_acq_rel)) {
  }
  if (is_parked(expected)) return false;
  // Stamp death time on the transition only — MTTR measures first-kill to
  // Healthy, not the last of several confirmations.
  state.died_at.store(now_s(), std::memory_order_relaxed);
  counter("shard.replica.dead").add();
  return true;
}

void Router::note_replica_failure(std::size_t i, serve::RequestStatus status) {
  ReplicaState& state = *replicas_[i];
  if (status == serve::RequestStatus::ShutDown ||
      !state.client.load(std::memory_order_acquire)->accepting()) {
    mark_dead(state);
    return;
  }
  const std::size_t errors =
      state.consecutive_errors.fetch_add(1, std::memory_order_relaxed) + 1;
  if (errors >= config_.degrade_after_errors) {
    // CAS so a parked replica (Dead/Draining/Recovering) is never knocked
    // back to Degraded by a stale failure report.
    Health expected = state.health.load(std::memory_order_acquire);
    while (!is_parked(expected) && expected != Health::Degraded &&
           !state.health.compare_exchange_weak(expected, Health::Degraded,
                                               std::memory_order_acq_rel)) {
    }
    if (expected == Health::Healthy) {
      counter("shard.replica.degraded").add();
    }
  }
}

std::size_t Router::drain(std::size_t i) {
  LMPEEL_CHECK_MSG(i < replicas_.size(), "drain: bad replica index");
  std::lock_guard revive_lock(revive_mutex_);
  ReplicaState& state = *replicas_[i];
  Health expected = state.health.load(std::memory_order_acquire);
  while (expected != Health::Draining &&
         !state.health.compare_exchange_weak(expected, Health::Draining,
                                             std::memory_order_acq_rel)) {
  }
  if (expected != Health::Draining && expected != Health::Dead) {
    // A later revive() measures MTTR from the moment routing stopped.
    state.died_at.store(now_s(), std::memory_order_relaxed);
  }
  drains_.fetch_add(1, std::memory_order_relaxed);
  counter("shard.drain").add();
  // Admission is off; in-flight decode finishes naturally.  Only the
  // router-tracked count matters — work submitted around the router is
  // the owner's problem, by the same contract as Engine::shutdown().
  while (state.outstanding.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (state.replica.cache == nullptr) return 0;

  // Successor = the next live replica clockwise from the drained one's
  // first ring position — the same place the ring sends its keys now.
  // Re-evaluated whenever a migration target fails mid-drain: the skip-dead
  // rule lookup applies at migration time too, not just at drain start.
  const auto next_live_successor = [&]() -> std::size_t {
    for (std::size_t step = 1; step < replicas_.size(); ++step) {
      const std::size_t candidate = (i + step) % replicas_.size();
      if (admittable(probe(candidate))) return candidate;
    }
    return replicas_.size();
  };
  std::size_t successor = next_live_successor();
  if (successor == replicas_.size()) return 0;  // nowhere to migrate

  // Token ids only: KV pages are replica-local, so the successor replays
  // each prefix as a one-token warm request and its own cache re-inserts.
  // Longest first (snapshot order) so the campaign ICL blocks — the
  // affinity that matters — migrate even under the cap.
  const auto prefixes = state.replica.cache->snapshot_prefixes();
  std::size_t migrated = 0;
  for (const std::vector<int>& prefix : prefixes) {
    if (migrated >= config_.migrate_limit) break;
    if (successor == replicas_.size()) break;
    if (prefix.size() < 2) continue;
    bool stored = false;
    // One try per replica in the worst case: a dying successor costs one
    // failed warm request, then the prefix retries on the next live one.
    for (std::size_t attempt = 0;
         !stored && attempt < replicas_.size() &&
         successor != replicas_.size();
         ++attempt) {
      serve::Request warm;
      warm.prompt = prefix;
      warm.options.max_tokens = 1;
      warm.priority = serve::Priority::Batch;
      warm.shared_prefix_tokens = prefix.size();
      warm.trace = obs::mint_trace_id();
      const serve::ServeResult result =
          replicas_[successor]->retry->generate(std::move(warm));
      switch (result.status) {
        case serve::RequestStatus::Ok:
          stored = true;
          break;
        case serve::RequestStatus::EngineError:
        case serve::RequestStatus::ShutDown:
        case serve::RequestStatus::BreakerOpen:
        case serve::RequestStatus::QueueFull:
          // The successor itself failed: mark it and re-pick before
          // retrying the same prefix.
          note_replica_failure(successor, result.status);
          successor = next_live_successor();
          continue;
        default:
          // Request-level verdict: this prefix is not warmable; move on.
          attempt = replicas_.size();
          break;
      }
    }
    if (!stored) continue;
    ++migrated;
    counter("shard.drain.migrated_prefixes").add();
  }
  migrated_prefixes_.fetch_add(migrated, std::memory_order_relaxed);
  return migrated;
}

ReviveReport Router::revive(std::size_t i) {
  LMPEEL_CHECK_MSG(i < replicas_.size(), "revive: bad replica index");
  std::lock_guard revive_lock(revive_mutex_);
  ReplicaState& state = *replicas_[i];
  ReviveReport report;

  // Dead/Draining → Recovering; anything else is not resurrectable.
  Health expected = state.health.load(std::memory_order_acquire);
  while ((expected == Health::Dead || expected == Health::Draining) &&
         !state.health.compare_exchange_weak(expected, Health::Recovering,
                                             std::memory_order_acq_rel)) {
  }
  if (expected != Health::Dead && expected != Health::Draining) {
    return report;
  }
  counter("shard.replica.recovering").add();
  obs::timeline(obs::TimelineKind::ReplicaRevive, 0,
                static_cast<double>(i));

  // Wait out stragglers that raced past a stale Healthy probe — after this
  // no thread can be inside state.retry (serve_one re-checks health after
  // its outstanding increment), so the retry/breaker swap below is safe.
  while (state.outstanding.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Durable truth first: what the journal acked survives the engine.  The
  // count feeds the drill's zero-lost/zero-duplicated accounting.  scan()
  // (not replay()) because other replicas are still appending to a shared
  // journal — a mid-append read must not quarantine a healthy file.
  if (config_.journal != nullptr) {
    config_.journal->sync();
    report.wal_replayed =
        recover::Wal::scan(config_.journal->path()).records.size();
  }

  // Restart the engine through the owner's hook, or re-admit the existing
  // client if it recovered on its own (e.g. a drained engine not killed).
  serve::Client* fresh = nullptr;
  if (state.replica.restart) {
    fresh = state.replica.restart();
  } else {
    serve::Client* current = state.client.load(std::memory_order_acquire);
    if (current != nullptr && current->accepting()) fresh = current;
  }
  if (fresh == nullptr || !fresh->accepting()) {
    state.health.store(Health::Dead, std::memory_order_release);
    counter("shard.revive.failed").add();
    return report;
  }
  state.client.store(fresh, std::memory_order_release);
  // Fresh breaker and retry client: the resurrected engine starts with a
  // clean error slate.  The new retry references the new breaker, which
  // must outlive it — assign retry first so the old retry (still holding
  // the old breaker) dies before the breaker it references.
  guard::BreakerOptions breaker_options = config_.breaker;
  breaker_options.seed = util::hash_combine(config_.seed, i);
  auto breaker = std::make_unique<guard::Breaker>(breaker_options);
  serve::RetryOptions retry_options = config_.retry;
  retry_options.breaker = breaker.get();
  retry_options.seed = util::hash_combine(config_.seed, 0x9e77 + i);
  state.retry = std::make_unique<serve::RetryClient>(*fresh, retry_options);
  state.breaker = std::move(breaker);
  state.consecutive_errors.store(0, std::memory_order_relaxed);

  // Re-warm: replay the replica's own cached prefixes (token ids) as warm
  // requests through the new engine.
  if (state.replica.cache != nullptr) {
    const auto prefixes = state.replica.cache->snapshot_prefixes();
    for (const std::vector<int>& prefix : prefixes) {
      if (report.rewarmed >= config_.migrate_limit) break;
      if (prefix.size() < 2) continue;
      serve::Request warm;
      warm.prompt = prefix;
      warm.options.max_tokens = 1;
      warm.priority = serve::Priority::Batch;
      warm.shared_prefix_tokens = prefix.size();
      warm.trace = obs::mint_trace_id();
      if (state.retry->generate(std::move(warm)).status ==
          serve::RequestStatus::Ok) {
        ++report.rewarmed;
      }
    }
  }

  // Probation: the replica rejoins only after N consecutive successful
  // probes, so a half-recovered engine cannot flap back into the ring.
  const std::size_t needed = std::max<std::size_t>(config_.revive_probes, 1);
  std::size_t consecutive = 0;
  for (std::size_t attempt = 0; attempt < 4 * needed && consecutive < needed;
       ++attempt) {
    serve::Request probe_request;
    probe_request.prompt = config_.probe_prompt;
    probe_request.options.max_tokens = 1;
    probe_request.priority = serve::Priority::Batch;
    probe_request.trace = obs::mint_trace_id();
    ++report.probes;
    if (state.retry->generate(std::move(probe_request)).status ==
        serve::RequestStatus::Ok) {
      ++consecutive;
    } else {
      consecutive = 0;
    }
  }
  if (consecutive < needed) {
    state.health.store(Health::Dead, std::memory_order_release);
    counter("shard.revive.failed").add();
    return report;
  }

  // Atomic rejoin: bump the ring generation, then one release store flips
  // the replica routable.  In-flight lookups see the old health (skip) or
  // the new one (route) — never a half-joined replica.
  report.ring_generation =
      ring_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  state.health.store(Health::Healthy, std::memory_order_release);
  revives_.fetch_add(1, std::memory_order_relaxed);
  counter("recover.revives").add();
  report.mttr_s =
      std::max(0.0, now_s() - state.died_at.load(std::memory_order_relaxed));
  obs::Registry::global().histogram("recover.mttr_s").record(report.mttr_s);
  report.ok = true;
  return report;
}

RouterStats Router::stats() const {
  RouterStats stats;
  stats.routed.reserve(replicas_.size());
  for (const auto& state : replicas_) {
    stats.routed.push_back(state->routed.load(std::memory_order_relaxed));
  }
  stats.failover_attempts =
      failover_attempts_.load(std::memory_order_relaxed);
  stats.failover_successes =
      failover_successes_.load(std::memory_order_relaxed);
  stats.failover_exhausted =
      failover_exhausted_.load(std::memory_order_relaxed);
  stats.drains = drains_.load(std::memory_order_relaxed);
  stats.migrated_prefixes =
      migrated_prefixes_.load(std::memory_order_relaxed);
  stats.revives = revives_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace lmpeel::shard
