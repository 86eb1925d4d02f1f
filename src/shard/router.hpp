// Multi-replica serving: prefix-affinity router with failover (DESIGN.md §15).
//
// One serve::Engine is a single scheduler thread; the paper's campaigns at
// fleet scale need N of them — and the moment there is more than one
// replica, the dominant risk flips from throughput to partial failure: a
// wedged or killed replica silently eating the campaigns routed to it.
// shard::Router is the layer that owns that risk.  It is itself a
// serve::Client, so everything above it (RetryClient, the LLAMBO tuners,
// the soak and bench harnesses) is replica-count agnostic, and it speaks
// only the serve::Client surface downward — never engine internals — so a
// remote transport later slots in per replica at exactly this seam.
//
//   * Routing — consistent hash over the request's shared-prefix token
//     block (the ICL example block of a campaign), on a ring of
//     virtual-node hashes.  A campaign's prompts all share one prefix, so
//     they all land on the replica whose cache::PrefixCache already holds
//     it; the ring keeps reassignment minimal when a replica dies.
//   * Health — each replica is classified Healthy / Degraded / Draining /
//     Dead from the signals the Client surface and the per-replica breaker
//     expose: accepting() == false is Dead (the replica shut down or was
//     killed), an open breaker or recent consecutive errors is Degraded.
//     Probes run inline on every routing decision and on demand via
//     probe_all() — there is no separate prober thread to race.
//   * Failover — each replica sits behind its own serve::RetryClient +
//     guard::Breaker.  When a replica's attempt comes back EngineError /
//     ShutDown / BreakerOpen (or QueueFull after retries — spillover), the
//     router walks the ring to the next live replica and resubmits the
//     *original* request.  Determinism makes this safe: generation is a
//     pure function of (request seed, model config+seed), every replica
//     loads identical weights, and partial output from the failed attempt
//     is discarded — so a failed-over result is bit-identical to the
//     no-fault run.  The fallback prefill re-warms the prefix on the
//     fallback replica's cache as a side effect of the resubmission.
//   * Drain — drain(i) stops routing to replica i, waits for its
//     router-tracked in-flight count to hit zero, then migrates the
//     replica's cached prefixes to its ring successor by token ids (never
//     KV pages, which are replica-local): each prefix is replayed as a
//     one-token Batch-priority warm request that the successor's cache
//     auto-inserts.
//
// Every submitted future resolves (the engines guarantee it per-replica;
// the router only ever adds more places to get an answer from), and the
// failover path never surfaces EngineError while a live replica remains.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "guard/breaker.hpp"
#include "recover/wal.hpp"
#include "serve/client.hpp"
#include "serve/retry.hpp"
#include "util/thread_pool.hpp"

namespace lmpeel::shard {

enum class Health : std::uint8_t {
  Healthy,    ///< accepting, breaker closed, no recent errors
  Degraded,   ///< accepting but breaker open or errors observed recently
  Draining,   ///< drain() in progress/finished: no new admissions, sticky
  Dead,       ///< stopped accepting (shutdown or kill); sticky until revive()
  Recovering, ///< revive() in progress: not admittable, not routable
};

const char* health_name(Health health);

/// One replica as the router sees it: the request surface plus an optional
/// management-plane handle to its prefix cache (drain migration reads token
/// ids from it; the router never touches KV state).  Neither is owned, and
/// both must outlive the Router.
struct Replica {
  serve::Client* client = nullptr;
  cache::PrefixCache* cache = nullptr;  ///< null = nothing to migrate
  std::string name;                     ///< metrics/report label
  /// Resurrection hook (DESIGN.md §16): called by Router::revive() to
  /// restart the replica's engine, returning the request surface of the
  /// fresh instance (null = restart failed).  The previous client object
  /// must stay valid until the Router is destroyed — a killed engine
  /// answers accepting() == false, which is all the router ever asks of
  /// it.  Null hook = revive() can only re-admit the existing client.
  std::function<serve::Client*()> restart;
};

/// What Router::revive() did, for drills and the soak report.
struct ReviveReport {
  bool ok = false;            ///< replica is Healthy again
  double mttr_s = 0.0;        ///< kill (or drain) → Healthy, seconds
  std::size_t wal_replayed = 0;  ///< journal records found on replay
  std::size_t rewarmed = 0;      ///< prefixes re-warmed into the cache
  std::size_t probes = 0;        ///< probe requests issued
  std::uint64_t ring_generation = 0;  ///< generation after the re-add
};

struct RouterConfig {
  /// Ring positions per replica.  More virtual nodes = smoother key spread
  /// and smaller affinity loss per death, at O(replicas · vnodes) ring size.
  std::size_t virtual_nodes = 16;
  /// Worker threads running the blocking failover loops; 0 = 4 per replica
  /// (enough to keep every replica's admission queue fed under fan-out).
  std::size_t workers = 0;
  /// Per-replica retry policy (breaker is installed by the router; any
  /// breaker set here is ignored).  Defaults trade persistence for fast
  /// failover: two attempts on the routed replica, then move on.
  serve::RetryOptions retry{.max_attempts = 2, .base_delay_s = 0.001,
                            .max_delay_s = 0.05};
  guard::BreakerOptions breaker;
  /// Consecutive per-replica EngineErrors before Degraded is reported even
  /// with a closed breaker.
  std::size_t degrade_after_errors = 1;
  /// Most prefixes migrated per drain (longest first — the campaign ICL
  /// blocks — so the valuable affinity moves even under a cap).  Also caps
  /// the prefixes re-warmed by revive().
  std::size_t migrate_limit = 64;
  /// Request journal (DESIGN.md §16): accepted submissions and their acks
  /// are appended so a drill can prove zero lost / zero duplicated
  /// requests across kill→revive cycles.  Not owned; null = off.
  recover::Wal* journal = nullptr;
  /// Consecutive probe successes revive() requires before re-admitting a
  /// replica to the ring.
  std::size_t revive_probes = 3;
  /// Prompt used for revive probe requests (1 decode token each).
  std::vector<int> probe_prompt = {1, 2};
  std::uint64_t seed = 0;  ///< ring + breaker jitter seed
};

struct RouterStats {
  std::vector<std::uint64_t> routed;  ///< requests first routed per replica
  std::uint64_t failover_attempts = 0;
  std::uint64_t failover_successes = 0;
  std::uint64_t failover_exhausted = 0;
  std::uint64_t drains = 0;
  std::uint64_t migrated_prefixes = 0;
  std::uint64_t revives = 0;
};

class Router final : public serve::Client {
 public:
  /// Replicas and their engines/caches must outlive the router.  At least
  /// one replica with a non-null client is required.
  Router(std::vector<Replica> replicas, RouterConfig config = {});
  /// Stops intake, then drains the worker pool: every already-submitted
  /// request still resolves (possibly after failover) before destruction
  /// returns, so the replicas must still be alive.
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes by prefix affinity and hands the blocking failover loop to a
  /// worker; never blocks on model work.  After ~Router began (or when no
  /// live replica remains) resolves immediately with ShutDown.
  std::future<serve::ServeResult> submit(serve::Request request) override;

  /// True while the router is up and at least one replica is admittable.
  bool accepting() const override;

  /// Health of replica `i`, re-probed from live signals (except the sticky
  /// Draining/Dead states).
  Health probe(std::size_t i);
  /// Probes every replica; returns the number currently admittable.
  std::size_t probe_all();

  /// Graceful drain of replica `i` (DESIGN.md §15): marks it Draining so
  /// no new work is routed there, blocks until its router-tracked
  /// in-flight count reaches zero (decode finishes naturally), then
  /// migrates up to migrate_limit cached prefixes — token ids only — to
  /// the ring successor via warm requests.  Returns the number migrated.
  std::size_t drain(std::size_t i);

  /// Resurrects a Dead or Draining replica (DESIGN.md §16 rejoin state
  /// machine): Dead → Recovering → probation → Healthy.  Restarts the
  /// engine through the Replica::restart hook (or re-admits the existing
  /// client if it is accepting again), replays the request journal,
  /// re-warms the replica's prefix cache by warm requests, then requires
  /// revive_probes consecutive probe successes before bumping the ring
  /// generation and flipping the replica Healthy — in-flight lookups never
  /// see a half-joined replica because the flip is one atomic store.
  /// Returns !ok (replica back to Dead) if any step fails.
  ReviveReport revive(std::size_t i);

  /// Bumped once per completed rejoin; lets drills assert an in-flight
  /// request observed either the pre- or post-revive ring, never a hybrid.
  std::uint64_t ring_generation() const noexcept {
    return ring_generation_.load(std::memory_order_acquire);
  }

  /// The replica indices that would serve `prefix_tokens`, preference
  /// order (ring owner first, then successors), ignoring health.  Exposed
  /// for tests asserting affinity stability.
  std::vector<std::size_t> preference_order(
      std::span<const int> prefix_tokens) const;

  std::size_t replica_count() const noexcept { return replicas_.size(); }
  RouterStats stats() const;
  const RouterConfig& config() const noexcept { return config_; }

 private:
  struct ReplicaState {
    Replica replica;
    /// The live request surface; starts as replica.client and is swapped
    /// by revive() after a restart.  Readers synchronise through `health`
    /// (release store on rejoin, acquire load before use).
    std::atomic<serve::Client*> client{nullptr};
    std::unique_ptr<guard::Breaker> breaker;
    std::unique_ptr<serve::RetryClient> retry;
    std::atomic<Health> health{Health::Healthy};
    std::atomic<std::size_t> outstanding{0};   ///< router-tracked in-flight
    std::atomic<std::size_t> consecutive_errors{0};
    std::atomic<std::uint64_t> routed{0};
    std::atomic<double> died_at{0.0};  ///< monotonic seconds at death; MTTR
  };

  /// The affinity key: the shared-prefix block when hinted, else the whole
  /// prompt (a solo request still routes consistently).
  static std::span<const int> route_key(const serve::Request& request);
  std::uint64_t hash_tokens(std::span<const int> tokens) const;
  /// Blocking per-request failover loop; runs on a pool worker.
  void serve_one(serve::Request request,
                 std::promise<serve::ServeResult> promise);
  /// Marks replica `i` dead/degraded after a failed attempt and bumps the
  /// transition metrics.
  void note_replica_failure(std::size_t i, serve::RequestStatus status);
  /// Marks `state` Dead unless already sticky (Dead/Draining/Recovering),
  /// stamping died_at for MTTR; returns true on the transition.
  bool mark_dead(ReplicaState& state);
  /// Appends one `<kind> <trace-hex> <status>` record to the request
  /// journal (no-op without one).
  void journal_append(const char* kind, std::uint64_t trace, int status);
  bool admittable(Health health) const noexcept {
    return health == Health::Healthy || health == Health::Degraded;
  }

  RouterConfig config_;
  std::vector<std::unique_ptr<ReplicaState>> replicas_;
  /// (hash, replica) ring, sorted by hash; immutable after construction —
  /// death is handled by skipping, not ring surgery, so affinity of the
  /// survivors never churns.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> failover_attempts_{0};
  std::atomic<std::uint64_t> failover_successes_{0};
  std::atomic<std::uint64_t> failover_exhausted_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> migrated_prefixes_{0};
  std::atomic<std::uint64_t> revives_{0};
  std::atomic<std::uint64_t> ring_generation_{0};
  mutable std::mutex revive_mutex_;  ///< serialises revive() and drain()

  mutable std::mutex submit_mutex_;  ///< serialises submit vs ~Router
  std::unique_ptr<util::ThreadPool> pool_;  // last member: joins first
};

}  // namespace lmpeel::shard
