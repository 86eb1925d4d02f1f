// Sustained mixed-priority overload soak for the serve/guard stack
// (DESIGN.md §11).
//
// Four client threads — one High, one Normal, two Batch — hammer a
// budget-governed engine for a fixed wall-clock duration, with the budget
// deliberately sized to roughly half of full-load demand so the shedding
// policy runs continuously, not incidentally.  Mid-soak a "sick window"
// makes the decoder throw on every prefill for a moment, driving the
// shared circuit breaker through a full open → half-open → closed cycle.
//
// The report grades the properties the stack claims, and `lmpeel soak`
// exits non-zero when any of them fails:
//
//   * no crash: no exception ever escapes a client loop or the engine;
//   * budget honoured: accounted bytes never exceeded the limit;
//   * shed ordering: only Batch-priority work was shed — Normal/High
//     traffic always fit by evicting Batch first;
//   * no starvation: High-priority requests kept being served;
//   * no leak: resident set size does not grow monotonically once the
//     engine is warm;
//   * breaker exercised: the sick window visibly opened the breaker (and
//     recovery closed it again);
//   * pool drained: with the default paged KV pool (DESIGN.md §14), every
//     page is back on the free list once the engine and prefix cache are
//     torn down — refcounted handles leaked nothing;
//   * eviction under pressure: the half-load budget forced the prefix
//     cache to actually evict (or there was no pressure at all).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/slo.hpp"
#include "util/table.hpp"

namespace lmpeel::guard {

struct SoakOptions {
  double seconds = 10.0;     ///< wall-clock soak duration
  std::uint64_t seed = 0;    ///< model init + per-thread request streams
  /// Memory budget handed to the engine.  0 = auto: twice the maximum
  /// per-request cost, i.e. half of the four clients' combined demand —
  /// High + Normal always fit together, Batch work must be shed.
  std::size_t budget_bytes = 0;
  std::size_t max_batch = 4;
  std::size_t queue_capacity = 16;
  double queue_slo_s = 2.0;     ///< engine queue-latency SLO
  std::size_t max_tokens = 16;  ///< per-request generation budget
  /// Mid-soak throw-burst (every prefill fails for ~10% of the duration,
  /// capped at 0.5 s) so the breaker's full state cycle is part of every
  /// soak.  Disable for pure-overload runs.
  bool sick_window = true;
  /// Run with a shared-prefix KV cache attached to the decoder
  /// (DESIGN.md §12).  Soak prompts share a small per-class prefix, so the
  /// cache sees hits, inserts and — under the half-load budget — LRU
  /// evictions, all while the §11 invariants stay graded.
  bool prefix_cache = true;
  /// Fleet mode (DESIGN.md §15): > 1 runs this many engine replicas —
  /// identical weights, per-replica guard::Budget children under one
  /// global cap — behind a shard::Router, and the clients hammer the
  /// router instead of a bare engine.  Replica-level chaos replaces the
  /// sick window; the graded exit then additionally requires >= 1
  /// successful failover and zero lost requests.
  std::size_t replicas = 1;
  /// Fleet mode only: per-submission probability of a seeded replica-level
  /// fault (fault::FaultKind::ReplicaKill / ReplicaStall, equal odds).
  /// When > 0 at least one kill is forced so the failover grade is never
  /// vacuous.  The last live replica is never killed — the soak grades
  /// failover, not fleet extinction.
  double kill_rate = 0.0;
  /// Fleet mode only: per-tick probability (10 ms chaos-controller ticks)
  /// of resurrecting a previously killed replica through
  /// shard::Router::revive — restart the engine, replay the journal
  /// position, re-warm the prefix cache, probe, and atomically re-add to
  /// the ring.  Any replica still dead ~0.5 s after its kill is revived
  /// unconditionally so the revive grade is never vacuous.  0 = dead
  /// replicas stay dead (PR 6 behaviour).
  double restart_rate = 0.0;
};

struct SoakReport {
  /// Terminal-status tally for one priority class.
  struct ClassStats {
    std::size_t submitted = 0;
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t queue_full = 0;
    std::size_t engine_error = 0;
    std::size_t breaker_open = 0;
    std::size_t other = 0;
  };

  double wall_s = 0.0;
  std::size_t budget_bytes = 0;  ///< resolved budget (after auto-sizing)
  ClassStats high, normal, batch;

  std::size_t accounted_peak_bytes = 0;  ///< Budget::accounted_peak()
  std::uint64_t reserve_denied = 0;      ///< Budget::denied()
  std::uint64_t breaker_opened = 0;
  std::uint64_t breaker_half_opened = 0;
  std::uint64_t breaker_closed = 0;
  // Prefix-cache activity during this soak (deltas of the cache.prefix.*
  // counters; all zero when options.prefix_cache is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
  // Paged-pool activity (counter deltas single-engine only; end state in
  // both modes).
  std::size_t pool_pages_end = 0;     ///< pages still held after teardown
  std::uint64_t pool_cow_copies = 0;  ///< copy-on-write page copies
  std::uint64_t pool_exhausted = 0;   ///< allocations refused at max_pages
  std::uint64_t pool_zero_copy_hits = 0;  ///< prefix hits served by sharing
  std::size_t crashes = 0;  ///< exceptions that escaped a client loop
  std::vector<std::size_t> rss_kb;  ///< RSS samples after warmup (may be
                                    ///< empty off Linux)
  /// Most recent flight-recorder postmortem written during the soak ("" when
  /// nothing dumped) — the black box to open when a graded property fails.
  std::string postmortem_path;
  /// SLO verdicts over this soak's counter deltas (DESIGN.md §13).
  /// Report-only: printed alongside the graded properties but not part of
  /// passed(), because a deliberately overloaded soak sheds by design.
  std::vector<obs::SloVerdict> slo;

  // Fleet-mode activity (DESIGN.md §15; defaults hold for replicas == 1).
  std::size_t replicas = 1;             ///< echoed from options
  std::uint64_t replica_kills = 0;      ///< Engine::kill()s applied
  std::uint64_t replica_stalls = 0;     ///< stall windows applied
  std::uint64_t failover_attempts = 0;  ///< router re-routes
  std::uint64_t failover_successes = 0; ///< re-routes that returned Ok
  std::uint64_t lost_requests = 0;      ///< issued but never resolved
  std::uint64_t replica_revives = 0;    ///< successful Router::revive()s

  // ---- graded properties ------------------------------------------------
  bool budget_ok = false;         ///< accounted peak <= budget
  bool shed_ordering_ok = false;  ///< no Normal/High request was ever shed
  bool high_served = false;       ///< High traffic kept completing
  bool rss_ok = false;            ///< no monotonic RSS growth post-warmup
  bool breaker_exercised = false; ///< sick window opened the breaker
  /// Every pool page returned to the free list after teardown (in fleet
  /// mode: every replica's pool).
  bool pool_drained = false;
  /// The budget visibly squeezed the prefix cache: either LRU evictions
  /// happened, or there was never any reservation pressure to evict for
  /// (true when the prefix cache is off).
  bool eviction_pressure_ok = false;
  /// Fleet mode with kills: >= 1 replica was killed AND >= 1 request
  /// failed over successfully.  Pre-resolved true when kill_rate == 0 or
  /// replicas == 1.
  bool failover_ok = true;
  /// Every issued request resolved with a terminal status — a killed
  /// replica may fail work over, but may not eat it.
  bool no_lost_requests = true;
  /// Fleet mode with restarts: >= 1 killed replica was resurrected back to
  /// Healthy through the full revive protocol (journal position, cache
  /// re-warm, probation probes, ring re-add).  Pre-resolved true when
  /// restart_rate == 0 or replicas == 1.
  bool revive_ok = true;

  /// Overall verdict — what `lmpeel soak`'s exit code reports.  The
  /// breaker check only applies when the sick window ran; the pool and
  /// eviction checks are pre-resolved to true when their feature is off.
  bool passed(bool sick_window_enabled = true) const noexcept {
    return crashes == 0 && budget_ok && shed_ordering_ok && high_served &&
           rss_ok && pool_drained && eviction_pressure_ok && failover_ok &&
           no_lost_requests && revive_ok &&
           (!sick_window_enabled || breaker_exercised);
  }
};

/// Runs the soak.  Builds its own small transformer, decoder, budget,
/// breaker and engine; everything is torn down before returning.
SoakReport run_soak(const SoakOptions& options);

/// Printable summary, one graded property per row.
util::Table soak_table(const SoakReport& report, bool sick_window = true);

}  // namespace lmpeel::guard
