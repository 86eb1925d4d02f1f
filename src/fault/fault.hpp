// Deterministic fault injection (DESIGN.md §10).
//
// The paper's central observation is that an LLM dropped into an HPC
// autotuning loop misbehaves — it parrots, emits degenerate numerics, and
// drifts off-format.  The serving and tuning layers around it therefore
// have to be tested against a *misbehaving* model, not a well-behaved one.
// This module makes misbehaviour a first-class, reproducible input:
//
//   * FaultPlan — a schedule of faults indexed by decoder *operation*
//     (every BatchDecoder::start_chunked or ::step call is one op; prefill
//     chunks are not).  Plans are
//     either built explicitly or expanded from a single uint64 seed, so a
//     chaos run is replayed exactly by replaying its seed.
//   * FaultInjector — the runtime cursor over a plan.  A wrapped decoder
//     (FaultyDecoder) asks it "what happens on this op?" and applies the
//     answer: throw, corrupt a logits row with NaN/Inf, stall, or wedge
//     long enough to force queue pressure upstream.
//
// Every injected fault increments `fault.injected` (and a per-kind
// counter), so containment is observable: a survival report can reconcile
// "faults injected" against "requests failed with EngineError".
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace lmpeel::fault {

enum class FaultKind : std::uint8_t {
  StepThrow,      ///< the decoder op throws FaultInjectedError
  NanLogits,      ///< one logits row is overwritten with quiet NaNs
  InfLogits,      ///< one logits row is overwritten with +/-Inf
  StepDelay,      ///< the op is delayed by delay_s (watchdog fodder)
  QueuePressure,  ///< a long stall that backs the admission queue up until
                  ///< the bounded queue sheds load with QueueFull
  ReplicaKill,    ///< replica-level: Engine::kill() — in-flight work fails
                  ///< with EngineError, the router must fail over
  ReplicaStall,   ///< replica-level: the replica stops making progress for
                  ///< delay_s, long enough to trip health probes
};

/// Kinds at or past this marker are replica-level: FaultyDecoder ignores
/// them (a decoder cannot kill its own replica); the shard layer consumes
/// them via FaultPlan and applies them to whole replicas.
inline constexpr FaultKind kFirstReplicaFault = FaultKind::ReplicaKill;
inline constexpr std::size_t kFaultKindCount = 7;

const char* fault_kind_name(FaultKind kind);

/// The exception a StepThrow fault raises out of the decoder.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(std::size_t op)
      : std::runtime_error("injected decoder fault at op " +
                           std::to_string(op)) {}
};

struct FaultEvent {
  std::size_t op = 0;    ///< decoder op index the fault fires on
  FaultKind kind = FaultKind::StepThrow;
  std::size_t row = 0;   ///< target logits row (taken modulo batch size)
  double delay_s = 0.0;  ///< stall duration for StepDelay/QueuePressure
};

/// Knobs for seed-expanded plans.  Probabilities are per op; at most one
/// fault fires per op (a single categorical draw picks the kind).
struct FaultPlanOptions {
  std::size_t horizon = 256;  ///< ops covered by the schedule
  double p_throw = 0.02;
  double p_nan = 0.02;
  double p_inf = 0.01;
  double p_delay = 0.02;
  double delay_s = 0.02;          ///< stall for StepDelay events
  double p_queue_pressure = 0.0;  ///< usually forced explicitly, not drawn
  double queue_pressure_s = 0.25; ///< stall for QueuePressure events
  std::size_t row_range = 8;      ///< rows are drawn from [0, row_range)
  // Replica-level faults (DESIGN.md §15).  For these `row` is reinterpreted
  // as the target replica index (taken modulo the fleet size) and `op`
  // indexes router submissions rather than decoder calls.  Default 0 so
  // decoder-only chaos plans are unchanged by the extension.
  double p_replica_kill = 0.0;
  double p_replica_stall = 0.0;
  double replica_stall_s = 0.1;   ///< stall for ReplicaStall events
};

/// An immutable, op-sorted fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Expands `seed` into a schedule over [0, options.horizon) ops.  The
  /// expansion consumes a dedicated Rng stream, so the same seed always
  /// yields the same schedule regardless of call site.
  static FaultPlan from_seed(std::uint64_t seed,
                             const FaultPlanOptions& options = {});

  /// Explicit schedule (events are sorted by op; one event per op —
  /// duplicates keep the first).
  static FaultPlan from_events(std::vector<FaultEvent> events);

  /// Returns a copy with `event` forced at its op (replacing any existing
  /// event there) — how a chaos harness pins a wedge at op 0 while keeping
  /// the seeded tail.
  FaultPlan with_event(FaultEvent event) const;

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  /// The event scheduled for `op`, if any.
  std::optional<FaultEvent> at(std::size_t op) const;

  std::string to_string() const;

 private:
  std::vector<FaultEvent> events_;  // sorted by op, unique ops
};

/// Runtime cursor over a FaultPlan.  next_op() is called once per decoder
/// operation; counters are atomically published so harness threads can
/// observe progress (e.g. "the wedge op has started") without racing the
/// scheduler thread.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Advances the op counter and returns the fault scheduled for the op
  /// that just began, recording `fault.injected` metrics for it.
  std::optional<FaultEvent> next_op();

  /// Ops begun so far.
  std::size_t ops() const noexcept;
  /// Faults returned so far, total and per kind.
  std::size_t injected() const noexcept;
  std::size_t injected(FaultKind kind) const noexcept;

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  std::size_t cursor_ = 0;  // next unconsumed index into plan_.events()
  std::atomic<std::size_t> ops_{0};
  std::atomic<std::size_t> injected_total_{0};
  std::array<std::atomic<std::size_t>, kFaultKindCount> injected_by_kind_{};
};

}  // namespace lmpeel::fault
