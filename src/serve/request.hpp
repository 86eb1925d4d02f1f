// Request/response types of the lmpeel::serve inference engine
// (DESIGN.md §9).
//
// A Request is everything lm::generate() takes — prompt ids plus
// GenerateOptions — extended with the two serving-side controls the engine
// enforces: an absolute deadline and a cooperative cancellation flag.  The
// matching ServeResult carries the finished (or partial) generation plus
// the queueing/latency breakdown the load-test harness reports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "lm/generate.hpp"
#include "obs/trace_context.hpp"

namespace lmpeel::serve {

using Clock = std::chrono::steady_clock;

/// Scheduling class under overload (DESIGN.md §11).  Admission pops the
/// highest class first, and the shedding policy evicts Batch work — queued
/// or in-flight — before a Normal/High request is ever refused for budget.
enum class Priority : std::uint8_t {
  Batch = 0,   ///< best-effort bulk work: first to be shed
  Normal = 1,  ///< default interactive traffic
  High = 2,    ///< latency-sensitive: sheds only when nothing else is left
};

const char* priority_name(Priority priority);

struct Request {
  std::vector<int> prompt;      ///< encoded prompt (must be non-empty)
  lm::GenerateOptions options;  ///< sampler, token budget, stop rules, seed
  /// Absolute completion deadline.  An already-expired request is rejected
  /// before it is ever scheduled; a request that expires mid-flight is
  /// retired at the next scheduler step with its partial output.
  Clock::time_point deadline = Clock::time_point::max();
  /// Optional cooperative cancellation: set to true from any thread and
  /// the engine retires the request at its next scheduler step.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Per-step latency budget in seconds (0 = inherit the engine's
  /// EngineConfig::step_budget_s).  When the batched decode step this
  /// request took part in runs longer than the budget, the watchdog fails
  /// the request with EngineError instead of letting it ride a stalled
  /// decoder indefinitely.
  double step_budget_s = 0.0;
  /// Scheduling class under overload; see Priority.
  Priority priority = Priority::Normal;
  /// Request-scoped trace id (DESIGN.md §13).  0 = mint one at submit; a
  /// client that resubmits (RetryClient) mints once up front so every
  /// attempt lands on the same timeline lane.
  obs::TraceId trace = 0;
  /// Shared-prefix hint (DESIGN.md §12): the first this-many prompt tokens
  /// are shared with sibling requests (e.g. the LLAMBO ICL block), so the
  /// decoder's prefix cache stores exactly that prefix — inserted once per
  /// iteration, deduped structurally by the radix tree.  The engine holds
  /// a request back while a sibling is still prefilling that prefix, so
  /// the sibling's insert covers it.  0 = no hint; the cache may still
  /// auto-insert the whole prompt.  Purely an optimisation hint: results
  /// are bit-identical with or without it.
  std::size_t shared_prefix_tokens = 0;
};

enum class RequestStatus {
  Ok,               ///< completed normally
  QueueFull,        ///< rejected at submit: admission queue at capacity
  DeadlineExpired,  ///< deadline passed before scheduling or mid-flight
  Cancelled,        ///< cancel flag observed
  PromptTooLong,    ///< prompt + max_tokens exceed the decoder's window
  ShutDown,         ///< engine stopped before the request reached a slot
  EngineError,      ///< decoder fault: step threw, logits NaN/Inf, or the
                    ///< step watchdog fired; partial output is preserved
  Shed,             ///< dropped by the overload policy: the memory budget
                    ///< or queue-latency SLO was breached and this request
                    ///< (Batch-priority first) was chosen to go
  BreakerOpen,      ///< refused client-side: the circuit breaker guarding
                    ///< the engine route is open (engine deemed sick); the
                    ///< engine never saw the request
};

const char* status_name(RequestStatus status);

/// True for failures worth resubmitting (transient engine-side trouble):
/// QueueFull (backpressure) and EngineError (contained decoder fault).
/// Shed and BreakerOpen are deliberately NOT retryable — both mean "the
/// system is protecting itself from this traffic"; hammering it back in
/// defeats the policy.
bool is_retryable(RequestStatus status) noexcept;

struct ServeResult {
  RequestStatus status = RequestStatus::Ok;
  /// The generation: complete for Ok, partial for mid-flight
  /// DeadlineExpired/Cancelled, empty when the request never ran.
  lm::Generation generation;
  double queue_wait_s = 0.0;  ///< submit → slot admission
  double ttft_s = 0.0;        ///< submit → first emitted token (0 if none)
  double total_s = 0.0;       ///< submit → completion/rejection
};

}  // namespace lmpeel::serve
