// Continuous-batching inference engine (DESIGN.md §9).
//
// One scheduler thread owns the decoder.  Clients submit Requests from any
// thread and get a std::future<ServeResult>.  Each scheduler iteration:
//
//   1. prefill — requests still prefilling advance one prompt chunk;
//   2. admission — pop queued requests into free decoder slots and run
//      each one's first chunk (at prefill_chunk_tokens == 0, the whole
//      prompt and the first sampled token, so TTFT is paid at admission);
//   3. batched step — advance every fully prefilled sequence one token in
//      a single decoder.step call;
//   4. retire — finished / cancelled / expired sequences release their slot
//      and fulfil their promise; freed slots are refilled at the next
//      admission pass.
//
// Admission control is strict: the submit queue is bounded and a full queue
// rejects immediately (QueueFull) instead of blocking — backpressure is the
// caller's signal to shed load.  Sampling inside the engine mirrors
// lm::generate token for token (same Rng stream, same stop rules, trace
// capture only when the request sets GenerateOptions::record_trace), so a
// served generation is bit-identical to a serial one.
//
// When EngineConfig::budget is set the engine is additionally cost-aware
// (DESIGN.md §11): every request is priced before prefill
// ((prompt + max_tokens) × decoder bytes-per-token plus scratch slack) and
// reserved against the guard::Budget.  Under pressure the shedding policy
// drops Batch-priority work first — queued or in-flight — and only sheds
// Normal/High traffic when nothing cheaper is left or the queue-latency
// SLO is breached.  Shed is a distinct terminal status: unlike QueueFull
// it is NOT retryable, because it means the engine is protecting itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "guard/budget.hpp"
#include "lm/tensor.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"

namespace lmpeel::serve {

struct EngineConfig {
  std::size_t max_batch = 8;       ///< concurrent sequences (clamped to slots)
  std::size_t queue_capacity = 64; ///< pending submits before QueueFull
  /// Default per-step latency budget in seconds (0 = watchdog off).  A
  /// batched decode step that overruns the budget records
  /// `serve.step_overrun` and fails the affected requests with
  /// EngineError.  Requests may tighten this via Request::step_budget_s.
  double step_budget_s = 0.0;
  /// Optional process-wide memory budget (DESIGN.md §11).  When set, the
  /// engine reserves each request's estimated token-byte cost before the
  /// prefill and sheds work (Batch-priority first) instead of
  /// overcommitting.  The decoder is bound to the same budget at engine
  /// construction so accounted bytes track actual allocations.  Must
  /// outlive the engine.
  guard::Budget* budget = nullptr;
  /// Queue-latency SLO in seconds (0 = no SLO).  A budget-throttled
  /// Normal/High request that has already waited longer than this is shed
  /// rather than parked again — bounded staleness beats unbounded waits.
  double queue_slo_s = 0.0;
  /// Prompt tokens each prefilling request advances per scheduler tick
  /// (DESIGN.md §14).  Admission runs a request's first chunk; the prefill
  /// stage runs the rest, one per tick — so one long prompt cannot stall
  /// the decode stage and short-request TTFT stays bounded.  0 = the whole
  /// prompt: admission prefills it, inserts it into the prefix cache and
  /// samples the first token before the next request's prefix lookup.
  std::size_t prefill_chunk_tokens = 32;
};

class Engine final : public Client {
 public:
  /// The decoder must outlive the engine.  Starts the scheduler thread.
  Engine(BatchDecoder& decoder, EngineConfig config = {});
  /// Calls shutdown().
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits a request; never blocks on model work.  Invalid requests
  /// (expired deadline, over-long prompt, full queue, stopped engine) are
  /// rejected with a ready future carrying the refusal status.
  std::future<ServeResult> submit(Request request) override;

  /// Stops intake, fails everything still queued with ShutDown, retires
  /// requests still mid-prefill with Cancelled (they have produced nothing
  /// a caller could use), runs the scheduler until every decoding sequence
  /// retires naturally, then joins.  Idempotent and safe to race from
  /// multiple threads.
  void shutdown();

  /// Crash simulation (DESIGN.md §15): stops intake and fails every
  /// in-flight sequence with EngineError — the status a caller's
  /// RetryClient/Router treats as "this replica just died, resubmit
  /// elsewhere".  Queued work is refused with ShutDown.  Every future
  /// still resolves (no lost requests); the decoder is NOT drained
  /// gracefully, mirroring a replica taken out mid-decode.  Idempotent,
  /// and safe to interleave with shutdown().
  void kill();

  const EngineConfig& config() const noexcept { return config_; }

  /// False once shutdown has begun: submits will be refused with ShutDown.
  bool accepting() const override;
  /// Requests retired with EngineError since construction — the health
  /// signal degradation layers (LLAMBO fallback, RetryClient callers) read.
  std::uint64_t engine_errors() const noexcept {
    return engine_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Queued {
    Request request;
    std::promise<ServeResult> promise;
    Clock::time_point submitted;
  };

  /// A request occupying a decoder slot.
  struct Active {
    Request request;
    std::promise<ServeResult> promise;
    Clock::time_point submitted;
    Clock::time_point admitted;
    std::size_t slot = 0;
    std::size_t reserved_bytes = 0;  ///< budget reservation held while active
    util::Rng rng{0, 0};
    lm::Generation generation;
    double ttft_s = 0.0;
    int last_token = -1;  ///< token to feed the next decoder step
    /// True while the prompt is still being prefilled: the request
    /// occupies its slot but is skipped by the decode stage.
    bool prefilling = true;
  };

  /// Outcome of feeding one logits row through the sampler.
  enum class SampleOutcome {
    Continue,       ///< token appended, sequence still running
    Finished,       ///< stop rule hit (eos / stop token / max_tokens)
    InvalidLogits,  ///< row contained NaN/Inf — do not sample from it
  };

  void scheduler_loop();
  /// Fills free slots from the queue, running each admitted request's
  /// first prefill chunk.
  void admit(std::vector<float>& logits_scratch);
  /// Advances every request still prefilling by one chunk.
  void prefill_stage(std::vector<float>& logits_scratch);
  /// Runs active_[index]'s next prefill chunk, shedding the request on
  /// PoolExhausted and failing it on any other throw; once the prompt
  /// completes, samples its first token.  False when the request retired.
  bool prefill_next_chunk(std::size_t index,
                          std::vector<float>& logits_scratch);
  /// One batched decode step over every active sequence (requests still
  /// prefilling are skipped).
  void step_active(lm::Tensor& logits);
  /// Samples from `logits` exactly as lm::generate does and appends to the
  /// active sequence (plus a trace step if the request opted in).
  /// Validates the row for NaN/Inf first.
  SampleOutcome sample_and_record(Active& active,
                                  std::span<const float> logits);
  void retire(std::size_t index, RequestStatus status);
  /// Conservative upper bound on the bytes `request` can pin while active:
  /// (prompt − reused_prefix + max_tokens) × decoder bytes-per-token, plus
  /// slack for the prefill logits row and the chunked step path's extra
  /// batch-row copy.  `reused_prefix` is what prepare_prefix() promised —
  /// those tokens are already covered by the decoder's own surcharge
  /// reservation, so only the suffix is priced here (DESIGN.md §12).
  std::size_t estimate_cost(const Request& request,
                            std::size_t reused_prefix) const;
  /// Pops the highest-priority queued request (FIFO within a class).
  /// Caller holds mutex_ and the queue is non-empty.
  Queued pop_highest();
  /// Tries to reserve `cost` against the budget, evicting in-flight
  /// Batch-priority work (retired with Shed) to make room when `priority`
  /// outranks it.  Returns false when the reservation still cannot fit.
  bool reserve_with_eviction(std::size_t cost, Priority priority);
  /// Bumps the per-class guard.shed.* counter and marks the shed on the
  /// request's timeline lane.
  static void note_shed(Priority priority, obs::TraceId trace);
  /// Fault containment: retires every in-flight sequence with `status`.
  /// Used when a batched decoder step throws — the decoder state of the
  /// involved slots is unknown, so none of them can safely continue.
  void fail_all_active(RequestStatus status);
  /// Bumps the EngineError health counter and obs metric.
  void note_engine_error();
  static void reject(std::promise<ServeResult>& promise, RequestStatus status,
                     Clock::time_point submitted, obs::TraceId trace);

  BatchDecoder* decoder_;
  EngineConfig config_;
  std::atomic<std::uint64_t> engine_errors_{0};

  std::mutex shutdown_mutex_;  // serialises shutdown()/join
  mutable std::mutex mutex_;   // guards queue_, stopping_ and killed_
  std::condition_variable cv_;
  std::deque<Queued> queue_;
  bool stopping_ = false;
  bool killed_ = false;  ///< kill(): fail in-flight instead of draining

  std::vector<Active> active_;       // scheduler thread only
  std::vector<std::size_t> free_slots_;
  std::thread scheduler_;
};

}  // namespace lmpeel::serve
