#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "lm/language_model.hpp"
#include "lm/sampler.hpp"
#include "lm/trace.hpp"
#include "mem/page_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "tok/vocab.hpp"
#include "util/check.hpp"

namespace lmpeel::serve {
namespace {

double seconds_since(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

/// Occupancy buckets 1..64 (powers of two); anything larger overflows.
const std::vector<double>& occupancy_bounds() {
  static const std::vector<double> bounds = {1.0,  2.0,  4.0, 8.0,
                                             16.0, 32.0, 64.0};
  return bounds;
}

/// The per-status retire counter, looked up by its full literal name so
/// retiring a request composes no string.
obs::Counter& retired_counter(RequestStatus status) {
  obs::Registry& reg = obs::Registry::global();
  switch (status) {
    case RequestStatus::Ok:
      return reg.counter("serve.retired.ok");
    case RequestStatus::QueueFull:
      return reg.counter("serve.retired.queue_full");
    case RequestStatus::DeadlineExpired:
      return reg.counter("serve.retired.deadline_expired");
    case RequestStatus::Cancelled:
      return reg.counter("serve.retired.cancelled");
    case RequestStatus::PromptTooLong:
      return reg.counter("serve.retired.prompt_too_long");
    case RequestStatus::ShutDown:
      return reg.counter("serve.retired.shut_down");
    case RequestStatus::EngineError:
      return reg.counter("serve.retired.engine_error");
    case RequestStatus::Shed:
      return reg.counter("serve.retired.shed");
    case RequestStatus::BreakerOpen:
      return reg.counter("serve.retired.breaker_open");
  }
  return reg.counter("serve.retired.unknown");
}

/// A NaN or +inf in a logits row poisons softmax/argmax silently; reject
/// the row before it reaches the sampler.  -inf is legal — the LanguageModel
/// contract (lm/language_model.hpp) uses it to mask non-generable tokens —
/// but a row with *no* generable token is degenerate too.
bool row_valid(std::span<const float> logits) {
  bool any_generable = false;
  for (const float v : logits) {
    if (std::isnan(v)) return false;
    if (std::isinf(v) && v > 0.0f) return false;
    if (v != lm::kNegInf) any_generable = true;
  }
  return any_generable;
}

}  // namespace

const char* status_name(RequestStatus status) {
  switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::QueueFull: return "queue_full";
    case RequestStatus::DeadlineExpired: return "deadline_expired";
    case RequestStatus::Cancelled: return "cancelled";
    case RequestStatus::PromptTooLong: return "prompt_too_long";
    case RequestStatus::ShutDown: return "shut_down";
    case RequestStatus::EngineError: return "engine_error";
    case RequestStatus::Shed: return "shed";
    case RequestStatus::BreakerOpen: return "breaker_open";
  }
  return "unknown";
}

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::Batch: return "batch";
    case Priority::Normal: return "normal";
    case Priority::High: return "high";
  }
  return "unknown";
}

bool is_retryable(RequestStatus status) noexcept {
  return status == RequestStatus::QueueFull ||
         status == RequestStatus::EngineError;
}

Engine::Engine(BatchDecoder& decoder, EngineConfig config)
    : decoder_(&decoder), config_(config) {
  LMPEEL_CHECK_MSG(config_.max_batch > 0, "max_batch must be >= 1");
  LMPEEL_CHECK_MSG(config_.queue_capacity > 0, "queue_capacity must be >= 1");
  config_.max_batch = std::min(config_.max_batch, decoder_->slots());
  if (config_.budget != nullptr) {
    decoder_->bind_budget(config_.budget);
    // Publish the limit alongside guard.reserved_bytes so headroom is
    // computable from a metrics snapshot alone (`lmpeel top`).  The gauge
    // is global, so publish the root of the budget hierarchy: N replicas
    // with child budgets would otherwise each clobber it with their local
    // cap, and the root's gauges are what the children roll up into.
    const guard::Budget* root = config_.budget;
    while (root->parent() != nullptr) root = root->parent();
    obs::Registry::global().gauge("guard.limit_bytes")
        .set(static_cast<double>(root->limit()));
  }
  free_slots_.reserve(config_.max_batch);
  // Highest slot index on top so slots are handed out in 0,1,2,… order.
  for (std::size_t s = config_.max_batch; s > 0; --s) {
    free_slots_.push_back(s - 1);
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Engine::~Engine() { shutdown(); }

std::future<ServeResult> Engine::submit(Request request) {
  LMPEEL_CHECK_MSG(!request.prompt.empty(), "submit: empty prompt");
  LMPEEL_CHECK_MSG(request.options.max_tokens > 0,
                   "submit: max_tokens must be >= 1");
  const Clock::time_point now = Clock::now();
  std::promise<ServeResult> promise;
  std::future<ServeResult> future = promise.get_future();
  obs::Registry::global().counter("serve.requests_submitted").add();
  // Trace identity is born here (unless the client minted one to tie retry
  // attempts together); everything downstream tags this lane.
  if (request.trace == 0) request.trace = obs::mint_trace_id();

  // Every refusal decision happens under the queue lock, in one fixed
  // precedence order: ShutDown > DeadlineExpired > PromptTooLong > queue
  // policy.  Checking validity outside the lock (as earlier versions did)
  // let a submit racing shutdown() report DeadlineExpired or QueueFull for
  // an engine that was actually stopping — every terminal status must name
  // the true reason (tests/test_serve_shutdown.cpp asserts each one).
  std::optional<Queued> victim;  // displaced entry, rejected outside the lock
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      reject(promise, RequestStatus::ShutDown, now, request.trace);
      return future;
    }
    if (now > request.deadline) {
      reject(promise, RequestStatus::DeadlineExpired, now, request.trace);
      return future;
    }
    const std::size_t window = decoder_->max_sequence_length();
    if (window != 0 &&
        request.prompt.size() + request.options.max_tokens > window) {
      reject(promise, RequestStatus::PromptTooLong, now, request.trace);
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      // Full queue: a submit that outranks queued work displaces the
      // youngest entry of the lowest class (shed, not merely bounced) so
      // High-priority traffic is never starved by a queue full of Batch
      // work.  An equal-or-lower submit bounces with QueueFull as before.
      std::size_t lowest = queue_.size();
      for (std::size_t i = queue_.size(); i > 0; --i) {
        if (lowest == queue_.size() ||
            queue_[i - 1].request.priority < queue_[lowest].request.priority) {
          lowest = i - 1;
        }
      }
      if (queue_[lowest].request.priority < request.priority) {
        victim = std::move(queue_[lowest]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(lowest));
      } else {
        reject(promise, RequestStatus::QueueFull, now, request.trace);
        return future;
      }
    }
    obs::timeline(obs::TimelineKind::Enqueued, request.trace,
                  static_cast<double>(request.priority));
    queue_.push_back(Queued{std::move(request), std::move(promise), now});
    obs::Registry::global().gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
  }
  if (victim.has_value()) {
    note_shed(victim->request.priority, victim->request.trace);
    reject(victim->promise, RequestStatus::Shed, victim->submitted,
           victim->request.trace);
  }
  cv_.notify_one();
  return future;
}

void Engine::shutdown() {
  std::lock_guard shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

void Engine::kill() {
  {
    std::lock_guard lock(mutex_);
    if (!killed_) obs::Registry::global().counter("serve.killed").add();
    stopping_ = true;
    killed_ = true;
  }
  cv_.notify_all();
  std::lock_guard shutdown_lock(shutdown_mutex_);
  if (scheduler_.joinable()) scheduler_.join();
}

bool Engine::accepting() const {
  std::lock_guard lock(mutex_);
  return !stopping_;
}

void Engine::reject(std::promise<ServeResult>& promise, RequestStatus status,
                    Clock::time_point submitted, obs::TraceId trace) {
  obs::Registry::global()
      .counter(std::string("serve.rejected.") + status_name(status))
      .add();
  obs::timeline(obs::TimelineKind::Rejected, trace,
                static_cast<double>(status));
  ServeResult result;
  result.status = status;
  result.total_s = seconds_since(submitted, Clock::now());
  promise.set_value(std::move(result));
}

void Engine::note_engine_error() {
  engine_errors_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::global().counter("serve.engine_error").add();
}

void Engine::scheduler_loop() {
  std::vector<float> prefill_logits(
      static_cast<std::size_t>(decoder_->vocab_size()));
  lm::Tensor logits;
  for (;;) {
    bool draining = false;
    bool killed = false;
    {
      std::unique_lock lock(mutex_);
      // active_ is scheduler-private; reading it inside the predicate is
      // fine because this thread is the only writer.
      cv_.wait(lock, [this] {
        return stopping_ || !queue_.empty() || !active_.empty();
      });
      if (stopping_ && queue_.empty() && active_.empty()) return;
      draining = stopping_;
      killed = killed_;
    }
    if (killed) {
      // Hard kill: in-flight sequences fail with EngineError — the
      // retryable "replica died" status a Router/RetryClient resubmits
      // elsewhere.  admit() below still drains the queue (ShutDown).
      fail_all_active(RequestStatus::EngineError);
    } else if (draining) {
      // Graceful shutdown: a request still mid-prefill has produced no
      // tokens a caller could use, and letting it finish its prefill just
      // to decode zero steps delays the drain.  Retire it as Cancelled —
      // not ShutDown, because it *was* admitted — before the prefill
      // stage runs again (tests/test_serve_shutdown.cpp).
      for (std::size_t i = active_.size(); i > 0; --i) {
        if (active_[i - 1].prefilling) {
          retire(i - 1, RequestStatus::Cancelled);
        }
      }
    }
    // Tick-level exception containment: a throwing decoder (or sampler) must
    // never escape this thread — an escaped exception would std::terminate
    // the whole process.  The stages contain the per-request and per-batch
    // cases themselves; this catch is the last line of defence, failing
    // all in-flight work instead of dying.  The prefill stage runs before
    // admission because admission runs each new request's first chunk: no
    // prompt advances more than one chunk per tick.
    try {
      prefill_stage(prefill_logits);
      admit(prefill_logits);
      if (!active_.empty()) step_active(logits);
    } catch (...) {
      obs::Registry::global().counter("serve.scheduler_tick_error").add();
      fail_all_active(RequestStatus::EngineError);
      obs::FlightRecorder::global().dump("engine_error");
    }
    const auto backlog = std::count_if(
        active_.begin(), active_.end(),
        [](const Active& a) { return a.prefilling; });
    obs::Registry::global().gauge("serve.prefill_backlog")
        .set(static_cast<double>(backlog));
  }
}

Engine::Queued Engine::pop_highest() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    if (queue_[i].request.priority > queue_[best].request.priority) best = i;
  }
  Queued queued = std::move(queue_[best]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return queued;
}

std::size_t Engine::estimate_cost(const Request& request,
                                  std::size_t reused_prefix) const {
  const std::size_t tokens =
      request.prompt.size() - reused_prefix + request.options.max_tokens;
  const std::size_t vocab = static_cast<std::size_t>(decoder_->vocab_size());
  // 3 logits rows of slack: the prefill scratch row, this request's row of
  // the step logits tensor, and its share of the chunked step path's extra
  // chunk buffer.  cost_slack_bytes covers backend-specific overhead (page
  // rounding + copy-on-write for paged KV).  Overestimating is the point —
  // accounted bytes must stay under the sum of reservations.
  return tokens * decoder_->bytes_per_token() + 3 * vocab * sizeof(float) +
         decoder_->cost_slack_bytes();
}

void Engine::note_shed(Priority priority, obs::TraceId trace) {
  obs::Registry::global()
      .counter(std::string("guard.shed.") + priority_name(priority))
      .add();
  obs::timeline(obs::TimelineKind::Shed, trace,
                static_cast<double>(priority));
}

bool Engine::reserve_with_eviction(std::size_t cost, Priority priority) {
  guard::Budget& budget = *config_.budget;
  if (budget.try_reserve(cost)) return true;
  // Cached prefixes go before any live work, for every priority class:
  // they are pure accelerator state and cost nothing to rebuild.
  if (decoder_->shed_cache(cost) > 0 && budget.try_reserve(cost)) {
    return true;
  }
  if (priority == Priority::Batch) return false;
  // Normal/High outrank in-flight Batch work: evict it (youngest first,
  // retired with Shed and its partial output) until the reservation fits
  // or no Batch work remains.
  for (std::size_t i = active_.size(); i > 0; --i) {
    if (active_[i - 1].request.priority != Priority::Batch) continue;
    note_shed(Priority::Batch, active_[i - 1].request.trace);
    retire(i - 1, RequestStatus::Shed);
    if (budget.try_reserve(cost)) return true;
  }
  return false;
}

void Engine::admit(std::vector<float>& logits_scratch) {
  obs::Registry& reg = obs::Registry::global();
  for (;;) {
    Queued queued;
    bool draining = false;
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) return;
      draining = stopping_;
      if (!draining && free_slots_.empty()) return;
      queued = pop_highest();
      reg.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
    }
    if (draining) {
      reject(queued.promise, RequestStatus::ShutDown, queued.submitted,
             queued.request.trace);
      continue;
    }
    if (queued.request.cancel && queued.request.cancel->load()) {
      reject(queued.promise, RequestStatus::Cancelled, queued.submitted,
             queued.request.trace);
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (now > queued.request.deadline) {
      reject(queued.promise, RequestStatus::DeadlineExpired, queued.submitted,
             queued.request.trace);
      continue;
    }

    // Per-request work below (prefix pinning, prefill) runs under this
    // request's trace scope so leaf layers — the prefix cache, the
    // transformer — tag their events onto the right lane.
    obs::TraceScope trace_scope(queued.request.trace);

    // ---- cost-aware admission (DESIGN.md §11/§12) ----------------------
    std::size_t cost = 0;
    if (config_.budget != nullptr) {
      // Pin the longest cached prefix first: those tokens are covered by
      // the decoder's surcharge reservation, so the request itself is
      // priced suffix-only.  Every non-start path below must abandon the
      // prepared prefix.
      const std::size_t reused =
          decoder_->prepare_prefix(queued.request.prompt);
      cost = estimate_cost(queued.request, reused);
      if (!reserve_with_eviction(cost, queued.request.priority)) {
        decoder_->abandon_prefix();
        const bool over_slo =
            config_.queue_slo_s > 0.0 &&
            seconds_since(queued.submitted, now) > config_.queue_slo_s;
        // Shed outright when (a) the request is Batch class — first to go;
        // (b) nothing is in flight, so no future retire can ever free the
        // bytes this request needs (livelock guard); or (c) the request has
        // already blown the queue-latency SLO.
        if (queued.request.priority == Priority::Batch || active_.empty() ||
            over_slo) {
          note_shed(queued.request.priority, queued.request.trace);
          reject(queued.promise, RequestStatus::Shed, queued.submitted,
                 queued.request.trace);
          continue;
        }
        // In-flight work will release budget as it retires: park the
        // request at the queue front and stop admitting this tick.
        {
          std::lock_guard lock(mutex_);
          queue_.push_front(std::move(queued));
          reg.gauge("serve.queue_depth")
              .set(static_cast<double>(queue_.size()));
        }
        return;
      }
    }

    Active active;
    active.request = std::move(queued.request);
    active.promise = std::move(queued.promise);
    active.submitted = queued.submitted;
    active.admitted = now;
    active.slot = free_slots_.back();
    active.reserved_bytes = cost;
    free_slots_.pop_back();
    // Same sampling stream as lm::generate: Rng(seed, 0x5a3c), model
    // reseeded via decoder.start_chunked before the prefill.
    active.rng = util::Rng(active.request.options.seed, /*stream=*/0x5a3c);
    const double queue_wait_s = seconds_since(active.submitted, now);
    reg.histogram("serve.queue_wait_s").record(queue_wait_s);
    obs::timeline(obs::TimelineKind::Admitted, active.request.trace,
                  queue_wait_s);

    // Binding the slot is containment-scoped per request: a decoder fault
    // here poisons only this slot, so fail this request and keep
    // admitting.  A PoolExhausted (a prefix copy that cannot get pages) is
    // load, not a fault: the request is shed, the engine-error health
    // counter stays untouched.
    try {
      decoder_->start_chunked(active.slot, active.request.prompt,
                              active.request.options.seed,
                              active.request.shared_prefix_tokens);
    } catch (...) {
      try {
        // A wrapper may have thrown before forwarding start_chunked():
        // drop any prepared-but-unconsumed prefix along with the slot.
        decoder_->abandon_prefix();
        decoder_->release(active.slot);
      } catch (...) {
        reg.counter("serve.release_error").add();
      }
      free_slots_.push_back(active.slot);
      if (config_.budget != nullptr && active.reserved_bytes > 0) {
        config_.budget->release(active.reserved_bytes);
      }
      try {
        throw;
      } catch (const mem::PoolExhausted&) {
        note_shed(active.request.priority, active.request.trace);
        reject(active.promise, RequestStatus::Shed, active.submitted,
               active.request.trace);
      } catch (...) {
        note_engine_error();
        obs::timeline(obs::TimelineKind::EngineFault, active.request.trace);
        obs::FlightRecorder::global().dump("engine_error");
        reject(active.promise, RequestStatus::EngineError, active.submitted,
               active.request.trace);
      }
      continue;
    }
    // The first chunk runs now, before the next admission.  With
    // prefill_chunk_tokens == 0 it is the whole prompt: the prefix cache
    // insert and the first sample (TTFT) land before the next request's
    // prefix lookup.
    active_.push_back(std::move(active));
    prefill_next_chunk(active_.size() - 1, logits_scratch);
  }
}

void Engine::prefill_stage(std::vector<float>& logits_scratch) {
  for (std::size_t i = 0; i < active_.size();) {
    if (!active_[i].prefilling || prefill_next_chunk(i, logits_scratch)) ++i;
  }
}

bool Engine::prefill_next_chunk(std::size_t index,
                                std::vector<float>& logits_scratch) {
  obs::Registry& reg = obs::Registry::global();
  Active& a = active_[index];
  obs::TraceScope trace_scope(a.request.trace);
  const std::size_t max_tokens = config_.prefill_chunk_tokens > 0
                                     ? config_.prefill_chunk_tokens
                                     : a.request.prompt.size();
  bool done = false;
  std::size_t advanced = 0;
  try {
    obs::Span span("serve.prefill_chunk");
    advanced = decoder_->prefill_chunk(a.slot, max_tokens, logits_scratch,
                                       &done);
  } catch (const mem::PoolExhausted&) {
    note_shed(a.request.priority, a.request.trace);
    retire(index, RequestStatus::Shed);
    return false;
  } catch (...) {
    // This slot's state is unknown; the rest of the batch is fine.
    obs::timeline(obs::TimelineKind::EngineFault, a.request.trace);
    obs::FlightRecorder::global().dump("engine_error");
    retire(index, RequestStatus::EngineError);
    return false;
  }
  reg.counter("serve.prefill_stage.chunks").add();
  reg.counter("serve.prefill_stage.tokens").add(advanced);
  obs::timeline(obs::TimelineKind::PrefillChunk, a.request.trace,
                static_cast<double>(advanced));
  if (!done) return true;
  a.prefilling = false;
  obs::timeline(obs::TimelineKind::Prefill, a.request.trace,
                static_cast<double>(a.request.prompt.size()));
  // The prefill logits are generate()'s first loop iteration.
  switch (sample_and_record(a, logits_scratch)) {
    case SampleOutcome::Continue: return true;
    case SampleOutcome::Finished: retire(index, RequestStatus::Ok); break;
    case SampleOutcome::InvalidLogits:
      retire(index, RequestStatus::EngineError);
      break;
  }
  return false;
}

void Engine::step_active(lm::Tensor& logits) {
  obs::Registry& reg = obs::Registry::global();

  // Sweep cancellations/expiries first so dead sequences neither consume a
  // decode step nor delay their caller.
  const Clock::time_point now = Clock::now();
  for (std::size_t i = active_.size(); i > 0; --i) {
    Active& a = active_[i - 1];
    if (a.request.cancel && a.request.cancel->load()) {
      retire(i - 1, RequestStatus::Cancelled);
    } else if (now > a.request.deadline) {
      retire(i - 1, RequestStatus::DeadlineExpired);
    }
  }
  if (active_.empty()) return;

  // Stage 2 runs only the sequences whose prompt is fully prefilled;
  // prefilling requests hold their slot but contribute no step row.
  std::vector<std::size_t> decoding;
  decoding.reserve(active_.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (!active_[i].prefilling) decoding.push_back(i);
  }
  if (decoding.empty()) return;

  reg.histogram("serve.batch_occupancy", occupancy_bounds())
      .record(static_cast<double>(decoding.size()));

  std::vector<BatchDecoder::Step> steps(decoding.size());
  for (std::size_t k = 0; k < decoding.size(); ++k) {
    const Active& a = active_[decoding[k]];
    steps[k] = BatchDecoder::Step{a.slot, a.last_token};
  }
  const Clock::time_point step_begin = Clock::now();
  try {
    obs::Span span("serve.step");
    decoder_->step(steps, logits);
  } catch (const mem::PoolExhausted&) {
    // The pool refused to grow mid-step: no K/V row was written for the
    // failing sequence (decode_batch allocates before writing), but the
    // batch's step is lost.  Shed the decoding set — overload, not a fault
    // — and leave prefilling slots (which hold fewer pages) alone.
    for (std::size_t k = decoding.size(); k > 0; --k) {
      note_shed(active_[decoding[k - 1]].request.priority,
                active_[decoding[k - 1]].request.trace);
      retire(decoding[k - 1], RequestStatus::Shed);
    }
    return;
  } catch (...) {
    // The decoder threw mid-batch: the KV/context state of every involved
    // slot is unknown, so no sequence in the batch can continue.  Fail the
    // batch, keep the process (and the queue) alive.
    fail_all_active(RequestStatus::EngineError);
    obs::FlightRecorder::global().dump("engine_error");
    return;
  }
  const double step_s = seconds_since(step_begin, Clock::now());

  // Retire back to front so earlier indices (both in active_ and in the
  // ascending `decoding` list) stay valid.
  bool watchdog_fired = false;
  for (std::size_t k = decoding.size(); k > 0; --k) {
    const std::size_t idx = decoding[k - 1];
    Active& a = active_[idx];
    // Watchdog: a step that blew this request's latency budget means the
    // decoder is stalling; fail the request rather than let its caller
    // wait out an unbounded tail.
    const double budget = a.request.step_budget_s > 0.0
                              ? a.request.step_budget_s
                              : config_.step_budget_s;
    if (budget > 0.0 && step_s > budget) {
      reg.counter("serve.step_overrun").add();
      obs::timeline(obs::TimelineKind::Watchdog, a.request.trace, step_s);
      watchdog_fired = true;
      retire(idx, RequestStatus::EngineError);
      continue;
    }
    switch (sample_and_record(a, logits.row(k - 1))) {
      case SampleOutcome::Continue: break;
      case SampleOutcome::Finished: retire(idx, RequestStatus::Ok); break;
      case SampleOutcome::InvalidLogits:
        retire(idx, RequestStatus::EngineError);
        break;
    }
  }
  // Dump after the retire sweep so the postmortem carries each victim's
  // complete lane: enqueued → … → watchdog → retired.
  if (watchdog_fired) obs::FlightRecorder::global().dump("watchdog");
}

Engine::SampleOutcome Engine::sample_and_record(
    Active& active, std::span<const float> logits) {
  // A misbehaving model (the paper's own finding: ICL surrogates emit
  // degenerate numerics) can hand back NaN/Inf logits; validate before the
  // sampler sees them.
  if (!row_valid(logits)) {
    obs::Registry::global().counter("serve.logits_invalid").add();
    return SampleOutcome::InvalidLogits;
  }
  // Token-for-token mirror of the lm::generate loop body.
  const lm::GenerateOptions& options = active.request.options;
  const int token = lm::sample(logits, options.sampler, active.rng);
  if (options.stop_on_eos && token == tok::kEos) {
    return SampleOutcome::Finished;
  }
  if (token == options.stop_token) return SampleOutcome::Finished;
  if (active.generation.tokens.empty()) {
    active.ttft_s = seconds_since(active.submitted, Clock::now());
    obs::Registry::global().histogram("serve.ttft_s").record(active.ttft_s);
  }
  if (options.record_trace) {
    active.generation.trace.add_step(lm::make_step(logits, token));
  }
  active.generation.tokens.push_back(token);
  active.last_token = token;
  obs::Registry::global().counter("serve.tokens_generated").add();
  obs::timeline(obs::TimelineKind::DecodeTick, active.request.trace,
                static_cast<double>(active.generation.tokens.size()));
  if (active.generation.tokens.size() == options.max_tokens) {
    active.generation.hit_max_tokens = true;
    return SampleOutcome::Finished;
  }
  return SampleOutcome::Continue;
}

void Engine::retire(std::size_t index, RequestStatus status) {
  Active active = std::move(active_[index]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  // release() is cleanup on a decoder that may have just faulted; a throw
  // here must not escape mid-containment.  The slot is reused either way —
  // both decoders rebuild slot state from scratch in start_chunked().
  try {
    decoder_->release(active.slot);
  } catch (...) {
    obs::Registry::global().counter("serve.release_error").add();
  }
  free_slots_.push_back(active.slot);
  if (config_.budget != nullptr && active.reserved_bytes > 0) {
    config_.budget->release(active.reserved_bytes);
  }

  if (status == RequestStatus::EngineError) note_engine_error();
  ServeResult result;
  result.status = status;
  result.generation = std::move(active.generation);
  result.queue_wait_s = seconds_since(active.submitted, active.admitted);
  result.ttft_s = active.ttft_s;
  result.total_s = seconds_since(active.submitted, Clock::now());
  retired_counter(status).add();
  obs::timeline(obs::TimelineKind::Retired, active.request.trace,
                static_cast<double>(status));
  active.promise.set_value(std::move(result));
}

void Engine::fail_all_active(RequestStatus status) {
  while (!active_.empty()) retire(active_.size() - 1, status);
}

}  // namespace lmpeel::serve
