// Thread-safe metrics registry: counters, gauges and fixed-bucket latency
// histograms addressable by dotted name ("subsystem.name") from anywhere in
// the process.
//
// The paper's method is built on introspection of the model's own behaviour;
// this module extends that introspection to the reproduction itself.  Every
// hot path (transformer forward/backward, BPE encode, generation, boosting
// rounds, tuning campaigns) records into a `Registry` — either the
// process-wide singleton (`Registry::global()`) or an injected instance in
// tests — and sinks (obs/sinks.hpp) turn a registry snapshot into a summary
// table, a JSONL stream, or a Chrome trace_event file.
//
// Concurrency contract: `counter()` / `gauge()` / `histogram()` return
// references that stay valid for the registry's lifetime (values are
// heap-allocated, the map only grows).  All mutation paths are lock-free
// atomics except first-time name registration, which takes a writer lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_context.hpp"

namespace lmpeel::obs {

/// Monotonically increasing event count (tokens generated, trees fit, …).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (best runtime so far, current queue depth, …).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with an overflow bucket and interpolated
/// percentiles.  Bucket i counts values in (bounds[i-1], bounds[i]]; the
/// final bucket counts values above bounds.back().  Recording is wait-free
/// (a binary search over immutable bounds plus relaxed atomic increments),
/// cheap enough for per-token spans.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  /// Smallest / largest recorded value (0 when empty).
  double min() const noexcept;
  double max() const noexcept;
  /// Count in the overflow bucket (values above bounds().back()).
  std::uint64_t overflow() const noexcept;

  /// Interpolated percentile, `p` in [0, 1].  Exact at the recorded min/max
  /// (p<=0 / p>=1); within a bucket the value is linearly interpolated
  /// between the bucket edges; the overflow bucket interpolates between
  /// bounds().back() and the recorded max.  Returns 0 when empty.
  double percentile(double p) const noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Snapshot of per-bucket counts; size is bounds().size() + 1 (overflow
  /// last).
  std::vector<std::uint64_t> bucket_counts() const;

  /// 1 µs .. 50 s in a 1-2-5 progression — wide enough to cover a per-token
  /// logit pass and a whole tuning campaign with one shared layout.
  static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// One completed span, recorded when event collection is enabled.
/// Timestamps are microseconds on the process-wide monotonic epoch
/// (obs::now_us).
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< span begin
  double dur_us = 0.0;  ///< span duration
  int tid = 0;          ///< small dense thread id (obs::current_thread_id)
  int depth = 0;        ///< span nesting depth on that thread at begin
};

/// Named metric store.  Construct instances freely (tests inject their own);
/// `global()` is the process-wide default used by the instrumentation in
/// src/lm, src/tok, src/gbt, src/tune and src/core.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide instance (never destroyed, so at-exit sinks may flush it).
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the histogram registered under `name`, creating it with the
  /// default latency buckets on first use.
  Histogram& histogram(std::string_view name);
  /// First use creates the histogram with explicit `bounds`; later calls
  /// (with or without bounds) return the existing instance unchanged.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds);

  // --- snapshots (name-sorted, for deterministic sink output) -----------
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  // --- trace events ------------------------------------------------------
  /// Spans append TraceEvents only while enabled (cost when disabled: one
  /// relaxed atomic load).
  void enable_events(bool on = true) noexcept {
    events_on_.store(on, std::memory_order_relaxed);
  }
  bool events_enabled() const noexcept {
    return events_on_.load(std::memory_order_relaxed);
  }
  void add_event(TraceEvent event);
  std::vector<TraceEvent> events() const;

  /// Request-lane instants (obs/trace_context.hpp).  Buffered under the
  /// same events_enabled() switch as spans; obs::timeline() checks the
  /// switch before calling, so disabled tracing costs nothing here.
  void add_timeline(TimelineEvent event);
  std::vector<TimelineEvent> timelines() const;

  /// Drops all metrics and buffered events (used between CLI subcommands
  /// and test cases; outstanding Counter/Gauge/Histogram references are
  /// invalidated).
  void reset();

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  std::atomic<bool> events_on_{false};
  mutable std::mutex events_mutex_;
  std::vector<TraceEvent> events_;
  std::vector<TimelineEvent> timelines_;
};

}  // namespace lmpeel::obs
