// In-memory spans recorded around the library's public seams, and the
// self-time attribution computed from them.
//
// The benchmark never instruments the library itself: every span is taken
// by a wrapper in wrappers.hpp around a call into one layer.  Spans stay in
// a vector until the run ends (write_jsonl), so recording costs one
// steady_clock read pair and a locked push_back per call.
//
// Attribution: at every instant of the timed wall the deepest layer with
// an open span owns the time (lm > decoder > serve > tune).  A layer's self
// time is what it owns; trace.unattributed_share is the part of the wall
// that no layer owns.  Summing raw span durations instead would count a
// parent and its children twice and overlapping calls once per thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Attribution layers, shallowest first.  Client marks time a caller spent
/// blocked in serve::Client (submit or future get); it is waiting, not
/// work, so it never owns wall time.
enum class Layer : std::uint8_t { Tune, Serve, Decoder, Lm, Client };
inline constexpr std::size_t kOwningLayers = 4;  // Tune .. Lm

enum class Op : std::uint8_t {
  Propose,
  Observe,
  Outstanding,  ///< a request between submit and completion
  Blocked,
  Start,
  StartChunked,
  PrefillChunk,
  Step,
  Release,
  PreparePrefix,
  AbandonPrefix,
  ShedCache,
  Prefill,
  PrefillFrom,
  DecodeBatch,
};

const char* layer_name(Layer layer);
const char* op_name(Op op);

using Nanos = std::int64_t;

/// Monotonic nanoseconds (steady_clock).
Nanos now_ns();

/// Small dense id of the calling thread (0, 1, 2, ... in first-use order).
std::uint32_t thread_slot();

struct Span {
  Layer layer = Layer::Tune;
  Op op = Op::Propose;
  std::uint32_t thread = 0;
  Nanos t0 = 0;
  Nanos t1 = 0;
  std::uint32_t n = 0;  ///< tokens or rows the call covered
  bool done = false;    ///< PrefillChunk: the prompt completed
};

/// Thread-safe span sink.  `enabled` gates only the per-call decoder and
/// backend spans (the hot path whose cost obs.trace_overhead_share
/// measures); tune and request spans are part of the end-to-end timing and
/// are always kept.
class Recorder {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void add(const Span& span);
  std::vector<Span> snapshot() const;
  /// Writes every span as one JSON object per line.  Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records one span on destruction; inert when `gated` and the recorder is
/// disabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, Layer layer, Op op, std::uint32_t n,
             bool gated = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_n(std::uint32_t n) { span_.n = n; }
  void set_done(bool done) { span_.done = done; }

 private:
  Recorder* recorder_;
  Span span_;
};

struct Interval {
  Nanos t0 = 0;
  Nanos t1 = 0;
};

/// Sorted, disjoint union of intervals.
std::vector<Interval> union_of(std::vector<Interval> intervals);
/// Intersection of two interval sets (each is unioned first).
std::vector<Interval> intersect(const std::vector<Interval>& a,
                                const std::vector<Interval>& b);
Nanos total_length(const std::vector<Interval>& disjoint);

struct Attribution {
  std::array<double, kOwningLayers> self_s{};  ///< indexed by Layer
  double wall_s = 0.0;
  double unattributed_s = 0.0;
  double unattributed_share() const {
    return wall_s > 0.0 ? unattributed_s / wall_s : 0.0;
  }
  double self(Layer layer) const {
    return self_s[static_cast<std::size_t>(layer)];
  }
};

/// Splits `wall` (any intervals; overlaps count once) among the owning
/// layers of `spans` by the deepest-open-span rule.  Client spans and
/// spans outside the wall are ignored.
Attribution attribute(const std::vector<Span>& spans,
                      const std::vector<Interval>& wall);

}  // namespace perfbench
