// Sliding-window SLO monitor (DESIGN.md §13).
//
// The guard layer (PR 4) protects the engine; nothing yet says whether the
// surviving traffic is *good*.  SloMonitor grades four service-level
// objectives against a stream of metric snapshots:
//
//   * ttft_p99_s    — time-to-first-token p99 (serve.ttft_s histogram)
//   * decode_tok_s  — decode-only throughput: decoded tokens per second of
//                     batched step time (lm.transformer.decode_tokens over
//                     the serve.step histogram sum)
//   * error_rate    — serve.retired.engine_error per submitted request
//   * shed_rate     — serve.retired.shed per submitted request
//
// Each verdict carries a *burn rate*: value/threshold for upper-bound
// objectives (threshold/value for lower-bound ones), so 1.0 is "exactly at
// the objective" and 2.0 is "burning error budget twice as fast as allowed"
// — the standard way to rank which SLO to chase first.
//
// The monitor is deliberately decoupled from Registry: it consumes
// MetricsSnapshot values, which come either from a live registry
// (from_registry) or parsed back out of the JSONL stats stream another
// process publishes (parse_jsonl) — that is what lets `lmpeel top` watch a
// serve-bench or soak run from outside.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.hpp"

namespace lmpeel::obs {

class Registry;

/// Point-in-time scalar view of a registry: counters, gauges, and the
/// histogram stats the sinks already export.  Cheap to copy, order-stable.
struct MetricsSnapshot {
  /// Capture time in seconds on the obs::now_us epoch of the *publishing*
  /// process (deltas between snapshots of one stream are meaningful;
  /// absolute values are not comparable across processes).
  double t_s = 0.0;

  struct HistStats {
    double count = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double overflow = 0.0;
  };

  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistStats> histograms;

  /// Captures the registry right now (t_s = now_us()/1e6).
  static MetricsSnapshot from_registry(const Registry& registry);

  /// Parses the JSONL the stats publisher / write_jsonl emit (one object
  /// per line; unknown line types are skipped).  Returns false when `text`
  /// contains no recognisable metric lines.
  static bool parse_jsonl(std::string_view text, MetricsSnapshot& out);

  /// Lookup helpers returning 0 / nullptr when absent, so rate math never
  /// branches on missing counters.
  double counter(const std::string& name) const noexcept;
  double gauge(const std::string& name) const noexcept;
  const HistStats* histogram(const std::string& name) const noexcept;
};

struct SloOptions {
  double window_s = 30.0;         ///< sliding window for observe()/verdicts()
  double ttft_p99_s = 5.0;        ///< upper bound on TTFT p99
  double min_decode_tok_s = 50.0; ///< lower bound on decode throughput
  double max_error_rate = 0.02;   ///< upper bound on engine-error fraction
  double max_shed_rate = 0.10;    ///< upper bound on shed fraction
};

struct SloVerdict {
  std::string name;         ///< "ttft_p99_s", "decode_tok_s", …
  double value = 0.0;       ///< measured
  double threshold = 0.0;   ///< objective
  bool upper_bound = true;  ///< true: ok iff value <= threshold
  bool ok = true;
  /// Budget burn: 1.0 = at the objective, >1 = violating, proportionally.
  double burn = 0.0;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloOptions options = {}) : options_(options) {}

  const SloOptions& options() const noexcept { return options_; }

  /// Pushes a snapshot and prunes everything older than window_s behind it.
  void observe(MetricsSnapshot snapshot);

  /// Number of snapshots currently in the window.
  std::size_t window_size() const noexcept { return window_.size(); }

  /// Verdicts over the current window: rates use the delta between the
  /// oldest and newest snapshot; TTFT p99 is the newest cumulative value
  /// (fixed-bucket histograms cannot be windowed).  Empty when fewer than
  /// two snapshots are buffered.
  std::vector<SloVerdict> verdicts() const;

  /// Whole-run verdicts from a single snapshot: rates use run totals and
  /// decode seconds from the serve.step histogram sum.  What `lmpeel stats`
  /// and serve-bench grade.
  static std::vector<SloVerdict> evaluate(const MetricsSnapshot& snapshot,
                                          const SloOptions& options);

  /// Render verdicts the way every other report in this repo prints.
  static util::Table verdict_table(const std::vector<SloVerdict>& verdicts);

 private:
  SloOptions options_;
  std::deque<MetricsSnapshot> window_;
};

}  // namespace lmpeel::obs
