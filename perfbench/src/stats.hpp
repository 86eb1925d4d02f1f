// Sample summaries and open-loop accounting for perfbench.
//
// Every timing the benchmark reports is a median plus a `_tail`: the highest
// order statistic that still has at least kTailBeyond samples above it, so
// the tail percentile moves with the sample count instead of pretending a
// p99 exists in 40 samples.  The percentile it lands on is reported next to
// the value together with n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a `_tail` value must have strictly above it.
inline constexpr std::size_t kTailBeyond = 10;

/// Index (into an ascending sample of size n) of the `_tail` statistic:
/// n - 1 - kTailBeyond.  Requires n > kTailBeyond.
std::size_t tail_index(std::size_t n);

/// Median (mean of the two middle values for even n).  Requires n >= 1.
double median(std::vector<double> values);

struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  ///< 100 * (tail_index + 1) / n
  std::size_t n = 0;
  bool tail_ok = false;  ///< false when n <= kTailBeyond (tail = max)
};

Summary summarize(std::vector<double> values);

/// One request of an open-loop schedule, all times in seconds from the
/// schedule origin except the engine-side durations.
struct OpenLoopSample {
  double due_s = 0.0;     ///< when the schedule said to send it
  double submit_s = 0.0;  ///< when the generator actually sent it
  double ttft_s = 0.0;    ///< engine: submit -> first token (0 = none)
  double total_s = 0.0;   ///< engine: submit -> completion
  bool ok = false;
};

/// Open-loop latencies counted from each request's due time, so a stalled
/// generator or a backed-up queue charges its wait to every later request.
struct OpenLoopTimes {
  std::vector<double> ttft_from_due_s;   ///< ok requests only
  std::vector<double> done_from_due_s;   ///< ok requests only
  double late_max_s = 0.0;  ///< worst submit - due over all requests
  std::size_t met_ttft = 0; ///< ok requests with ttft_from_due <= limit
};

OpenLoopTimes account_open_loop(const std::vector<OpenLoopSample>& samples,
                                double ttft_limit_s);

/// Seeded Poisson arrivals conditioned on their count: `count` sorted
/// uniform times in [0, horizon_s).  Fixing the count keeps the offered
/// work identical across seeds while the spacing stays Poisson.
std::vector<double> poisson_schedule(std::uint64_t seed, std::size_t count,
                                     double horizon_s);

}  // namespace perfbench
