#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

std::size_t tail_index(std::size_t n) {
  if (n <= kTailBeyond) {
    throw std::invalid_argument("tail_index: need more than 10 samples");
  }
  return n - 1 - kTailBeyond;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  s.tail_ok = s.n > kTailBeyond;
  const std::size_t index = s.tail_ok ? tail_index(s.n) : s.n - 1;
  s.tail = values[index];
  s.tail_percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(s.n);
  return s;
}

OpenLoopTimes account_open_loop(const std::vector<OpenLoopSample>& samples,
                                double ttft_limit_s) {
  OpenLoopTimes out;
  for (const OpenLoopSample& s : samples) {
    const double late = s.submit_s - s.due_s;
    out.late_max_s = std::max(out.late_max_s, late);
    if (!s.ok) continue;  // a failed request misses every limit
    const double ttft = late + s.ttft_s;
    out.ttft_from_due_s.push_back(ttft);
    out.done_from_due_s.push_back(late + s.total_s);
    if (ttft <= ttft_limit_s) ++out.met_ttft;
  }
  return out;
}

std::vector<double> poisson_schedule(std::uint64_t seed, std::size_t count,
                                     double horizon_s) {
  lmpeel::util::Rng rng(seed, /*stream=*/0xa77);
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform() * horizon_s;
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace perfbench
