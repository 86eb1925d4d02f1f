#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "obs/flight_recorder.hpp"
#include "obs/sinks.hpp"
#include "util/check.hpp"

namespace lmpeel::obs {

// Every instrumented module references Registry::global(), so linking any of
// them pulls in this initialiser and the LMPEEL_TRACE / LMPEEL_STATS_JSON
// environment switches (plus the flight recorder's terminate hook) work
// without code changes in the binary being traced.
namespace {
struct TraceEnvInit {
  TraceEnvInit() {
    init_trace_from_env();
    init_stats_publisher_from_env();
    FlightRecorder::install_terminate_hook();
  }
};
const TraceEnvInit trace_env_init{};
}  // namespace

namespace {

void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  LMPEEL_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  LMPEEL_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                       std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                           bounds_.end(),
                   "histogram bounds must be strictly increasing");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::overflow() const noexcept {
  return buckets_[bounds_.size()].load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::percentile(double p) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 1.0) return max();

  const double target = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const double reached = static_cast<double>(cumulative + in_bucket);
    if (reached >= target) {
      // Interpolate inside this bucket, clamped to the observed range so a
      // sparse histogram never reports a value outside [min, max].
      const double lo = std::max(i == 0 ? min() : bounds_[i - 1], min());
      const double hi = std::min(i < bounds_.size() ? bounds_[i] : max(),
                                 max());
      const double frac = (target - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return max();
}

std::vector<double> Histogram::default_latency_bounds() {
  std::vector<double> bounds;
  // 1-2-5 progression in seconds: 1e-6, 2e-6, 5e-6, ..., 2e1, 5e1.
  for (double decade = 1e-6; decade < 1e2; decade *= 10.0) {
    for (const double step : {1.0, 2.0, 5.0}) bounds.push_back(decade * step);
  }
  return bounds;
}

Registry& Registry::global() {
  // Deliberately leaked: at-exit sinks flush it after static destructors of
  // other translation units may already have run.
  static Registry* instance = new Registry();
  return *instance;
}

namespace {

template <typename Map, typename Make>
auto& find_or_create(std::shared_mutex& mutex, Map& map,
                     std::string_view name, const Make& make) {
  {
    std::shared_lock lock(mutex);
    const auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create(mutex_, counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(mutex_, gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name) {
  return find_or_create(mutex_, histograms_, name,
                        [] { return std::make_unique<Histogram>(); });
}

Histogram& Registry::histogram(std::string_view name,
                               const std::vector<double>& bounds) {
  return find_or_create(mutex_, histograms_, name,
                        [&] { return std::make_unique<Histogram>(bounds); });
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters()
    const {
  std::shared_lock lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::shared_lock lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Registry::histograms()
    const {
  std::shared_lock lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

void Registry::add_event(TraceEvent event) {
  std::lock_guard lock(events_mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Registry::events() const {
  std::lock_guard lock(events_mutex_);
  return events_;
}

void Registry::add_timeline(TimelineEvent event) {
  std::lock_guard lock(events_mutex_);
  timelines_.push_back(event);
}

std::vector<TimelineEvent> Registry::timelines() const {
  std::lock_guard lock(events_mutex_);
  return timelines_;
}

void Registry::reset() {
  {
    std::unique_lock lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }
  std::lock_guard lock(events_mutex_);
  events_.clear();
  timelines_.clear();
}

}  // namespace lmpeel::obs
