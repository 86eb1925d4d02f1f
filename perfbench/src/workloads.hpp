// The three perfbench workloads (see perfbench/README.md for why each
// exists and which layer it stresses).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// key=value settings a workload reads from BENCHMARK.json (rates, latency
/// limits, the generator lateness bound).  get() throws on a missing key.
class Params {
 public:
  void set(const std::string& key, double value) { values_[key] = value; }
  double get(const std::string& key) const;

 private:
  std::map<std::string, double> values_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Params params;
  std::string state_dir;  ///< where spans and the campaign ledger go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value (0 = a ratio or count)
  std::string note;   ///< e.g. which percentile a _tail landed on
};

struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< human-readable context lines
};

/// Runs one workload end to end: timed set-up (several times), the
/// measured phase, correctness checks, then metrics.  `process_start` is
/// when main() began; the first set-up is timed from there.
Report run_workload(const RunOptions& options, Nanos process_start);

}  // namespace perfbench
