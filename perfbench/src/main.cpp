// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload campaign|decode|ingest --seed N --seconds S
//             --trace 0|1 [--param key=value ...] [--state-dir DIR]
//   perfbench --probe
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Lines before it are a
// human-readable table with units and sample counts.  --probe times the
// host-drift probe instead (perfbench/run.py runs it before and after each
// workload in a separate process, so its buffer never shows in the
// workload's peak RSS).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Fixed in-cache arithmetic loop (ms) and a streaming read over a buffer
/// far larger than the last-level cache (GB/s).  Neither touches the
/// library: they tell host drift apart from code changes.
int probe() {
  std::vector<float> small(4096, 1.0f);
  const auto t0 = std::chrono::steady_clock::now();
  float acc = 0.0f;
  for (int rep = 0; rep < 20000; ++rep) {
    for (std::size_t i = 0; i < small.size(); ++i) {
      small[i] = small[i] * 0.999f + 0.001f;
      acc += small[i];
    }
  }
  const double compute_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0).count();

  const std::size_t words = std::size_t{256} << 17;  // 256 MiB of uint64
  std::vector<std::uint64_t> big(words, 1);
  std::uint64_t sum = 0;
  double best_s = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto s0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < words; ++i) sum += big[i];
    best_s = std::min(
        best_s, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - s0).count());
  }
  const double gb_s =
      static_cast<double>(words * sizeof(std::uint64_t)) * 1e-9 / best_s;
  std::printf(
      "{\"host.compute_ms\": %.6f, \"host.stream_gb_s\": %.6f, "
      "\"checksum\": %.1f}\n",
      compute_ms, gb_s,
      static_cast<double>(acc) + static_cast<double>(sum % 1000));
  return 0;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  std::printf("  %-28s %16s  %-9s %8s  %s\n", "metric", "value", "unit", "n",
              "note");
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f  %-9s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n, m.note.c_str());
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--param key=value]... "
               "[--state-dir DIR] | --probe\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Nanos process_start = perfbench::now_ns();
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probe") return probe();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0 &&
                     std::isfinite(options.seconds);
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--param") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) return usage("--param wants key=value");
      const double v = std::strtod(value.c_str() + eq + 1, &end);
      if (*end != '\0') return usage("--param value is not a number");
      options.params.set(value.substr(0, eq), v);
    } else if (arg == "--state-dir") {
      options.state_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::Report report;
  try {
    report = perfbench::run_workload(options, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.end_to_end.insert(report.end_to_end.begin() + 1,
                           Metric{"peak_rss_mb", peak_rss_mb(), "MB", 0, ""});

  std::printf("perfbench %s seed %llu, %.1f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  print_table("end-to-end", report.end_to_end);
  if (options.trace) print_table("per-layer", report.per_layer);
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("correctness: %s\n", report.correct ? "ok" : "FAILED");

  const std::vector<Metric>& out =
      options.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
