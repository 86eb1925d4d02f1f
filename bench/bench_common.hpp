// Shared plumbing for the bench binaries: environment-variable knobs (so
// the paper-scale settings can be enabled without recompiling), consistent
// banners and CSV echoing.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/table.hpp"

namespace lmpeel::bench {

/// Reads an integer knob from the environment (e.g. LMPEEL_TABLE1_ITERS);
/// falls back to `fallback` when unset or unparseable.
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return fallback;
  return static_cast<int>(parsed);
}

/// Prints a table twice: aligned text for humans, CSV for scripts.
inline void emit(const std::string& title, const util::Table& table) {
  util::print_banner(std::cout, title);
  std::cout << table.to_text();
  std::cout << "--- csv ---\n" << table.to_csv() << "--- end csv ---\n";
}

}  // namespace lmpeel::bench
