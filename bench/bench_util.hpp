// Shared helpers for the bench binaries: each bench prints the
// paper-style table it regenerates, then runs its google-benchmark
// timings. Keeping the table output on stdout makes
// `for b in build/bench/*; do $b; done` reproduce the whole evaluation.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace pp::bench {

inline std::string pct(double v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.0f%%", v);
  return buf;
}

inline std::string human(u64 n) {
  char buf[32];
  if (n >= 1000000000ull)
    std::snprintf(buf, sizeof buf, "%.1fG", static_cast<double>(n) / 1e9);
  else if (n >= 1000000ull)
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(n) / 1e6);
  else if (n >= 1000ull)
    std::snprintf(buf, sizeof buf, "%.1fK", static_cast<double>(n) / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(n));
  return buf;
}

/// FNV-1a 64-bit over arbitrary bytes — stable fingerprint for report
/// byte-identity checks in the machine-readable (--json) bench output.
inline u64 fnv1a(const std::string& bytes) {
  u64 h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex64(u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Minimal JSON string escaping (bench names/notes are plain ASCII).
inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// Fixed-width row printer.
inline void print_row(const std::vector<std::pair<std::string, int>>& cells) {
  for (const auto& [text, width] : cells) {
    std::string t = text;
    if (static_cast<int>(t.size()) > width) t = t.substr(0, static_cast<std::size_t>(width));
    std::printf("%-*s ", width, t.c_str());
  }
  std::printf("\n");
}

}  // namespace pp::bench
