// Overhead contract of pp::obs (DESIGN.md "Observability"): with a
// Session enabled but the pipeline otherwise idle from obs's point of
// view — no exporters, no report section — the instrumented run must stay
// within a few percent of the uninstrumented one, and a disabled run must
// be indistinguishable from the seed (every entry point is a branch on a
// constant bool).
//
//   $ ./obs_overhead            # human-readable table
//   $ ./obs_overhead --json     # {"overhead_pct":..,"pass":..}; exit 1 on fail
//
// scripts/check.sh runs the --json mode and gates on `pass`. The
// measurement is kPairs off/on pairs of the serial backprop pipeline, run
// back to back with the order alternating from pair to pair; the gate
// reads the median of the per-pair on/off wall-time ratios. Pairing
// cancels slow drift (frequency, co-tenants) that hits both runs of a
// pair, alternation cancels any bias from running second, and the median
// ignores the pairs a burst of host load split.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

using namespace pp;

namespace {

constexpr double kThresholdPct = 3.0;
constexpr int kPairs = 121;

double one_wall_ms(const ir::Module& m, bool observe) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts;
  opts.observe = observe;
  const u64 t0 = obs::now_ns();
  core::ProfileResult r = pipe.run(opts);
  const u64 dt = obs::now_ns() - t0;
  if (r.truncated) {
    std::fprintf(stderr, "obs_overhead: unexpected truncated profile\n");
    std::exit(2);
  }
  return static_cast<double>(dt) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json]\n", argv[0]);
      return 2;
    }
  }

  workloads::Workload wl = workloads::make_rodinia("backprop");
  // One untimed run per side absorbs first-touch effects.
  one_wall_ms(wl.module, /*observe=*/false);
  one_wall_ms(wl.module, /*observe=*/true);
  std::vector<double> ratios, offs, ons;
  for (int i = 0; i < kPairs; ++i) {
    double off_ms = 0;
    double on_ms = 0;
    if (i % 2 == 0) {
      off_ms = one_wall_ms(wl.module, /*observe=*/false);
      on_ms = one_wall_ms(wl.module, /*observe=*/true);
    } else {
      on_ms = one_wall_ms(wl.module, /*observe=*/true);
      off_ms = one_wall_ms(wl.module, /*observe=*/false);
    }
    ratios.push_back(on_ms / off_ms);
    offs.push_back(off_ms);
    ons.push_back(on_ms);
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double off_ms = median(offs);
  const double on_ms = median(ons);
  const double overhead_pct = (median(ratios) - 1.0) * 100.0;
  const bool pass = overhead_pct <= kThresholdPct;

  if (json) {
    std::printf("{\"workload\": \"backprop\", "
                "\"pairs\": %d, \"off_ms\": %.3f, \"on_ms\": %.3f, "
                "\"overhead_pct\": %.2f, \"threshold_pct\": %.1f, "
                "\"pass\": %s}\n",
                kPairs, off_ms, on_ms, overhead_pct, kThresholdPct,
                pass ? "true" : "false");
  } else {
    std::printf("pp::obs enabled-but-idle overhead (backprop, serial, "
                "median of %d alternating off/on pairs)\n", kPairs);
    std::printf("  observe off: %8.3f ms (median)\n", off_ms);
    std::printf("  observe on:  %8.3f ms (median)\n", on_ms);
    std::printf("  overhead:    %+7.2f %%  (threshold %.1f %%) -> %s\n",
                overhead_pct, kThresholdPct, pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
