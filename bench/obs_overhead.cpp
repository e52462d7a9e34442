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
// scripts/check.sh runs the --json mode and gates on `pass`. Min-of-N
// wall times keep scheduler noise out of the comparison.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

using namespace pp;

namespace {

constexpr double kThresholdPct = 3.0;
constexpr int kReps = 7;

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
  // Off/on reps interleave so frequency/cache drift hits both sides
  // equally; one untimed warm-up run absorbs first-touch effects.
  one_wall_ms(wl.module, /*observe=*/false);
  double off_ms = 1e300;
  double on_ms = 1e300;
  for (int i = 0; i < kReps; ++i) {
    off_ms = std::min(off_ms, one_wall_ms(wl.module, /*observe=*/false));
    on_ms = std::min(on_ms, one_wall_ms(wl.module, /*observe=*/true));
  }
  const double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
  const bool pass = overhead_pct <= kThresholdPct;

  if (json) {
    std::printf("{\"workload\": \"backprop\", "
                "\"reps\": %d, \"off_ms\": %.3f, \"on_ms\": %.3f, "
                "\"overhead_pct\": %.2f, \"threshold_pct\": %.1f, "
                "\"pass\": %s}\n",
                kReps, off_ms, on_ms, overhead_pct, kThresholdPct,
                pass ? "true" : "false");
  } else {
    std::printf("pp::obs enabled-but-idle overhead (backprop, serial, "
                "min of %d)\n", kReps);
    std::printf("  observe off: %8.3f ms\n", off_ms);
    std::printf("  observe on:  %8.3f ms\n", on_ms);
    std::printf("  overhead:    %+7.2f %%  (threshold %.1f %%) -> %s\n",
                overhead_pct, kThresholdPct, pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
