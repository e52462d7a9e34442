// Cost of the fault-tolerance machinery on the stage-2 hot path: the
// EventValidator in front of the DDG builder, and the per-event RunBudget
// checks inside it. Both guard every retired instruction, so their price
// must stay in the noise next to shadow-memory + interning work. Also
// prints the degradation profile of deliberately starved runs (budget cap
// vs retained %Aff) — the "graceful" in graceful degradation, quantified.
#include <chrono>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "support/budget.hpp"
#include "trace_replay.hpp"
#include "vm/event_validator.hpp"

namespace pp {
namespace {

void print_validator_overhead() {
  std::printf("== Stage-2 guard overhead (trace replay, anti/output on) ==\n");
  std::printf("%-14s %12s %12s %12s %10s %10s\n", "benchmark", "events",
              "bare(ms)", "guarded(ms)", "validator", "budget");
  for (const char* name : {"backprop", "hotspot", "kmeans", "nw"}) {
    bench::Trace trace = bench::record_trace(name);
    const int reps = 5;
    auto clock_ms = [&](auto fn) {
      auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) fn();
      auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
    };
    double bare = clock_ms([&] {
      bench::CountingSink sink;
      ddg::DdgBuilder builder(trace.module, trace.cs, &sink,
                              {.track_anti_output = true});
      bench::replay(trace, builder);
      benchmark::DoNotOptimize(sink.seen);
    });
    double validated = clock_ms([&] {
      bench::CountingSink sink;
      ddg::DdgBuilder builder(trace.module, trace.cs, &sink,
                              {.track_anti_output = true});
      vm::EventValidator val(trace.module, &builder);
      bench::replay(trace, val);
      benchmark::DoNotOptimize(sink.seen);
    });
    // Generous armed budget: every per-event check runs, none ever trips.
    support::RunBudget budget;
    budget.wall_ms = 3'600'000;
    budget.shadow_pages = 1u << 20;
    budget.coord_pool_words = 1u << 30;
    budget.arm();
    double budgeted = clock_ms([&] {
      bench::CountingSink sink;
      ddg::DdgBuilder builder(trace.module, trace.cs, &sink,
                              {.track_anti_output = true}, &budget);
      bench::replay(trace, builder);
      benchmark::DoNotOptimize(sink.seen);
    });
    std::printf("%-14s %12zu %12.2f %12.2f %9.1f%% %9.1f%%\n", name,
                trace.events.size(), bare, validated,
                bare > 0 ? 100.0 * (validated - bare) / bare : 0.0,
                bare > 0 ? 100.0 * (budgeted - bare) / bare : 0.0);
  }
  std::printf("\n");
}

void print_degradation_profile() {
  std::printf("== Graceful degradation: coord-pool budget vs %%Aff ==\n");
  std::printf("%-14s %12s %12s %12s %10s\n", "pool cap", "statements",
              "degraded", "%Aff", "truncated");
  workloads::Workload w = workloads::make_rodinia("backprop");
  core::Pipeline pipe(w.module);
  core::ProfileResult clean = pipe.run();
  std::size_t full = clean.coord_pool_words;
  for (double frac : {1.0, 0.5, 0.25, 0.1}) {
    core::PipelineOptions opts;
    if (frac < 1.0)
      opts.budget.coord_pool_words =
          std::max<std::size_t>(1, static_cast<std::size_t>(
                                       static_cast<double>(full) * frac));
    core::ProfileResult r = pipe.run(opts);
    char cap[32];
    std::snprintf(cap, sizeof cap, "%3.0f%% (%zu)", frac * 100,
                  opts.budget.coord_pool_words);
    std::printf("%-14s %12zu %12llu %11.0f%% %10s\n", cap,
                r.program.statements.size(),
                static_cast<unsigned long long>(r.program.degraded_statements),
                r.percent_affine(), r.truncated ? "yes" : "no");
  }
  std::printf("\n");
}

void BM_ValidatorPassthrough(benchmark::State& state) {
  bench::Trace trace = bench::record_trace("kmeans");
  for (auto _ : state) {
    bench::CountingSink sink;
    ddg::DdgBuilder builder(trace.module, trace.cs, &sink,
                            {.track_anti_output = true});
    vm::EventValidator val(trace.module, &builder);
    bench::replay(trace, val);
    benchmark::DoNotOptimize(val.instr_events());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.events.size()));
}
BENCHMARK(BM_ValidatorPassthrough)->Unit(benchmark::kMillisecond);

void BM_BudgetedBuilder(benchmark::State& state) {
  bench::Trace trace = bench::record_trace("kmeans");
  support::RunBudget budget;
  budget.shadow_pages = 1u << 20;
  budget.coord_pool_words = 1u << 30;
  budget.wall_ms = 3'600'000;
  budget.arm();
  for (auto _ : state) {
    bench::CountingSink sink;
    ddg::DdgBuilder builder(trace.module, trace.cs, &sink,
                            {.track_anti_output = true}, &budget);
    bench::replay(trace, builder);
    benchmark::DoNotOptimize(sink.seen);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.events.size()));
}
BENCHMARK(BM_BudgetedBuilder)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pp

int main(int argc, char** argv) {
  pp::print_validator_overhead();
  pp::print_degradation_profile();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
