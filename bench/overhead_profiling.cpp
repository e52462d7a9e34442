// Experiment I's cost accounting ("the first three stages of POLY-PROF
// took 3h06' CPU for the full Rodinia suite"): measures the overhead of
// each pipeline stage against the uninstrumented run — native execution,
// stage 1 (control-structure instrumentation), stage 1+2+3 (full DDG
// profiling and folding) — plus events/second throughput of the folding
// kernel itself.
#include <chrono>

#include "bench_util.hpp"
#include "fold/folder.hpp"
#include "trace_replay.hpp"

namespace pp {
namespace {

void print_overheads() {
  std::printf("== Profiling overhead per stage (mini-Rodinia subset) ==\n");
  std::printf("%-14s %12s %12s %14s %10s\n", "benchmark", "native(ms)",
              "stage1(ms)", "stage1-3(ms)", "slowdown");
  for (const char* name : {"backprop", "hotspot", "kmeans", "nw", "srad_v2"}) {
    workloads::Workload w = workloads::make_rodinia(name);
    auto clock_ms = [](auto fn) {
      auto t0 = std::chrono::steady_clock::now();
      fn();
      auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    double native = clock_ms([&] {
      vm::Machine vm(w.module);
      vm.run("main");
    });
    double stage1 = clock_ms([&] {
      vm::Machine vm(w.module);
      cfg::DynamicCfgBuilder dyn;
      vm.set_observer(&dyn);
      vm.run("main");
    });
    double full = clock_ms([&] {
      core::Pipeline pipe(w.module);
      pipe.run();
    });
    std::printf("%-14s %12.2f %12.2f %14.2f %9.1fx\n", name, native, stage1,
                full, native > 0 ? full / native : 0.0);
  }
  std::printf("\n");
}

// Machine-readable mode (--json): the same stage-overhead accounting as
// the table, plus the full pipeline (profile + full_report) timed — the §8
// cost numbers.
int print_json() {
  auto clock_ms = [](auto fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  std::printf("{\n  \"bench\": \"overhead_profiling\",\n");
  std::printf("  \"benchmarks\": [\n");
  const std::vector<std::string> names = {"backprop", "hotspot", "kmeans",
                                          "nw", "srad_v2"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    workloads::Workload w = workloads::make_rodinia(names[i]);
    double native = clock_ms([&] {
      vm::Machine vm(w.module);
      vm.run("main");
    });
    double stage1 = clock_ms([&] {
      vm::Machine vm(w.module);
      cfg::DynamicCfgBuilder dyn;
      vm.set_observer(&dyn);
      vm.run("main");
    });
    double full_ms = clock_ms([&] {
      core::ProfileResult r = core::Pipeline(w.module).run();
      benchmark::DoNotOptimize(core::full_report(r));
    });
    std::printf(
        "    {\"name\": %s, \"native_ms\": %.2f, \"stage1_ms\": %.2f, "
        "\"full_serial_ms\": %.2f, \"slowdown_serial\": %.1f}%s\n",
        bench::json_str(names[i]).c_str(), native, stage1, full_ms,
        native > 0 ? full_ms / native : 0.0, i + 1 < names.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

// Stage-2 (Instrumentation II) throughput: the recorded VM event stream
// replayed straight into DdgBuilder, so the number is the DDG builder's
// own events/second — shadow memory, iteration-vector interning and
// statement identification — without interpreter or folding cost. This is
// the hot path the page-table shadow + CoordPool rewrite targets.
void print_stage2_throughput() {
  std::printf("== Stage-2 DDG throughput (trace replay, anti/output on) ==\n");
  std::printf("%-14s %12s %14s %14s %12s\n", "benchmark", "events",
              "events/sec", "shadow pages", "coord words");
  for (const char* name : {"backprop", "hotspot", "kmeans", "nw", "srad_v2"}) {
    bench::Trace trace = bench::record_trace(name);
    const int reps = 10;
    u64 sunk = 0;
    std::size_t pages = 0, coord_words = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      bench::CountingSink sink;
      ddg::DdgBuilder builder(trace.module, trace.cs, &sink,
                              {.track_anti_output = true});
      bench::replay(trace, builder);
      sunk += sink.seen;
      pages = builder.shadow().pages_live();
      coord_words = builder.coord_pool().size_words();
    }
    auto t1 = std::chrono::steady_clock::now();
    double sec = std::chrono::duration<double>(t1 - t0).count();
    double evs = static_cast<double>(trace.events.size()) * reps / sec;
    std::printf("%-14s %12zu %14s %14zu %12zu\n", name, trace.events.size(),
                (bench::human(static_cast<u64>(evs)) + "/s").c_str(), pages,
                coord_words);
    benchmark::DoNotOptimize(sunk);
  }
  std::printf("\n");
}

// Folding kernel throughput: points/second for the streaming folder on an
// affine 2-D stream (the per-event cost every dependence pays).
void BM_FolderThroughput(benchmark::State& state) {
  const i64 n = state.range(0);
  for (auto _ : state) {
    fold::Folder f(2, 2);
    for (i64 i = 0; i < n; ++i) {
      for (i64 j = 0; j < 16; ++j) {
        i64 pt[2] = {i, j};
        i64 lab[2] = {i, j - 1};
        f.add(pt, lab);
      }
    }
    benchmark::DoNotOptimize(f.finish().pieces().size());
  }
  state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_FolderThroughput)->Arg(64)->Arg(512);

void BM_VmThroughput(benchmark::State& state) {
  workloads::Workload w = workloads::make_rodinia("srad_v2");
  vm::Machine vm(w.module);
  for (auto _ : state) {
    vm::RunResult r = vm.run("main");
    state.SetItemsProcessed(static_cast<int64_t>(r.stats.instructions));
    benchmark::DoNotOptimize(r.exit_value);
  }
}
BENCHMARK(BM_VmThroughput)->Unit(benchmark::kMillisecond);

// Full-pipeline events/second (the "3h06' for the whole suite" analog).
void BM_FullPipeline(benchmark::State& state) {
  workloads::Workload w = workloads::make_rodinia("kmeans");
  for (auto _ : state) {
    core::Pipeline pipe(w.module);
    core::ProfileResult r = pipe.run();
    state.SetItemsProcessed(
        static_cast<int64_t>(r.program.total_dynamic_ops));
  }
}
BENCHMARK(BM_FullPipeline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pp

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json") return pp::print_json();
  pp::print_overheads();
  pp::print_stage2_throughput();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
