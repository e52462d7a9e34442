// pp::verify overhead: what the always-on pipeline-entry verifier costs
// (including the static analysis it builds for the report),
// and what the differential soundness oracle costs on top of a profile,
// measured on the largest mini-Rodinia module (by static instruction
// count). The verifier runs before EVERY pipeline invocation, so its cost
// is the one that matters for profiling latency; the oracle is a
// post-profile validation pass.
#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "verify/oracle.hpp"
#include "verify/verifier.hpp"

namespace pp {
namespace {

std::size_t static_instrs(const ir::Module& m) {
  std::size_t n = 0;
  for (const auto& f : m.functions)
    for (const auto& bb : f.blocks) n += bb.instrs.size();
  return n;
}

workloads::Workload largest_workload() {
  workloads::Workload best;
  std::size_t best_size = 0;
  for (const auto& name : workloads::rodinia_names()) {
    workloads::Workload w = workloads::make_rodinia(name);
    std::size_t n = static_instrs(w.module);
    if (n > best_size) {
      best_size = n;
      best = std::move(w);
    }
  }
  return best;
}

void print_overhead() {
  std::printf("== pp::verify overhead on the largest mini-Rodinia module ==\n");
  workloads::Workload w = largest_workload();
  std::printf("module: %s (%zu static instructions, %zu functions)\n",
              w.name.c_str(), static_instrs(w.module),
              w.module.functions.size());

  verify::VerifyReport vr = verify::verify_module(w.module);
  std::printf("verifier: %zu issue(s), ok=%s\n", vr.issues.size(),
              vr.ok() ? "yes" : "no");

  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();
  std::vector<feedback::RegionMetrics> metrics;
  for (const auto& region : r.hot_regions())
    metrics.push_back(r.analyze(region));
  std::vector<feedback::RegionMetrics*> ptrs;
  for (auto& m : metrics) ptrs.push_back(&m);
  verify::OracleReport rep =
      verify::run_oracle(w.module, r.program, *r.static_deps, ptrs);
  std::printf("%s\n\n", rep.verdict_line().c_str());
}

void BM_VerifyModule(benchmark::State& state) {
  workloads::Workload w = largest_workload();
  for (auto _ : state) {
    verify::VerifyReport rep = verify::verify_module(w.module);
    benchmark::DoNotOptimize(rep.issues.size());
  }
}
BENCHMARK(BM_VerifyModule)->Unit(benchmark::kMicrosecond);

void BM_VerifyStructuralOnly(benchmark::State& state) {
  // The pp_ir structural rules alone (ir::verify), which every VM
  // construction pays: no def-before-use, no static analysis.
  workloads::Workload w = largest_workload();
  for (auto _ : state) {
    ir::verify(w.module);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_VerifyStructuralOnly)->Unit(benchmark::kMicrosecond);

void BM_CoverageOracle(benchmark::State& state) {
  workloads::Workload w = largest_workload();
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();
  for (auto _ : state) {
    // A fresh static analysis per iteration: the containment check pays
    // for the verifier that builds the models and for the Omega verdicts
    // it asks for.
    verify::CoverageReport rep = verify::check_dynamic_coverage(
        w.module, r.program, verify::verify_module(w.module).deps);
    benchmark::DoNotOptimize(rep.checked);
  }
}
BENCHMARK(BM_CoverageOracle)->Unit(benchmark::kMillisecond);

void BM_ClaimOracle(benchmark::State& state) {
  workloads::Workload w = largest_workload();
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();
  std::vector<feedback::RegionMetrics> metrics;
  for (const auto& region : r.hot_regions())
    metrics.push_back(r.analyze(region));
  for (auto _ : state) {
    for (auto& m : metrics) {
      verify::ClaimReport rep =
          verify::check_parallel_claims(r.program, m, /*downgrade=*/false);
      benchmark::DoNotOptimize(rep.instances_checked);
    }
  }
}
BENCHMARK(BM_ClaimOracle)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pp

int main(int argc, char** argv) {
  pp::print_overhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
