// Regenerates the paper's Table 5: summary statistics of POLY-PROF's
// feedback over the (mini-)Rodinia 3.1 suite, one row per benchmark:
//   #ops, %Aff, Region, %ops/%Mops/%FPops of the region, interprocedural,
//   why the static (Polly-like) analysis fails, skew, %||ops, %simdops,
//   %reuse, %Preuse, ld-src, ld-bin, TileD, %Tilops, C, Comp., fusion.
// streamcluster reproduces the paper's missing row: past the statement
// budget the scheduler stage is skipped and "-" is printed.
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "obs/obs.hpp"
#include "statican/statican.hpp"

namespace pp {
namespace {

// Paper's scheduler memory blow-up analog: regions folding into more
// statements than this get no scheduling feedback.
constexpr std::size_t kSchedulerStatementBudget = 250;

std::string run_benchmark_row(const std::string& name);

// The 19 pipelines are independent: sweep them on a thread pool, like the
// paper's per-core accounting ("total CPU time summing for all cores").
void print_table5_rows() {
  std::size_t workers = std::max(2u, std::thread::hardware_concurrency());
  std::vector<std::future<std::string>> rows;
  rows.reserve(workloads::rodinia_names().size());
  std::size_t launched = 0;
  const auto& names = workloads::rodinia_names();
  // Simple bounded fan-out: launch up to `workers` at a time.
  std::vector<std::string> results(names.size());
  for (std::size_t begin = 0; begin < names.size(); begin += workers) {
    std::size_t end = std::min(begin + workers, names.size());
    std::vector<std::future<std::string>> batch;
    for (std::size_t i = begin; i < end; ++i)
      batch.push_back(std::async(std::launch::async, run_benchmark_row,
                                 names[i]));
    for (std::size_t i = begin; i < end; ++i)
      results[i] = batch[i - begin].get();
    launched = end;
  }
  (void)launched;
  for (const auto& r : results) std::fputs(r.c_str(), stdout);
}

std::string row_to_string(
    const std::vector<std::pair<std::string, int>>& cells) {
  std::string out;
  for (const auto& [text, width] : cells) {
    std::string t = text;
    if (static_cast<int>(t.size()) > width)
      t = t.substr(0, static_cast<std::size_t>(width));
    t.resize(static_cast<std::size_t>(width), ' ');
    out += t;
    out += ' ';
  }
  out += '\n';
  return out;
}

std::string run_benchmark_row(const std::string& name) {
  workloads::Workload w = workloads::make_rodinia(name);
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();

  double aff = r.percent_affine();
  auto regions = r.hot_regions(0.05);
  feedback::Region region =
      regions.empty() ? r.whole_program() : regions[0];
  // "We considered a region to be interprocedural if inlining was required
  // to perform the transformation" — true when any hot region spans
  // several functions.
  bool any_interproc = false;
  for (const auto& reg : regions) any_interproc |= reg.interprocedural;
  region.interprocedural = region.interprocedural || any_interproc;

  // Static baseline over the functions the region touches.
  std::set<int> funcs;
  for (int id : region.stmts)
    funcs.insert(r.program.stmt(id).meta.code.func);
  std::set<char> polly = statican::analyze_region(
      w.module, std::vector<int>(funcs.begin(), funcs.end()));

  // The paper's streamcluster footnote: scheduling skipped past budget.
  bool budget_blown = region.stmts.size() > kSchedulerStatementBudget;

  using bench::pct;
  using bench::human;
  std::vector<std::pair<std::string, int>> cells;
  cells.emplace_back(name, 14);
  cells.emplace_back(human(r.program.total_dynamic_ops), 7);
  cells.emplace_back(pct(aff), 5);
  cells.emplace_back(w.region_hint, 22);
  if (budget_blown) {
    feedback::RegionMetrics mx;  // ops accounting only, no scheduling
    for (int id : region.stmts) {
      const auto& s = r.program.stmt(id);
      mx.ops += s.meta.executions;
      if (s.meta.is_memory) mx.mem_ops += s.meta.executions;
      if (s.meta.is_fp) mx.fp_ops += s.meta.executions;
    }
    double rops = 100.0 * static_cast<double>(mx.ops) /
                  static_cast<double>(r.program.total_dynamic_ops);
    cells.emplace_back(pct(rops), 5);
    cells.emplace_back(pct(mx.pct(mx.mem_ops)), 6);
    cells.emplace_back(pct(mx.pct(mx.fp_ops)), 7);
    cells.emplace_back(region.interprocedural ? "Y" : "N", 2);
    cells.emplace_back(statican::reasons_str(polly), 7);
    for (int i = 0; i < 6; ++i) cells.emplace_back("-", i < 1 ? 4 : 6);
    cells.emplace_back(std::to_string(w.ld_src) + "D", 3);
    for (int i = 0; i < 5; ++i) cells.emplace_back("-", 4);
    std::string out = row_to_string(cells);
    out += "  note: " + std::to_string(region.stmts.size()) +
           " folded statements exceed the scheduling budget (" +
           std::to_string(kSchedulerStatementBudget) +
           ") - the paper's streamcluster ran out of memory here\n";
    return out;
  }

  feedback::RegionMetrics mx = r.analyze(region);
  double rops = 100.0 * static_cast<double>(mx.ops) /
                static_cast<double>(r.program.total_dynamic_ops);
  cells.emplace_back(pct(rops), 5);
  cells.emplace_back(pct(mx.pct(mx.mem_ops)), 6);
  cells.emplace_back(pct(mx.pct(mx.fp_ops)), 7);
  cells.emplace_back(region.interprocedural ? "Y" : "N", 2);
  cells.emplace_back(statican::reasons_str(polly), 7);
  cells.emplace_back(mx.skew_used ? "Y" : "N", 4);
  cells.emplace_back(pct(mx.pct(mx.parallel_ops)), 6);
  cells.emplace_back(pct(mx.pct(mx.simd_ops)), 6);
  cells.emplace_back(pct(mx.pct_mem(mx.reuse_mem_ops)), 6);
  cells.emplace_back(pct(mx.pct_mem(mx.preuse_mem_ops)), 6);
  cells.emplace_back(std::to_string(w.ld_src) + "D", 6);
  cells.emplace_back(std::to_string(mx.max_loop_depth) + "D", 3);
  cells.emplace_back(std::to_string(mx.tile_depth) + "D", 4);
  cells.emplace_back(pct(mx.pct(mx.tilable_ops)), 4);
  cells.emplace_back(std::to_string(mx.components_before), 4);
  cells.emplace_back(std::to_string(mx.components_after), 4);
  cells.emplace_back(std::string(1, mx.fusion), 4);
  return row_to_string(cells);
}

void print_table5() {
  std::printf("== Table 5: POLY-PROF summary statistics on mini-Rodinia ==\n");
  bench::print_row({{"benchmark", 14}, {"#ops", 7},   {"%Aff", 5},
                    {"Region", 22},    {"%ops", 5},   {"%Mops", 6},
                    {"%FPops", 7},     {"ip", 2},     {"Polly", 7},
                    {"skew", 4},       {"%||ops", 6}, {"%simd", 6},
                    {"%reuse", 6},     {"%Preu", 6},  {"ld-src", 6},
                    {"ld-b", 3},       {"TileD", 4},  {"%Til", 4},
                    {"C", 4},          {"Comp", 4},   {"fuse", 4}});
  auto t0 = std::chrono::steady_clock::now();
  print_table5_rows();
  auto t1 = std::chrono::steady_clock::now();
  std::printf("\n(19-benchmark sweep: %.1f s wall on %u threads)\n\n",
              std::chrono::duration<double>(t1 - t0).count(),
              std::max(2u, std::thread::hardware_concurrency()));
}

// Machine-readable mode (--json): one row per workload from an observed
// run — wall time (profile + full_report), the pp::obs per-stage
// breakdown, and a FNV-1a fingerprint of full_report (which carries the
// stable self-profile section). --trace-out/--manifest-out additionally
// export the largest workload's (by dynamic ops) run as a Chrome trace /
// run manifest.
int print_json(const char* trace_out, const char* manifest_out) {
  struct Row {
    std::string name;
    u64 ops = 0;
    double aff = 0;
    std::size_t stmts = 0, deps = 0;
    double wall_ms = 0;
    u64 report_fnv1a = 0;
    std::vector<obs::SpanRec> stages;
  };
  auto stages_json = [](const std::vector<obs::SpanRec>& stages) {
    std::string out = "{";
    for (std::size_t i = 0; i < stages.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f",
                    i > 0 ? ", " : "", stages[i].name + 6,
                    static_cast<double>(stages[i].dur_ns) / 1e6);
      out += buf;
    }
    return out + "}";
  };

  std::vector<Row> rows;
  std::size_t largest = 0;
  std::shared_ptr<obs::Session> largest_obs;
  obs::Session::ManifestExtra largest_extra;
  for (const auto& name : workloads::rodinia_names()) {
    workloads::Workload w = workloads::make_rodinia(name);
    core::PipelineOptions opts;
    opts.observe = true;
    // The report is rendered inside the timed section: the feedback stage
    // only runs (and its stage span only exists) inside full_report.
    auto t0 = std::chrono::steady_clock::now();
    core::ProfileResult r = core::Pipeline(w.module).run(opts);
    const std::string report = core::full_report(r);
    auto t1 = std::chrono::steady_clock::now();
    Row row;
    row.name = name;
    row.ops = r.program.total_dynamic_ops;
    row.aff = r.percent_affine();
    row.stmts = r.program.statements.size();
    row.deps = r.program.deps.size();
    row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.report_fnv1a = bench::fnv1a(report);
    row.stages = r.obs->stage_spans();
    if (rows.empty() || row.ops > rows[largest].ops) {
      largest = rows.size();
      largest_obs = r.obs;
      largest_extra.workload = name;
      largest_extra.truncated = r.truncated;
      largest_extra.degraded_statements = r.program.degraded_statements;
      largest_extra.diagnostics = r.diagnostics.size();
      largest_extra.report_fingerprint = bench::hex64(row.report_fnv1a);
    }
    rows.push_back(row);
  }

  if (trace_out != nullptr) {
    std::ofstream(trace_out, std::ios::binary)
        << largest_obs->chrome_trace_json(rows[largest].name);
  }
  if (manifest_out != nullptr) {
    std::ofstream(manifest_out, std::ios::binary)
        << largest_obs->manifest_json(largest_extra);
  }

  std::printf("{\n  \"bench\": \"table5_rodinia\",\n");
  std::printf("  \"workloads\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("    {\"name\": %s, \"ops\": %llu, \"pct_affine\": %.1f, "
                "\"statements\": %zu, \"deps\": %zu, "
                "\"serial_wall_ms\": %.2f, \"report_fnv1a\": %s, "
                "\"stage_wall_ms\": %s}%s\n",
                bench::json_str(row.name).c_str(),
                static_cast<unsigned long long>(row.ops), row.aff, row.stmts,
                row.deps, row.wall_ms,
                bench::json_str(bench::hex64(row.report_fnv1a)).c_str(),
                stages_json(row.stages).c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

// google-benchmark timing: full-pipeline profiling cost per benchmark
// (Experiment I's "profiling does not come for free" measurement).
void BM_ProfilePipeline(benchmark::State& state,
                        const std::string& name) {
  workloads::Workload w = workloads::make_rodinia(name);
  for (auto _ : state) {
    core::Pipeline pipe(w.module);
    core::ProfileResult r = pipe.run();
    benchmark::DoNotOptimize(r.program.total_dynamic_ops);
  }
}

}  // namespace
}  // namespace pp

int main(int argc, char** argv) {
  bool json = false;
  const char* trace_out = nullptr;
  const char* manifest_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json = true;
    } else if (std::string(argv[i]) == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::string(argv[i]) == "--manifest-out" && i + 1 < argc) {
      manifest_out = argv[++i];
    }
  }
  if (json || trace_out != nullptr || manifest_out != nullptr)
    return pp::print_json(trace_out, manifest_out);
  pp::print_table5();
  for (const char* name : {"backprop", "hotspot", "nw"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ProfilePipeline/") + name).c_str(),
        [name](benchmark::State& s) { pp::BM_ProfilePipeline(s, name); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
