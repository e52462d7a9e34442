// polyprof quickstart: build a small program in the mini-ISA, profile it
// through the full POLY-PROF pipeline, and read the structured-
// transformation feedback.
//
//   $ ./quickstart [--trace-out F] [--manifest-out F] [--stable]
//                  [--selective] [--no-path-compaction]
//                  [--apply-transforms] [workload]
//
// --apply-transforms closes the loop: after profiling, the transformation
// engine (pp::transform) applies the schedules the profile justifies to a
// copy of the module, re-runs it under the VM cost model, and prints the
// measured speedup next to the scheduler's prediction — with a byte-
// identity check on the program output.
//
// --selective turns on selective instrumentation: the exact static
// dependence analysis (verify::exact) proves access sites dependence-free
// before stage 2, and the profiler skips shadow-memory tracking for them.
// Also byte-identical by construction — the line printed above the report
// shows how many sites the plan covers.
//
// --no-path-compaction disables hot-path trace compaction (the Ball-Larus
// path cache that replays re-executed loop iterations into the DDG in
// bulk; on by default). The report is byte-identical either way — the
// flag exists for A/B timing, exactly what bench/trace_compaction gates.
//
// --trace-out writes a Chrome trace_event JSON of the profiler's own run
// (open it in Perfetto / chrome://tracing); --manifest-out writes the flat
// run manifest (per-stage wall/CPU, counter finals, report fingerprint).
// Either flag turns self-observability on. --stable elides timing-
// dependent values from the report's self-profile section.
//
// The optional positional argument profiles a mini-Rodinia workload by
// name (e.g. backprop, hotspot, srad_v1) instead of the built-in example:
// a matrix-vector product with the loops in the "wrong" order
// (column-major walk of a row-major matrix) — the classic situation the
// profiler's interchange feedback exists for.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"
#include "obs/obs.hpp"
#include "verify/exact.hpp"
#include "workloads/workloads.hpp"

using namespace pp;

// y[j] += A[i][j] * x[i], looping j outer / i inner: A is walked with a
// large stride in the inner loop.
static ir::Module build_matvec(i64 n) {
  ir::Module m;
  i64 ga = m.add_global("A", n * n * 8);
  i64 gx = m.add_global("x", n * 8);
  i64 gy = m.add_global("y", n * 8);

  ir::Function& f = m.add_function("main", 0, "matvec.c");
  ir::Builder b(m, f);
  b.set_block(b.make_block());

  ir::Reg a = b.const_(ga);
  ir::Reg x = b.const_(gx);
  ir::Reg y = b.const_(gy);
  ir::Reg nr = b.const_(n);

  // Fill A and x with something deterministic.
  b.set_line(3);
  b.counted_loop(0, nr, 1, [&](ir::Reg i) {
    b.counted_loop(0, nr, 1, [&](ir::Reg j) {
      ir::Reg idx = b.mul(i, nr);
      ir::Reg idx2 = b.add(idx, j);
      ir::Reg off = b.muli(idx2, 8);
      ir::Reg ptr = b.add(a, off);
      ir::Reg sum = b.add(i, j);
      ir::Reg v = b.i2f(sum);
      b.store(ptr, v);
    });
  });
  b.counted_loop(0, nr, 1, [&](ir::Reg i) {
    ir::Reg off = b.muli(i, 8);
    ir::Reg ptr = b.add(x, off);
    ir::Reg v = b.i2f(i);
    b.store(ptr, v);
  });

  // The kernel: for j { for i { y[j] += A[i][j] * x[i] } }.
  b.set_line(10);
  b.counted_loop(0, nr, 1, [&](ir::Reg j) {
    ir::Reg acc = b.fconst(0.0);
    b.set_line(11);
    b.counted_loop(0, nr, 1, [&](ir::Reg i) {
      ir::Reg row = b.mul(i, nr);
      ir::Reg cell = b.add(row, j);
      ir::Reg aoff = b.muli(cell, 8);
      ir::Reg aptr = b.add(a, aoff);
      ir::Reg av = b.load(aptr);
      ir::Reg xoff = b.muli(i, 8);
      ir::Reg xptr = b.add(x, xoff);
      ir::Reg xv = b.load(xptr);
      ir::Reg prod = b.fmul(av, xv);
      b.fadd(acc, prod, acc);
    });
    ir::Reg yoff = b.muli(j, 8);
    ir::Reg yptr = b.add(y, yoff);
    b.store(yptr, acc);
  });
  b.ret();
  return m;
}

static bool write_file(const char* path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

int main(int argc, char** argv) {
  const char* trace_out = nullptr;
  const char* manifest_out = nullptr;
  bool stable = false;
  bool selective = false;
  bool path_compaction = true;
  bool apply_transforms = false;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--manifest-out") == 0 && i + 1 < argc) {
      manifest_out = argv[++i];
    } else if (std::strcmp(argv[i], "--stable") == 0) {
      stable = true;
    } else if (std::strcmp(argv[i], "--selective") == 0) {
      selective = true;
    } else if (std::strcmp(argv[i], "--no-path-compaction") == 0) {
      path_compaction = false;
    } else if (std::strcmp(argv[i], "--apply-transforms") == 0) {
      apply_transforms = true;
    } else if (argv[i][0] != '-' && workload.empty()) {
      workload = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out F] [--manifest-out F] [--stable] "
                   "[--selective] [--no-path-compaction] "
                   "[--apply-transforms] [workload]\n",
                   argv[0]);
      return 2;
    }
  }
  ir::Module m;
  if (workload.empty()) {
    std::printf("polyprof quickstart: profiling a j-outer/i-inner matvec\n\n");
    m = build_matvec(24);
  } else {
    std::printf("polyprof quickstart: profiling mini-Rodinia '%s'\n\n",
                workload.c_str());
    m = workloads::make_rodinia(workload).module;
  }

  // The whole pipeline is two lines.
  core::PipelineOptions opts;
  opts.observe = trace_out != nullptr || manifest_out != nullptr;
  opts.selective_instrumentation = selective;
  opts.path_compaction = path_compaction;
  opts.apply_transforms = apply_transforms;
  if (selective) {
    const ddg::SelectivePlan plan = verify::exact::compute_selective_plan(m);
    std::printf("selective instrumentation: %zu access site(s) proven "
                "dependence-free, shadow tracking skipped for them\n\n",
                plan.total_sites());
  }
  const u64 t0 = obs::now_ns();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run(opts);

  std::printf("dynamic ops: %llu   statements after folding: %zu   "
              "dependence edges: %zu (SCEV-pruned: %llu)\n",
              static_cast<unsigned long long>(r.program.total_dynamic_ops),
              r.program.statements.size(), r.program.deps.size(),
              static_cast<unsigned long long>(r.program.pruned_dep_edges));
  std::printf("fully affine: %.0f%% of dynamic ops\n\n", r.percent_affine());

  if (r.obs == nullptr) {
    for (const auto& region : r.hot_regions(0.10)) {
      feedback::RegionMetrics mx = r.analyze(region);
      std::printf("%s", feedback::summarize(mx).c_str());
      std::printf("\nproposed structure:\n%s\n",
                  feedback::render_ast(mx, r.program, &m).c_str());
    }
    if (r.transform.ran)
      std::printf("-- transformation --\n%s\n",
                  transform::render_section(r.transform).c_str());
  } else {
    // Observed mode prints the full report instead of the hand-rolled
    // summaries: it carries the same region feedback plus the self-profile
    // section, and every piece of post-pipeline analysis runs inside the
    // report's feedback span (so the stage spans cover the wall time).
    core::ReportOptions ropts;
    ropts.stable_self_profile = stable;
    const std::string report = core::full_report(r, ropts);
    const u64 wall = obs::now_ns() - t0;
    std::printf("%s\n", report.c_str());

    u64 span_sum = 0;
    for (const obs::SpanRec& s : r.obs->stage_spans()) span_sum += s.dur_ns;
    std::printf("self profile: %zu stage spans cover %.1f%% of %.1f ms wall\n",
                r.obs->stage_spans().size(),
                100.0 * static_cast<double>(span_sum) /
                    static_cast<double>(wall == 0 ? 1 : wall),
                static_cast<double>(wall) / 1e6);

    if (trace_out != nullptr) {
      if (!write_file(trace_out, r.obs->chrome_trace_json(
                                     workload.empty() ? "matvec" : workload)))
        return 1;
      std::printf("wrote Chrome trace: %s (load in Perfetto)\n", trace_out);
    }
    if (manifest_out != nullptr) {
      obs::Session::ManifestExtra extra;
      extra.workload = workload.empty() ? "matvec" : workload;
      extra.truncated = r.truncated;
      extra.degraded_statements = r.program.degraded_statements;
      extra.diagnostics = r.diagnostics.size();
      char fp[32];
      std::snprintf(fp, sizeof fp, "%016llx",
                    static_cast<unsigned long long>(obs::fnv1a(report)));
      extra.report_fingerprint = fp;
      if (!write_file(manifest_out, r.obs->manifest_json(extra))) return 1;
      std::printf("wrote run manifest: %s\n", manifest_out);
    }
  }
  return 0;
}
