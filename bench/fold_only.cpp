// Fold-stage microbench: record each mini-Rodinia workload's DDG event
// stream (the exact sequence Instrumentation II emits in the default
// pipeline configuration: path compaction on, so compressed loop runs
// arrive as on_instruction_run / on_dependence_run events and reach
// Folder::add_run), then time FoldingSink consumption + finalize()
// alone, per workload and summed over the suite. This
// isolates stage 3 from the VM and the DDG builder, which is the right
// lens for folder-asymptotics work — cfd's seed profile spent 3.6 s of a
// 3.8 s pipeline inside fold, so pipeline-level timing is mostly noise
// around the folder.
//
//   $ ./fold_only            # human-readable table
//   $ ./fold_only --json     # {"workloads":[...],"suite_fold_ms":..,"pass":..}
//                            # exit 1 on fail
//
// Each workload reports its recorded events and, among them, its "runs":
// the InstrRun/DepRun events that fold through Folder::add_run.
//
// scripts/check.sh runs the --json mode and gates on `pass`: the cfd
// fold wall time must stay under a committed budget (min-of-N to keep
// scheduler noise out).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cfg/dynamic_cfg.hpp"
#include "ddg/ddg_builder.hpp"
#include "fold/folded_ddg.hpp"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

using namespace pp;

namespace {

// The regression budget for the recorded cfd stream. Seed folded it in
// ~3660 ms; the stride-run/closed-form-count folder does it in ~100-150 ms
// (min of 5, Release and RelWithDebInfo, on a shared 4-vCPU Xeon host).
// 400 ms leaves ~3x headroom for slow CI boxes while still failing loudly
// on any asymptotic regression.
constexpr double kCfdBudgetMs = 400.0;
constexpr int kReps = 5;

/// Recorded DDG stream: statement copies by id plus one flat coordinate
/// pool, so replay into a sink costs a span construction per event.
struct DdgStream {
  struct Ev {
    enum Kind : std::uint8_t { kInstr, kDep, kInstrRun, kDepRun } kind = kInstr;
    // instruction fields (a run's first instance)
    int stmt = 0;
    bool has_value = false, has_address = false;
    i64 value = 0, address = 0;
    // run fields: n instances; affine values/addresses advance by their
    // stride, the others are listed in the pool
    u64 n = 0;
    bool value_affine = false, address_affine = false;
    i64 value_stride = 0, address_stride = 0;
    // dependence fields
    ddg::DepKind dep = ddg::DepKind::kRegFlow;
    int src = 0, dst = 0, slot = 0;
    // Segments in `pool` from `off` on:
    //   kInstr     coords[n1]
    //   kDep       dst[n1] src[n2]
    //   kInstrRun  coords[n1] stride[n1] values[n]? addresses[n]?
    //   kDepRun    dst[n1] dst_stride[n1] src[n2] src_stride[n2]
    std::size_t off = 0;
    std::size_t n1 = 0, n2 = 0;
  };
  std::vector<ddg::Statement> stmts;  ///< by id
  std::vector<i64> pool;
  std::vector<Ev> events;
  ddg::StatementTable table;

  u64 runs() const {
    u64 k = 0;
    for (const Ev& e : events)
      k += e.kind == Ev::kInstrRun || e.kind == Ev::kDepRun;
    return k;
  }

  void replay_into(ddg::DdgSink& sink) const {
    for (const Ev& e : events) {
      const i64* p = pool.data() + e.off;
      switch (e.kind) {
        case Ev::kInstr:
          sink.on_instruction(stmts[static_cast<std::size_t>(e.stmt)],
                              {p, e.n1}, e.has_value, e.value, e.has_address,
                              e.address);
          break;
        case Ev::kDep:
          sink.on_dependence(e.dep, e.src, {p + e.n1, e.n2}, e.dst, {p, e.n1},
                             e.slot);
          break;
        case Ev::kInstrRun: {
          ddg::DdgSink::InstrRun r;
          r.stmt = &stmts[static_cast<std::size_t>(e.stmt)];
          r.n = e.n;
          r.coords = {p, e.n1};
          r.coord_stride = {p + e.n1, e.n1};
          p += 2 * e.n1;
          r.has_value = e.has_value;
          r.value_affine = e.value_affine;
          r.value = e.value;
          r.value_stride = e.value_stride;
          if (e.has_value && !e.value_affine) {
            r.values = {p, e.n};
            p += e.n;
          }
          r.has_address = e.has_address;
          r.address_affine = e.address_affine;
          r.address = e.address;
          r.address_stride = e.address_stride;
          if (e.has_address && !e.address_affine) r.addresses = {p, e.n};
          sink.on_instruction_run(r);
          break;
        }
        case Ev::kDepRun: {
          ddg::DdgSink::DepRun r;
          r.kind = e.dep;
          r.src_stmt = e.src;
          r.dst_stmt = e.dst;
          r.slot = e.slot;
          r.n = e.n;
          r.dst_coords = {p, e.n1};
          r.dst_stride = {p + e.n1, e.n1};
          r.src_coords = {p + 2 * e.n1, e.n2};
          r.src_stride = {p + 2 * e.n1 + e.n2, e.n2};
          sink.on_dependence_run(r);
          break;
        }
      }
    }
  }
};

struct StreamRecorder : ddg::DdgSink {
  DdgStream* out;
  explicit StreamRecorder(DdgStream* o) : out(o) {}

  void keep_stmt(const ddg::Statement& s) {
    std::size_t id = static_cast<std::size_t>(s.id);
    if (out->stmts.size() <= id) out->stmts.resize(id + 1);
    out->stmts[id] = s;
  }
  std::size_t push(std::span<const i64> c) {
    std::size_t off = out->pool.size();
    out->pool.insert(out->pool.end(), c.begin(), c.end());
    return off;
  }

  void on_instruction(const ddg::Statement& s, std::span<const i64> coords,
                      bool has_value, i64 value, bool has_address,
                      i64 address) override {
    keep_stmt(s);
    DdgStream::Ev e;
    e.stmt = s.id;
    e.has_value = has_value;
    e.value = value;
    e.has_address = has_address;
    e.address = address;
    e.off = push(coords);
    e.n1 = coords.size();
    out->events.push_back(e);
  }
  void on_dependence(ddg::DepKind kind, int src_stmt,
                     std::span<const i64> src_coords, int dst_stmt,
                     std::span<const i64> dst_coords, int slot) override {
    DdgStream::Ev e;
    e.kind = DdgStream::Ev::kDep;
    e.dep = kind;
    e.src = src_stmt;
    e.dst = dst_stmt;
    e.slot = slot;
    e.off = push(dst_coords);
    e.n1 = dst_coords.size();
    push(src_coords);
    e.n2 = src_coords.size();
    out->events.push_back(e);
  }
  void on_instruction_run(const InstrRun& r) override {
    keep_stmt(*r.stmt);
    DdgStream::Ev e;
    e.kind = DdgStream::Ev::kInstrRun;
    e.stmt = r.stmt->id;
    e.n = r.n;
    e.has_value = r.has_value;
    e.value_affine = r.value_affine;
    e.value = r.value;
    e.value_stride = r.value_stride;
    e.has_address = r.has_address;
    e.address_affine = r.address_affine;
    e.address = r.address;
    e.address_stride = r.address_stride;
    e.off = push(r.coords);
    e.n1 = r.coords.size();
    push(r.coord_stride);
    if (r.has_value && !r.value_affine) push(r.values);
    if (r.has_address && !r.address_affine) push(r.addresses);
    out->events.push_back(e);
  }
  void on_dependence_run(const DepRun& r) override {
    DdgStream::Ev e;
    e.kind = DdgStream::Ev::kDepRun;
    e.dep = r.kind;
    e.src = r.src_stmt;
    e.dst = r.dst_stmt;
    e.slot = r.slot;
    e.n = r.n;
    e.off = push(r.dst_coords);
    e.n1 = r.dst_coords.size();
    push(r.dst_stride);
    push(r.src_coords);
    push(r.src_stride);
    e.n2 = r.src_coords.size();
    out->events.push_back(e);
  }
};

/// Run the workload the way core::Pipeline does (stage 1 for the control
/// structure, then a compacted stage-2 replay) and record what the
/// builder streams.
DdgStream record_stream(const char* workload) {
  workloads::Workload w = workloads::make_rodinia(workload);
  cfg::ControlStructure cs;
  {
    vm::Machine machine(w.module);
    cfg::DynamicCfgBuilder dyn;
    machine.set_observer(&dyn);
    machine.run("main");
    cs = cfg::ControlStructure::build(dyn, {w.module.find_function("main")->id});
  }
  DdgStream s;
  StreamRecorder rec(&s);
  ddg::DdgBuilder builder(w.module, cs, &rec, {}, nullptr, nullptr,
                          /*path_compaction=*/true);
  vm::Machine machine(w.module);
  machine.set_observer(&builder);
  machine.run("main");
  builder.flush_compaction();
  s.table = builder.statements();
  return s;
}

struct Result {
  std::string workload;
  u64 events;
  u64 runs;  ///< InstrRun/DepRun events: each folds through Folder::add_run
  double fold_ms;
  u64 pieces;
};

Result time_fold(const std::string& workload) {
  DdgStream s = record_stream(workload.c_str());
  Result r{workload, s.events.size(), s.runs(), 1e300, 0};
  for (int i = 0; i < kReps; ++i) {
    fold::FoldingSink sink{fold::FolderOptions{}};
    const u64 t0 = obs::now_ns();
    s.replay_into(sink);
    fold::FoldedProgram prog = sink.finalize(s.table);
    const u64 dt = obs::now_ns() - t0;
    r.fold_ms = std::min(r.fold_ms, static_cast<double>(dt) / 1e6);
    u64 pieces = 0;
    for (const auto& st : prog.statements)
      pieces += st.domain.pieces().size() + st.values.pieces().size() +
                st.addresses.pieces().size();
    for (const auto& d : prog.deps) pieces += d.relation.pieces().size();
    r.pieces = pieces;
  }
  return r;
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

  std::vector<Result> results;
  for (const std::string& w : workloads::rodinia_names())
    results.push_back(time_fold(w));

  double cfd_ms = 0, suite_ms = 0;
  for (const Result& r : results) {
    if (r.workload == "cfd") cfd_ms = r.fold_ms;
    suite_ms += r.fold_ms;
  }
  const bool pass = cfd_ms <= kCfdBudgetMs;

  if (json) {
    std::printf("{\"reps\": %d, \"workloads\": [", kReps);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::printf("%s{\"workload\": \"%s\", \"events\": %llu, "
                  "\"runs\": %llu, \"fold_ms\": %.3f, \"pieces\": %llu}",
                  i ? ", " : "", r.workload.c_str(),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.runs), r.fold_ms,
                  static_cast<unsigned long long>(r.pieces));
    }
    std::printf("], \"suite_fold_ms\": %.3f, \"cfd_budget_ms\": %.1f, "
                "\"pass\": %s}\n",
                suite_ms, kCfdBudgetMs, pass ? "true" : "false");
  } else {
    std::printf("fold-only wall time (recorded DDG streams, min of %d)\n",
                kReps);
    for (const Result& r : results)
      std::printf("  %-14s %10llu events  %8llu runs  %9.3f ms  %6llu pieces\n",
                  r.workload.c_str(), static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.runs), r.fold_ms,
                  static_cast<unsigned long long>(r.pieces));
    std::printf("  %-14s %42.3f ms\n", "suite total", suite_ms);
    std::printf("  cfd budget %.1f ms -> %s\n", kCfdBudgetMs,
                pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
