// Fold-stage microbench: record each mini-Rodinia workload's DDG event
// stream (the exact on_instruction / on_dependence sequence
// Instrumentation II emits), then time FoldingSink consumption +
// finalize() alone, per workload and summed over the suite. This
// isolates stage 3 from the VM and the DDG builder, which is the right
// lens for folder-asymptotics work — cfd's seed profile spent 3.6 s of a
// 3.8 s pipeline inside fold, so pipeline-level timing is mostly noise
// around the folder.
//
//   $ ./fold_only            # human-readable table
//   $ ./fold_only --json     # {"workloads":[...],"suite_fold_ms":..,"pass":..}
//                            # exit 1 on fail
//
// scripts/check.sh runs the --json mode and gates on `pass`: the cfd
// fold wall time must stay under a committed budget (min-of-N to keep
// scheduler noise out).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fold/folded_ddg.hpp"
#include "obs/obs.hpp"
#include "trace_replay.hpp"
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
    bool is_dep = false;
    // instruction fields
    int stmt = 0;
    bool has_value = false, has_address = false;
    i64 value = 0, address = 0;
    // dependence fields
    ddg::DepKind kind = ddg::DepKind::kRegFlow;
    int src = 0, dst = 0, slot = 0;
    // coords in `pool`: [off, off+n1) primary, [off+n1, off+n1+n2) second
    std::size_t off = 0;
    std::size_t n1 = 0, n2 = 0;
  };
  std::vector<ddg::Statement> stmts;  ///< by id
  std::vector<i64> pool;
  std::vector<Ev> events;
  ddg::StatementTable table;

  void replay_into(ddg::DdgSink& sink) const {
    for (const Ev& e : events) {
      std::span<const i64> c1(pool.data() + e.off, e.n1);
      if (e.is_dep) {
        std::span<const i64> c2(pool.data() + e.off + e.n1, e.n2);
        sink.on_dependence(e.kind, e.src, c1, e.dst, c2, e.slot);
      } else {
        sink.on_instruction(stmts[static_cast<std::size_t>(e.stmt)], c1,
                            e.has_value, e.value, e.has_address, e.address);
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
    e.is_dep = true;
    e.kind = kind;
    e.src = src_stmt;
    e.dst = dst_stmt;
    e.slot = slot;
    e.off = push(dst_coords);
    e.n1 = dst_coords.size();
    push(src_coords);
    e.n2 = src_coords.size();
    out->events.push_back(e);
  }
};

DdgStream record_stream(const char* workload) {
  bench::Trace t = bench::record_trace(workload);
  DdgStream s;
  StreamRecorder rec(&s);
  ddg::DdgBuilder builder(t.module, t.cs, &rec);
  bench::replay(t, builder);
  s.table = builder.statements();
  return s;
}

struct Result {
  std::string workload;
  u64 events;
  double fold_ms;
  u64 pieces;
};

Result time_fold(const std::string& workload) {
  DdgStream s = record_stream(workload.c_str());
  Result r{workload, s.events.size(), 1e300, 0};
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
                  "\"fold_ms\": %.3f, \"pieces\": %llu}",
                  i ? ", " : "", r.workload.c_str(),
                  static_cast<unsigned long long>(r.events), r.fold_ms,
                  static_cast<unsigned long long>(r.pieces));
    }
    std::printf("], \"suite_fold_ms\": %.3f, \"cfd_budget_ms\": %.1f, "
                "\"pass\": %s}\n",
                suite_ms, kCfdBudgetMs, pass ? "true" : "false");
  } else {
    std::printf("fold-only wall time (recorded DDG streams, min of %d)\n",
                kReps);
    for (const Result& r : results)
      std::printf("  %-14s %10llu events  %9.3f ms  %6llu pieces\n",
                  r.workload.c_str(), static_cast<unsigned long long>(r.events),
                  r.fold_ms, static_cast<unsigned long long>(r.pieces));
    std::printf("  %-14s %28.3f ms\n", "suite total", suite_ms);
    std::printf("  cfd budget %.1f ms -> %s\n", kCfdBudgetMs,
                pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
