// Hot-path trace compaction (vm::PathCache + DdgBuilder bulk replay):
// the hard contract is that `full_report` is byte-identical with
// compaction on and off — compressed runs must reproduce the reference
// event stream exactly, and every guard failure must bail out at the
// diverging event and resume on the interpreted slow path. These tests
// drive the bailout taxonomy directly: data-dependent control flow,
// clamped emission inside a run, a VM trap mid-run, non-affine
// (collected) values/addresses, and anti/output edges inside runs.
#include <algorithm>
#include <string>

#include "core/pipeline.hpp"
#include "gtest/gtest.h"
#include "ir/builder.hpp"

namespace pp {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

std::string report_with_compaction(const ir::Module& m, bool on,
                                   const core::PipelineOptions& base = {}) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts = base;
  opts.path_compaction = on;
  core::ProfileResult r = pipe.run(opts);
  return core::full_report(r);
}

/// Counter finals from an observed compacted run (0 if absent).
struct PathCounters {
  i64 hits = 0, bailouts = 0, compressed = 0;
  bool truncated = false;
};
PathCounters counters_of(const ir::Module& m,
                         const core::PipelineOptions& base = {}) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts = base;
  opts.path_compaction = true;
  opts.observe = true;
  core::ProfileResult r = pipe.run(opts);
  PathCounters c;
  c.truncated = r.truncated;
  auto cs = r.obs->counters();
  if (auto it = cs.find("vm.path_hits"); it != cs.end())
    c.hits = it->second.value;
  if (auto it = cs.find("vm.path_bailouts"); it != cs.end())
    c.bailouts = it->second.value;
  if (auto it = cs.find("vm.events_compressed"); it != cs.end())
    c.compressed = it->second.value;
  return c;
}

// for (i = 0; i < n; ++i) a[i] = i;  — one acyclic body path, affine
// value and address recurrences: the canonical compressible loop.
Module affine_store_loop(i64 n) {
  Module m;
  i64 a = m.add_global("a", n * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(a);
  Reg end = b.const_(n);
  b.counted_loop(0, end, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg addr = b.add(base, off);
    b.store(addr, iv);
  });
  b.ret();
  return m;
}

TEST(PathCache, AffineLoopCompressesAndReportMatchesReference) {
  Module m = affine_store_loop(64);
  EXPECT_EQ(report_with_compaction(m, false), report_with_compaction(m, true));
  PathCounters c = counters_of(m);
  EXPECT_GT(c.hits, 0);
  EXPECT_GT(c.compressed, 0);
}

// Loop whose branch depends on loaded data: constant for a long stretch,
// flips once mid-loop, then constant again. The armed run must bail at
// exactly the diverging jump and re-arm afterwards.
Module data_dependent_branch_loop(i64 n, i64 flip_at) {
  Module m;
  std::vector<i64> words(static_cast<std::size_t>(n), 0);
  words[static_cast<std::size_t>(flip_at)] = 1;
  i64 a = m.add_global_init("a", std::move(words));
  i64 acc_slot = m.add_global("acc", 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(a);
  Reg accp = b.const_(acc_slot);
  Reg end = b.const_(n);
  b.counted_loop(0, end, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg addr = b.add(base, off);
    Reg v = b.load(addr);
    int then_bb = b.make_block("then");
    int else_bb = b.make_block("else");
    int join_bb = b.make_block("join");
    b.br_cond(v, then_bb, else_bb);
    b.set_block(then_bb);
    Reg acc1 = b.load(accp);
    Reg bumped = b.addi(acc1, 100);
    b.store(accp, bumped);
    b.br(join_bb);
    b.set_block(else_bb);
    Reg acc2 = b.load(accp);
    Reg inc = b.addi(acc2, 1);
    b.store(accp, inc);
    b.br(join_bb);
    b.set_block(join_bb);
  });
  Reg final_acc = b.load(b.const_(acc_slot));
  b.ret(final_acc);
  return m;
}

TEST(PathCache, DataDependentBranchBailsAtDivergingEvent) {
  Module m = data_dependent_branch_loop(96, 48);
  EXPECT_EQ(report_with_compaction(m, false), report_with_compaction(m, true));
  PathCounters c = counters_of(m);
  // The flip iteration cannot match the armed else-path template.
  EXPECT_GE(c.bailouts, 1);
  EXPECT_GT(c.hits, 0);
}

TEST(PathCache, ClampedEmissionInsideCompressedRunStaysExact) {
  Module m = affine_store_loop(100);
  // The clamp trips strictly inside a compressed run: emission stops at
  // the exact instance while executions keep counting.
  for (bool track : {false, true}) {
    for (u64 clamp : {1u, 5u, 37u, 99u}) {
      SCOPED_TRACE("clamp=" + std::to_string(clamp) +
                   " track_anti_output=" + std::to_string(track));
      core::PipelineOptions base;
      base.ddg.clamp_instances = clamp;
      base.ddg.track_anti_output = track;
      EXPECT_EQ(report_with_compaction(m, false, base),
                report_with_compaction(m, true, base));
    }
  }
}

// for (i = 0; i < n; ++i) a[i] = i;  with n large enough that the store
// walks past the data segment AND the machine's default 1 MiB heap: the
// trap lands inside an armed run and the flushed partial profile must
// match the reference byte for byte.
Module trapping_store_loop(i64 alloc, i64 n) {
  Module m;
  i64 a = m.add_global("a", alloc * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(a);
  Reg end = b.const_(n);
  b.counted_loop(0, end, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg addr = b.add(base, off);
    b.store(addr, iv);
  });
  b.ret();
  return m;
}

TEST(PathCache, TrapMidCompressedRunFlushesToReferenceProfile) {
  Module m = trapping_store_loop(/*alloc=*/40, /*n=*/1 << 18);
  const std::string off = report_with_compaction(m, false);
  EXPECT_NE(off.find("PARTIAL PROFILE"), std::string::npos);
  EXPECT_EQ(off, report_with_compaction(m, true));
  PathCounters c = counters_of(m);
  EXPECT_TRUE(c.truncated);
  EXPECT_GT(c.hits, 0);
}

// a[b[i]] with a scrambled index vector: the load address never settles
// into an affine recurrence, so the slot demotes to collect-class and the
// run keeps compressing without address guards.
Module indirect_load_loop(i64 n) {
  Module m;
  std::vector<i64> idx(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    idx[static_cast<std::size_t>(i)] = (i * 7 + 3) % n;
  i64 bg = m.add_global_init("b", std::move(idx));
  i64 ag = m.add_global("a", n * 8);
  i64 acc_slot = m.add_global("acc", 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg bbase = b.const_(bg);
  Reg abase = b.const_(ag);
  Reg accp = b.const_(acc_slot);
  Reg end = b.const_(n);
  b.counted_loop(0, end, 1, [&](Reg iv) {
    Reg boff = b.muli(iv, 8);
    Reg baddr = b.add(bbase, boff);
    Reg j = b.load(baddr);
    Reg aoff = b.muli(j, 8);
    Reg aaddr = b.add(abase, aoff);
    Reg v = b.load(aaddr);
    Reg acc = b.load(accp);
    Reg sum = b.add(acc, v);
    b.store(accp, sum);
  });
  b.ret();
  return m;
}

// Under anti/output tracking the `acc` load/store pair is WAR and WAW
// inside every compressed iteration, next to the gather: the interleaved
// replay must emit both kinds in reference order.
TEST(PathCache, NonAffineAddressesCollectWithoutBailing) {
  Module m = indirect_load_loop(80);
  for (bool track : {false, true}) {
    SCOPED_TRACE("track_anti_output=" + std::to_string(track));
    core::PipelineOptions base;
    base.ddg.track_anti_output = track;
    EXPECT_EQ(report_with_compaction(m, false, base),
              report_with_compaction(m, true, base));
    PathCounters c = counters_of(m, base);
    EXPECT_GT(c.hits, 0);
    EXPECT_GT(c.compressed, 0);
  }
}

// Two loops over disjoint arrays: the first reads b[i] and writes c[i],
// the second writes both again. Each loop's slots are disjoint, so its
// runs replay slot by slot; under anti/output tracking the first loop's
// bulk loads must leave their readers behind for the second loop's WAR
// edges, and its bulk stores their writers for the WAW edges.
Module reread_rewrite_loops(i64 n) {
  Module m;
  i64 bg = m.add_global("b", n * 8);
  i64 cg = m.add_global("c", n * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg bbase = b.const_(bg);
  Reg cbase = b.const_(cg);
  Reg end = b.const_(n);
  b.counted_loop(0, end, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg v = b.load(b.add(bbase, off));
    b.store(b.add(cbase, off), b.addi(v, 1));
  });
  b.counted_loop(0, end, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    b.store(b.add(bbase, off), iv);
    b.store(b.add(cbase, off), iv);
  });
  b.ret();
  return m;
}

// Anti/output tracking compacts like any other run and its report stays
// byte-identical to the reference. Only per-event budget caps (shadow,
// pool, wall) turn compaction off: bulk replay would trip them at a
// different event.
TEST(PathCache, OnlyPerEventBudgetCapsDisableCompaction) {
  {
    Module m = reread_rewrite_loops(64);
    core::PipelineOptions base;
    base.ddg.track_anti_output = true;
    core::PipelineOptions ref = base;
    ref.path_compaction = false;
    core::ProfileResult r = core::Pipeline(m).run(ref);
    for (ddg::DepKind k : {ddg::DepKind::kAnti, ddg::DepKind::kOutput})
      EXPECT_TRUE(std::ranges::any_of(
          r.program.deps,
          [&](const fold::FoldedDep& d) { return d.kind == k; }))
          << ddg::dep_kind_name(k);
    EXPECT_EQ(core::full_report(r), report_with_compaction(m, true, base));
    PathCounters c = counters_of(m, base);
    EXPECT_GT(c.hits, 0);
    EXPECT_GT(c.compressed, 0);
  }
  {
    Module m = affine_store_loop(64);
    core::PipelineOptions base;
    base.budget.shadow_pages = 1 << 20;
    base.observe = true;
    base.path_compaction = true;
    core::ProfileResult r = core::Pipeline(m).run(base);
    auto cs = r.obs->counters();
    EXPECT_EQ(cs.find("vm.path_hits"), cs.end());
  }
}

}  // namespace
}  // namespace pp
