// Transformation-engine soundness contract (src/transform): every applied
// schedule must leave program output byte-identical; the report section
// is deterministic; an oracle-contradicted schedule is refused with a
// diagnostic; and when the oracle gate is forced off, an illegal rewrite
// is *reported* as a soundness violation instead of silently trusted.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"
#include "ir/loop_nest.hpp"
#include "transform/engine.hpp"
#include "workloads/workloads.hpp"

namespace pp::transform {
namespace {

// ---- output-identity harness over the whole mini-Rodinia suite --------

class TransformIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(TransformIdentity, AllAppliedSchedulesKeepOutputByteIdentical) {
  const std::string name = GetParam();
  workloads::Workload w = workloads::make_rodinia(name);
  core::PipelineOptions opts;
  opts.apply_transforms = true;
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run(opts);

  EXPECT_TRUE(r.transform.ok())
      << name << ": "
      << (r.transform.violations.empty() ? "" : r.transform.violations[0]);
  for (const Applied& a : r.transform.applied)
    EXPECT_TRUE(a.output_identical) << name << ": " << a.desc;
  EXPECT_TRUE(r.transform.combined_identical) << name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TransformIdentity,
                         ::testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

// ---- golden report section --------------------------------------------

TEST(TransformReport, KmeansSectionMatchesGolden) {
  workloads::Workload w = workloads::make_rodinia("kmeans");
  core::PipelineOptions opts;
  opts.apply_transforms = true;
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run(opts);
  ASSERT_TRUE(r.transform.ran);
  const std::string golden =
      "baseline: 168932 cycles under the transform cost model\n"
      "applied:\n"
      "  kmeans_clustering.c:140 (main)  tile 4x4 loops @140/@141  "
      "predicted 1.00x  measured 1.13x (168932 -> 149504 cycles)  "
      "output identical  [parallel outer]\n"
      "refused:\n"
      "  kmeans_clustering.c:160 (main)  interchange loops @160/@160: "
      "opaque dependences forced the identity schedule\n"
      "soundness: every applied schedule left program output "
      "byte-identical\n"
      "combined: 1.13x  output identical\n";
  EXPECT_EQ(render_section(r.transform), golden);
}

// ---- negative: oracle-contradicted schedules are refused ---------------

// A loop the profile proves serial: A[i] = A[i-1] + 1.
ir::Module build_serial_chain(i64 n) {
  ir::Module m;
  i64 ga = m.add_global("A", (n + 1) * 8);
  ir::Function& f = m.add_function("main", 0, "serial.c");
  ir::Builder b(m, f);
  b.set_block(b.make_block());
  ir::Reg a = b.const_(ga);
  ir::Reg nr = b.const_(n);
  b.store(a, b.const_(7));
  b.counted_loop(0, nr, 1, [&](ir::Reg i) {
    ir::Reg off = b.muli(i, 8);
    ir::Reg prev = b.load(b.add(a, off));
    ir::Reg next = b.addi(prev, 1);
    b.store(b.add(a, off), next, 8);
  });
  b.ret(b.load(a, static_cast<i64>(n) * 8));
  return m;
}

TEST(TransformOracle, DoctoredParallelClaimIsRefusedNotApplied) {
  ir::Module m = build_serial_chain(32);
  core::PipelineOptions popts;
  popts.ddg.track_anti_output = true;
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run(popts);
  ASSERT_FALSE(r.truncated);

  auto regions = r.hot_regions(0.05);
  ASSERT_FALSE(regions.empty());
  feedback::RegionMetrics mx = r.analyze(regions[0]);
  ASSERT_FALSE(mx.sched.groups.empty());
  // Doctor the schedule the way a corrupted (or downgraded-then-reused)
  // metrics object would look: claim every level parallel. The loop is
  // serial, so the oracle's must-evidence contradicts the claim.
  bool flipped = false;
  for (auto& g : mx.sched.groups)
    for (auto& lvl : g.levels)
      if (!lvl.parallel) lvl.parallel = flipped = true;
  ASSERT_TRUE(flipped) << "expected a serial level to doctor";

  Plan p;
  p.kind = Kind::kInterchange;
  p.site = "serial.c:1 (main)";
  p.desc = "interchange loops @1/@1";
  p.mx = mx;
  Options topts;
  EngineReport rep =
      apply_and_measure(m, r.program, {p}, "main", {}, topts);
  ASSERT_EQ(rep.applied.size(), 0u);
  ASSERT_EQ(rep.refused.size(), 1u);
  EXPECT_NE(rep.refused[0].reason.find("oracle contradicted the schedule"),
            std::string::npos)
      << rep.refused[0].reason;
  EXPECT_TRUE(rep.ok());
}

// ---- negative: forced illegal rewrite is reported, not dropped ---------

// A[i][j] = A[i-1][j+1] + i: dependence distance (1,-1), so interchange
// is illegal — the swapped order reads cells before they are written.
ir::Module build_interchange_illegal(i64 n) {
  ir::Module m;
  i64 ga = m.add_global("A", n * n * 8);
  ir::Function& f = m.add_function("main", 0, "illegal.c");
  ir::Builder b(m, f);
  b.set_block(b.make_block());
  ir::Reg a = b.const_(ga);
  ir::Reg nr = b.const_(n);
  ir::Reg n1 = b.const_(n * n);
  b.counted_loop(0, n1, 1, [&](ir::Reg k) {
    b.store(b.add(a, b.muli(k, 8)), k);
  });
  ir::Reg innerb = b.const_(n - 1);
  b.counted_loop(1, nr, 1, [&](ir::Reg i) {
    b.counted_loop(0, innerb, 1, [&](ir::Reg j) {
      ir::Reg im1 = b.addi(i, -1);
      ir::Reg jp1 = b.addi(j, 1);
      ir::Reg src = b.add(b.mul(im1, nr), jp1);
      ir::Reg v = b.load(b.add(a, b.muli(src, 8)));
      ir::Reg dst = b.add(b.mul(i, nr), j);
      b.store(b.add(a, b.muli(dst, 8)), b.add(v, i));
    });
  });
  b.ret();
  return m;
}

TEST(TransformForce, IllegalInterchangeReportedAsSoundnessViolation) {
  ir::Module m = build_interchange_illegal(8);
  core::PipelineOptions popts;
  popts.ddg.track_anti_output = true;
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run(popts);
  ASSERT_FALSE(r.truncated);

  // Hand-build the illegal plan: the kernel nest is the second loop pair.
  const ir::Function& f = *m.find_function("main");
  std::vector<ir::CountedLoop> loops = ir::find_counted_loops(f);
  Plan p;
  p.kind = Kind::kInterchange;
  p.func = f.id;
  for (const ir::CountedLoop& outer : loops)
    for (const ir::CountedLoop& inner : loops)
      if (outer.body == inner.preheader && inner.exit == outer.latch) {
        p.outer_header = outer.header;
        p.inner_header = inner.header;
      }
  ASSERT_GE(p.outer_header, 0);
  p.site = "illegal.c:1 (main)";
  p.desc = "interchange loops @1/@1";

  Options topts;
  topts.force = true;  // bypass the oracle gate — the identity check must
                       // catch the broken rewrite and say so
  EngineReport rep =
      apply_and_measure(m, r.program, {p}, "main", {}, topts);
  ASSERT_EQ(rep.applied.size(), 1u);
  EXPECT_FALSE(rep.applied[0].output_identical);
  EXPECT_FALSE(rep.ok());
  ASSERT_FALSE(rep.violations.empty());
  EXPECT_NE(rep.violations[0].find("output"), std::string::npos)
      << rep.violations[0];
}

}  // namespace
}  // namespace pp::transform
