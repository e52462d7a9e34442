#include "scheduler/scheduler.hpp"

#include <gtest/gtest.h>

namespace pp::scheduler {
namespace {

using poly::AffineExpr;
using poly::AffineMap;
using poly::Polyhedron;

// Helpers --------------------------------------------------------------

Polyhedron rect(i64 ni, i64 nj) {
  return Polyhedron::box({{0, ni - 1}, {0, nj - 1}});
}

// Dependence whose source is dst shifted by (di, dj).
SchedDep shift_dep(int src, int dst, Polyhedron dom, std::vector<i64> delta) {
  std::size_t d = delta.size();
  std::vector<AffineExpr> outs;
  for (std::size_t i = 0; i < d; ++i)
    outs.push_back(AffineExpr::var(d, i) - delta[i]);
  SchedDep dep;
  dep.src = src;
  dep.dst = dst;
  dep.pieces.push_back({std::move(dom), AffineMap(d, std::move(outs))});
  return dep;
}

SchedStatement stmt(int id, std::size_t depth, Polyhedron dom, u64 ops = 100) {
  SchedStatement s;
  s.id = id;
  s.depth = depth;
  s.ops = ops;
  s.domain_pieces.push_back(std::move(dom));
  return s;
}

// Tests ----------------------------------------------------------------

TEST(Scheduler, ReductionNestIsPermutableWithParallelOuter) {
  // The layerforward shape: one 2-D statement with a (0,1) self-dependence
  // (sum reduction along the inner loop). Expect: outer level parallel,
  // inner level carries, both in one permutable band (=> tilable, and the
  // feedback layer may interchange).
  Problem p;
  Polyhedron dom = rect(16, 43);
  p.statements.push_back(stmt(0, 2, dom));
  Polyhedron dep_dom = dom;
  dep_dom.add_ge0(AffineExpr::var(2, 1) - 1);  // j >= 1
  p.deps.push_back(shift_dep(0, 0, dep_dom, {0, 1}));

  ScheduleResult r = schedule(p);
  ASSERT_EQ(r.groups.size(), 1u);
  const GroupSchedule& g = r.groups[0];
  ASSERT_EQ(g.levels.size(), 2u);
  EXPECT_TRUE(g.schedulable);
  EXPECT_TRUE(g.levels[0].parallel);
  EXPECT_FALSE(g.levels[1].parallel);
  EXPECT_TRUE(g.levels[1].carries);
  EXPECT_TRUE(g.fully_permutable());
  EXPECT_EQ(g.tile_depth(), 2);
  EXPECT_FALSE(g.uses_skew());
  // Coarse-grain parallelism outside, none at the innermost (SIMD) level.
  EXPECT_TRUE(g.levels.front().parallel);
  EXPECT_FALSE(g.levels.back().parallel);
}

TEST(Scheduler, FullyParallelNest) {
  // No dependences: everything parallel, fully permutable.
  Problem p;
  p.statements.push_back(stmt(0, 3, Polyhedron::box({{0, 7}, {0, 7}, {0, 7}})));
  ScheduleResult r = schedule(p);
  const GroupSchedule& g = r.groups[0];
  ASSERT_EQ(g.levels.size(), 3u);
  for (const auto& lv : g.levels) EXPECT_TRUE(lv.parallel);
  EXPECT_TRUE(g.fully_permutable());
  EXPECT_EQ(g.tile_depth(), 3);
  EXPECT_TRUE(g.levels.back().parallel);
}

TEST(Scheduler, SeidelStencilNeedsSkewForTiling) {
  // Gauss-Seidel-style dependences (1,0), (0,1), (1,-1): without skewing
  // the band breaks after the first level; with skewing the nest is fully
  // permutable (wavefront).
  Problem p;
  Polyhedron dom = rect(10, 10);
  p.statements.push_back(stmt(0, 2, dom));
  p.deps.push_back(shift_dep(0, 0, rect(10, 10), {1, 0}));
  p.deps.push_back(shift_dep(0, 0, rect(10, 10), {0, 1}));
  p.deps.push_back(shift_dep(0, 0, rect(10, 10), {1, -1}));

  Options no_skew;
  no_skew.allow_skew = false;
  ScheduleResult r1 = schedule(p, no_skew);
  EXPECT_FALSE(r1.groups[0].fully_permutable());
  EXPECT_EQ(r1.groups[0].tile_depth(), 1);

  ScheduleResult r2 = schedule(p);  // skew allowed
  const GroupSchedule& g = r2.groups[0];
  EXPECT_TRUE(g.fully_permutable());
  EXPECT_EQ(g.tile_depth(), 2);
  EXPECT_TRUE(g.uses_skew());
}

TEST(Scheduler, OpaqueDependenceForcesIdentity) {
  Problem p;
  p.statements.push_back(stmt(0, 2, rect(8, 8)));
  SchedDep d;
  d.src = d.dst = 0;
  d.pieces.push_back({.domain = rect(8, 8),
                      .label_fn = AffineMap(2, {AffineExpr(2), AffineExpr(2)}),
                      .exact = false,
                      .label_exact = false});
  p.deps.push_back(d);
  ScheduleResult r = schedule(p);
  const GroupSchedule& g = r.groups[0];
  EXPECT_FALSE(g.schedulable);
  ASSERT_EQ(g.levels.size(), 2u);
  // Identity rows, no parallelism claimed, no multi-level band.
  EXPECT_EQ(g.levels[0].row, (std::vector<i64>{1, 0}));
  EXPECT_EQ(g.levels[1].row, (std::vector<i64>{0, 1}));
  EXPECT_FALSE(g.levels[0].parallel);
  EXPECT_EQ(g.tile_depth(), 1);
}

TEST(Scheduler, SmartFuseSeparatesIndependentNests) {
  Problem p;
  p.statements.push_back(stmt(0, 2, rect(8, 8), 500));
  p.statements.push_back(stmt(1, 2, rect(8, 8), 500));
  ScheduleResult smart = schedule(p);  // default smartfuse
  EXPECT_EQ(smart.groups.size(), 2u);

  Options mf;
  mf.fusion = FusionHeuristic::kMaxFuse;
  ScheduleResult fused = schedule(p, mf);
  EXPECT_EQ(fused.groups.size(), 1u);
  EXPECT_EQ(fused.groups[0].stmts.size(), 2u);
}

TEST(Scheduler, DependentStatementsShareAGroup) {
  Problem p;
  p.statements.push_back(stmt(0, 1, Polyhedron::box({{0, 9}})));
  p.statements.push_back(stmt(1, 1, Polyhedron::box({{0, 9}})));
  p.deps.push_back(shift_dep(0, 1, Polyhedron::box({{0, 9}}), {0}));
  ScheduleResult r = schedule(p);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].stmts, (std::vector<int>{0, 1}));
  // Producer-consumer at equal iterations: level parallel? The dependence
  // has distance 0 along the fused loop, so the level is NOT carried but
  // has zero distance -> parallel (it orders within the body).
  EXPECT_TRUE(r.groups[0].levels[0].parallel);
}

TEST(Scheduler, MixedDepthStatements) {
  // An initialization statement (depth 1) fused with a 2-D consumer.
  Problem p;
  p.statements.push_back(stmt(0, 1, Polyhedron::box({{0, 7}})));
  p.statements.push_back(stmt(1, 2, rect(8, 8)));
  // dst (i,j) reads src (i): src_fn = (i).
  SchedDep d;
  d.src = 0;
  d.dst = 1;
  d.pieces.push_back({rect(8, 8), AffineMap(2, {AffineExpr::var(2, 0)})});
  p.deps.push_back(d);
  ScheduleResult r = schedule(p);
  ASSERT_EQ(r.groups.size(), 1u);
  const GroupSchedule& g = r.groups[0];
  EXPECT_EQ(g.levels.size(), 2u);
  EXPECT_TRUE(g.schedulable);
  // Level 0 = i with distance 0 -> parallel.
  EXPECT_TRUE(g.levels[0].parallel);
}

TEST(Scheduler, LoopReversalNotNeededForBackwardDep) {
  // Dynamic dependences always point backward: a "future" read never
  // appears. With dep (i) <- (i-2), the loop carries it at distance 2.
  Problem p;
  p.statements.push_back(stmt(0, 1, Polyhedron::box({{0, 9}})));
  Polyhedron dom = Polyhedron::box({{2, 9}});
  p.deps.push_back(shift_dep(0, 0, dom, {2}));
  ScheduleResult r = schedule(p);
  const GroupSchedule& g = r.groups[0];
  ASSERT_EQ(g.levels.size(), 1u);
  EXPECT_FALSE(g.levels[0].parallel);
  EXPECT_TRUE(g.levels[0].carries);
}

TEST(Scheduler, NumComponentsAppliesOpsThreshold) {
  Problem p;
  p.statements.push_back(stmt(0, 1, Polyhedron::box({{0, 9}}), 9000));
  p.statements.push_back(stmt(1, 1, Polyhedron::box({{0, 9}}), 500));
  p.statements.push_back(stmt(2, 1, Polyhedron::box({{0, 9}}), 500));
  ScheduleResult r = schedule(p);
  EXPECT_EQ(r.groups.size(), 3u);
  // Only the big group exceeds 5% of 10000.
  EXPECT_EQ(r.num_components(0.05, 10000), 1);
  EXPECT_EQ(r.num_components(0.0, 10000), 3);
}

TEST(Scheduler, EmptyProblem) {
  ScheduleResult r = schedule(Problem{});
  EXPECT_TRUE(r.groups.empty());
  EXPECT_EQ(r.num_components(0.05, 0), 0);
}

TEST(Scheduler, InterchangeableLoopsKeepIdentityWhenAllEqual) {
  // No preference pressure: the scheduler picks the identity permutation
  // (candidates are generated unit-vectors-first in index order).
  Problem p;
  p.statements.push_back(stmt(0, 2, rect(4, 4)));
  ScheduleResult r = schedule(p);
  const GroupSchedule& g = r.groups[0];
  EXPECT_EQ(g.levels[0].row, (std::vector<i64>{1, 0}));
  EXPECT_EQ(g.levels[1].row, (std::vector<i64>{0, 1}));
}

TEST(Scheduler, DistributedLoopsUnconstrained) {
  // Two statements in DIFFERENT loops (distinct loop paths) connected by a
  // scrambled dependence: the dependence is satisfied by statement order,
  // so both loops stay parallel and the group remains schedulable even
  // though the dependence labels are opaque.
  Problem p;
  SchedStatement a = stmt(0, 1, Polyhedron::box({{0, 9}}));
  a.loop_path = {0};
  SchedStatement b = stmt(1, 1, Polyhedron::box({{0, 9}}));
  b.loop_path = {1};  // a different loop
  p.statements.push_back(std::move(a));
  p.statements.push_back(std::move(b));
  SchedDep d;
  d.src = 0;
  d.dst = 1;
  d.pieces.push_back({.domain = Polyhedron::box({{0, 9}}),
                      .label_fn = AffineMap(1, {AffineExpr(1)}),
                      .exact = false,
                      .label_exact = false});
  p.deps.push_back(std::move(d));
  ScheduleResult r = schedule(p);
  ASSERT_EQ(r.groups.size(), 1u);  // fused by the dependence edge
  const GroupSchedule& g = r.groups[0];
  EXPECT_TRUE(g.schedulable);
  EXPECT_TRUE(g.levels[0].parallel);
}

TEST(Scheduler, SharedLoopOpaqueDepBlocks) {
  // The same opaque dependence within ONE shared loop is a hard stop.
  Problem p;
  SchedStatement a = stmt(0, 1, Polyhedron::box({{0, 9}}));
  a.loop_path = {0};
  SchedStatement b = stmt(1, 1, Polyhedron::box({{0, 9}}));
  b.loop_path = {0};  // same loop
  p.statements.push_back(std::move(a));
  p.statements.push_back(std::move(b));
  SchedDep d;
  d.src = 0;
  d.dst = 1;
  d.pieces.push_back({.domain = Polyhedron::box({{0, 9}}),
                      .label_fn = AffineMap(1, {AffineExpr(1)}),
                      .exact = false,
                      .label_exact = false});
  p.deps.push_back(std::move(d));
  ScheduleResult r = schedule(p);
  EXPECT_FALSE(r.groups[0].schedulable);
}

TEST(Scheduler, IdentityOnlyKeepsOriginalOrder) {
  // With skew available, the seidel nest would pick a skewed second row;
  // identity-only must keep (1,0),(0,1) and lose the band.
  Problem p;
  p.statements.push_back(stmt(0, 2, rect(10, 10)));
  p.deps.push_back(shift_dep(0, 0, rect(10, 10), {1, 0}));
  p.deps.push_back(shift_dep(0, 0, rect(10, 10), {0, 1}));
  p.deps.push_back(shift_dep(0, 0, rect(10, 10), {1, -1}));
  Options o;
  o.identity_only = true;
  ScheduleResult r = schedule(p, o);
  const GroupSchedule& g = r.groups[0];
  EXPECT_EQ(g.levels[0].row, (std::vector<i64>{1, 0}));
  EXPECT_EQ(g.levels[1].row, (std::vector<i64>{0, 1}));
  EXPECT_FALSE(g.uses_skew());
  EXPECT_EQ(g.tile_depth(), 1);
}

}  // namespace
}  // namespace pp::scheduler
