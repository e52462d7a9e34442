#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "feedback/flamegraph.hpp"
#include "ir/builder.hpp"

namespace pp::core {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

// A layerforward-shaped kernel (paper Fig. 6): for each j, sum over k of
// conn[k][j] * l1[k], stored to l2[j]. n2 columns, n1 rows.
Module layerforward_module(i64 n1, i64 n2) {
  Module m;
  i64 conn = m.add_global("conn", n1 * n2 * 8);
  i64 l1 = m.add_global("l1", n1 * 8);
  i64 l2 = m.add_global("l2", n2 * 8);
  Function& f = m.add_function("main", 0, "backprop.c");
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg connr = b.const_(conn);
  Reg l1r = b.const_(l1);
  Reg l2r = b.const_(l2);
  Reg n1r = b.const_(n1);
  Reg n2r = b.const_(n2);
  b.set_line(253);
  b.counted_loop(0, n2r, 1, [&](Reg j) {
    Reg sum = b.fconst(0.0);
    b.set_line(254);
    b.counted_loop(0, n1r, 1, [&](Reg k) {
      // tmp1 = &conn[k][0]; tmp2 = conn[k][j]; tmp3 = l1[k]
      Reg rowoff = b.muli(k, n2 * 8);
      Reg rowptr = b.add(connr, rowoff);
      Reg joff = b.muli(j, 8);
      Reg cellptr = b.add(rowptr, joff);
      Reg tmp2 = b.load(cellptr);
      Reg koff = b.muli(k, 8);
      Reg l1ptr = b.add(l1r, koff);
      Reg tmp3 = b.load(l1ptr);
      Reg prod = b.fmul(tmp2, tmp3);
      b.fadd(sum, prod, sum);
    });
    b.set_line(256);
    Reg joff = b.muli(j, 8);
    Reg outptr = b.add(l2r, joff);
    b.store(outptr, sum);
  });
  b.ret();
  return m;
}

TEST(Pipeline, RunsEndToEnd) {
  Module m = layerforward_module(8, 4);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  EXPECT_GT(r.statements.size(), 0u);
  EXPECT_GT(r.program.total_dynamic_ops, 0u);
  EXPECT_GT(r.schedule_tree.total_weight(), 0u);
  EXPECT_EQ(r.schedule_tree.total_weight(), r.program.total_dynamic_ops);
}

TEST(Pipeline, LayerforwardMostlyAffine) {
  Module m = layerforward_module(8, 4);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  EXPECT_GT(r.percent_affine(), 60.0);
}

TEST(Pipeline, HotRegionFindsTheNest) {
  Module m = layerforward_module(16, 8);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  auto regions = r.hot_regions(0.05);
  ASSERT_GE(regions.size(), 1u);
  // The hottest region is the 2-D nest in backprop.c.
  EXPECT_NE(regions[0].name.find("backprop.c"), std::string::npos);
  u64 ops = 0;
  for (int id : regions[0].stmts) ops += r.program.stmt(id).meta.executions;
  EXPECT_GT(ops, r.program.total_dynamic_ops / 2);
}

TEST(Pipeline, LayerforwardFeedbackMatchesPaperCaseStudy) {
  // Paper Table 3, L_layer row: fully permutable 2-D nest, only the
  // outermost loop parallel, interchange suggested for stride, reduction
  // scalar to expand.
  Module m = layerforward_module(16, 8);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  auto regions = r.hot_regions(0.05);
  ASSERT_GE(regions.size(), 1u);
  feedback::RegionMetrics mx = r.analyze(regions[0]);

  EXPECT_EQ(mx.max_loop_depth, 2);
  EXPECT_EQ(mx.tile_depth, 2);          // fully permutable
  EXPECT_FALSE(mx.skew_used);
  EXPECT_TRUE(mx.schedulable);
  EXPECT_GT(mx.parallel_ops, 0u);       // j loop parallel
  // The stride-friendly dimension is j (column index): interchange raises
  // reuse, so potential reuse strictly exceeds current reuse.
  EXPECT_GT(mx.preuse_mem_ops, mx.reuse_mem_ops);
  bool has_interchange = false, has_expand = false;
  for (const auto& s : mx.suggestions) {
    if (s.find("interchange") != std::string::npos) has_interchange = true;
    if (s.find("array-expand") != std::string::npos) has_expand = true;
  }
  EXPECT_TRUE(has_interchange);
  EXPECT_TRUE(has_expand);
  EXPECT_GT(mx.est_speedup, 1.0);
}

TEST(Pipeline, AstAndSummaryRender) {
  Module m = layerforward_module(8, 4);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  auto regions = r.hot_regions(0.05);
  ASSERT_GE(regions.size(), 1u);
  feedback::RegionMetrics mx = r.analyze(regions[0]);
  std::string ast = feedback::render_ast(mx, r.program, &m);
  EXPECT_NE(ast.find("for t0"), std::string::npos);
  EXPECT_NE(ast.find("backprop.c"), std::string::npos);
  std::string sum = feedback::summarize(mx);
  EXPECT_NE(sum.find("estimated speedup"), std::string::npos);
}

TEST(Pipeline, FlameGraphRenders) {
  Module m = layerforward_module(8, 4);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  std::string svg =
      feedback::render_flamegraph_svg(r.schedule_tree, &m);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("loop"), std::string::npos);
  std::string ascii =
      feedback::render_flamegraph_ascii(r.schedule_tree, &m);
  EXPECT_NE(ascii.find("loop"), std::string::npos);
}

TEST(Pipeline, WholeProgramRegion) {
  Module m = layerforward_module(4, 4);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  feedback::Region whole = r.whole_program();
  EXPECT_EQ(whole.stmts.size(), r.program.statements.size());
  feedback::RegionMetrics mx = r.analyze(whole);
  EXPECT_EQ(mx.ops, r.program.total_dynamic_ops);
}

TEST(Pipeline, CctCapturedDuringStage1) {
  Module m = layerforward_module(4, 4);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  EXPECT_GE(r.cct.size(), 1u);
}

TEST(Pipeline, RecursiveProgramProfilesFlat) {
  // Recursive sum over an array: the recursive component folds the call
  // chain into a 1-D domain instead of a depth-proportional context.
  Module m;
  i64 g = m.add_global("a", 32 * 8);
  Function& rec = m.add_function("recsum", 2);  // (idx, acc-ptr-ish) -> sum
  {
    Builder b(m, rec);
    int entry = b.make_block();
    int base = b.make_block();
    int step = b.make_block();
    b.set_block(entry);
    Reg n = b.const_(32);
    Reg done = b.cmp(Op::kCmpGe, 0, n);
    b.br_cond(done, base, step);
    b.set_block(base);
    Reg z = b.const_(0);
    b.ret(z);
    b.set_block(step);
    Reg off = b.muli(0, 8);
    Reg baseaddr = b.const_(g);
    Reg p = b.add(baseaddr, off);
    Reg v = b.load(p);
    Reg next = b.addi(0, 1);
    Reg sub = b.call(rec, {next, 1}, true);
    Reg s = b.add(v, sub);
    b.ret(s);
  }
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg zero = b.const_(0);
  Reg res = b.call(rec, {zero, zero}, true);
  b.ret(res);

  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  // The recursive component exists.
  EXPECT_EQ(r.control.rcs.components().size(), 1u);
  // The load inside the recursion has a 1-dimensional folded domain with
  // 32 points (one per recursion level).
  bool found = false;
  for (const auto& s : r.program.statements) {
    if (s.meta.op != Op::kLoad) continue;
    EXPECT_EQ(s.meta.depth, 1u);
    ASSERT_EQ(s.domain.pieces().size(), 1u);
    EXPECT_EQ(s.domain.pieces()[0].observed_points, 32u);
    found = true;
  }
  EXPECT_TRUE(found);
  // And the CCT (for contrast) is deep.
  EXPECT_GT(r.cct.max_depth(), 30);
}

TEST(Pipeline, RejectsIllFormedModuleBeforeExecution) {
  // A dangling branch target: the verifier must reject the module with a
  // structured diagnostic and the VM must never start.
  Module m = layerforward_module(4, 4);
  for (auto& bb : m.functions[0].blocks)
    if (!bb.instrs.empty() && bb.instrs.back().op == Op::kBr)
      bb.instrs.back().imm = 99;

  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.stats.instructions, 0u) << "VM ran on an ill-formed module";
  EXPECT_TRUE(r.program.statements.empty());
  std::string diag = r.diagnostics.render();
  EXPECT_NE(diag.find("dangling-branch-target"), std::string::npos) << diag;
  EXPECT_NE(diag.find("module rejected"), std::string::npos) << diag;
}

TEST(Pipeline, VerifierOptOutProfilesAnyway) {
  // use-before-def is harmless at runtime (registers are zero-initialized)
  // but ill-formed, and there is no opt-out: the module is rejected
  // before the VM starts.
  Module m = layerforward_module(4, 4);
  Function& f = m.functions[0];
  ir::Instr use;
  use.op = Op::kMov;
  use.dst = f.num_regs;
  use.a = f.num_regs;
  f.num_regs += 1;
  auto& entry = f.blocks.front().instrs;
  entry.insert(entry.begin(), use);

  Pipeline strict(m);
  ProfileResult rejected = strict.run();
  EXPECT_TRUE(rejected.truncated);
  EXPECT_EQ(rejected.stats.instructions, 0u);
}

}  // namespace
}  // namespace pp::core
