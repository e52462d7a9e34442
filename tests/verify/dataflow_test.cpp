#include "verify/dataflow.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"

namespace pp::verify {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Reg;

TEST(BitVec, TransferAndMeet) {
  BitVec a(130), b(130);
  a.set(0);
  a.set(129);
  b.set(129);
  b.set(64);
  BitVec u = a;
  u.union_with(b);
  EXPECT_TRUE(u.test(0));
  EXPECT_TRUE(u.test(64));
  EXPECT_TRUE(u.test(129));
  BitVec i = a;
  i.intersect_with(b);
  EXPECT_FALSE(i.test(0));
  EXPECT_FALSE(i.test(64));
  EXPECT_TRUE(i.test(129));
}

/// Diamond CFG: e -> {t, el} -> j.
struct Diamond {
  Module m;
  Function* f;
  int e, t, el, j;
  Reg cond, x;

  Diamond() {
    f = &m.add_function("f", 1);
    Builder b(m, *f);
    e = b.make_block();
    t = b.make_block();
    el = b.make_block();
    j = b.make_block();
    b.set_block(e);
    cond = b.const_(0);   // e:0
    x = b.fresh();
    b.br_cond(cond, t, el);  // e:1
    b.set_block(t);
    b.const_(5, x);       // t:0 — x defined on the then path only
    b.br(j);              // t:1
    b.set_block(el);
    b.br(j);              // el:0
    b.set_block(j);
    b.mov(x);             // j:0 — use of x
    b.ret();              // j:1
  }
};

TEST(BlockGraph, SuccsPredsAndRpo) {
  Diamond d;
  BlockGraph g(*d.f);
  ASSERT_EQ(g.num_blocks(), 4u);
  EXPECT_EQ(g.succs[static_cast<std::size_t>(d.e)].size(), 2u);
  EXPECT_EQ(g.preds[static_cast<std::size_t>(d.j)].size(), 2u);
  // RPO starts at the entry and visits everything (all reachable).
  ASSERT_EQ(g.rpo.size(), 4u);
  EXPECT_EQ(g.rpo.front(), d.e);
  for (int bb = 0; bb < 4; ++bb) EXPECT_TRUE(g.reachable(bb));
}

TEST(BlockGraph, UnreachableBlockDetected) {
  Module m;
  Function& f = m.add_function("f", 0);
  Builder b(m, f);
  int e = b.make_block();
  int dead = b.make_block();
  b.set_block(e);
  b.ret();
  b.set_block(dead);
  b.ret();
  BlockGraph g(f);
  EXPECT_TRUE(g.reachable(e));
  EXPECT_FALSE(g.reachable(dead));
}

TEST(MustDefined, EntryDefDominatesEveryBlock) {
  Diamond d;
  BlockGraph g(*d.f);
  MustDefined md(*d.f, g);
  // cond is written at e:0, and e dominates every block.
  EXPECT_FALSE(md.defined_before(d.e, 0, d.cond));
  EXPECT_TRUE(md.defined_before(d.e, 1, d.cond));
  EXPECT_TRUE(md.defined_before(d.t, 0, d.cond));
  EXPECT_TRUE(md.defined_before(d.el, 0, d.cond));
  EXPECT_TRUE(md.defined_before(d.j, 0, d.cond));
  // x is never written on the else arm.
  EXPECT_FALSE(md.defined_before(d.el, 0, d.x));
}

TEST(ReachingDefs, OneArmDefReachesJoin) {
  Diamond d;
  BlockGraph g(*d.f);
  ReachingDefs rd(*d.f, g);
  // The then-arm def of x reaches the use at the join through t:1; the
  // entry def of cond reaches both arms and the join.
  EXPECT_TRUE(rd.def_reaches(d.t, 0, d.t, 1));
  EXPECT_TRUE(rd.def_reaches(d.t, 0, d.j, 0));
  EXPECT_FALSE(rd.def_reaches(d.t, 0, d.el, 0));
  EXPECT_TRUE(rd.def_reaches(d.e, 0, d.el, 0));
  EXPECT_TRUE(rd.def_reaches(d.e, 0, d.j, 0));
  // A branch defines nothing.
  EXPECT_FALSE(rd.def_reaches(d.e, 1, d.j, 0));
}

TEST(ReachingDefs, KilledAndMergedDefs) {
  Module m;
  Function& f = m.add_function("f", 0);
  Builder b(m, f);
  int e = b.make_block();
  int t = b.make_block();
  int j = b.make_block();
  b.set_block(e);
  Reg x = b.const_(1);   // e:0 first def of x
  Reg c = b.const_(0);   // e:1
  b.br_cond(c, t, j);    // e:2
  b.set_block(t);
  b.const_(2, x);        // t:0 redefinition
  b.br(j);               // t:1
  b.set_block(j);
  b.mov(x);              // j:0 use
  b.ret();               // j:1

  BlockGraph g(f);
  ReachingDefs rd(f, g);
  // Both defs merge at the join point.
  EXPECT_TRUE(rd.def_reaches(e, 0, j, 0));
  EXPECT_TRUE(rd.def_reaches(t, 0, j, 0));
  // The entry def is killed by t:0 before t's terminator.
  EXPECT_FALSE(rd.def_reaches(e, 0, t, 1));
}

TEST(ReachingDefs, LoopCarriedSelfUse) {
  // acc = acc + 1 inside a loop: the def at the add reaches its own use
  // around the back edge.
  Module m;
  Function& f = m.add_function("f", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg acc = b.const_(0);
  Reg n = b.const_(4);
  b.counted_loop(0, n, 1, [&](Reg) {
    b.addi(acc, 1, acc);  // body:0
  });
  b.ret(acc);
  BlockGraph g(f);
  ReachingDefs rd(f, g);
  // Locate the addi site: the single-instruction body block.
  int body = -1;
  for (const auto& bb : f.blocks)
    if (!bb.instrs.empty() && bb.instrs[0].op == ir::Op::kAddI &&
        bb.instrs[0].dst == acc)
      body = bb.id;
  ASSERT_GE(body, 0);
  EXPECT_TRUE(rd.def_reaches(body, 0, body, 0));
}

TEST(MustDefined, OneSidedDefDoesNotDominateJoin) {
  Diamond d;
  BlockGraph g(*d.f);
  MustDefined md(*d.f, g);
  // The function argument r0 is defined everywhere.
  EXPECT_TRUE(md.defined_before(d.j, 0, 0));
  // x is defined on the then path only: not must-defined at the join.
  EXPECT_FALSE(md.defined_before(d.j, 0, d.x));
  // But it IS defined after t:0 within t.
  EXPECT_TRUE(md.defined_before(d.t, 1, d.x));
}

TEST(InstrUses, StoreReadsBothOperands) {
  ir::Instr st;
  st.op = ir::Op::kStore;
  st.a = 3;
  st.b = 7;
  auto uses = ir::read_regs(st);
  ASSERT_EQ(uses.size(), 2u);
  EXPECT_FALSE(ir::writes_reg(st));
}

}  // namespace
}  // namespace pp::verify
