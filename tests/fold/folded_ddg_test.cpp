#include "fold/folded_ddg.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"

namespace pp::fold {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

struct Pipeline {
  cfg::ControlStructure cs;
  std::unique_ptr<ddg::DdgBuilder> builder;
  FoldedProgram prog;
};

void run(const Module& m, Pipeline& p, FolderOptions fopts = {}) {
  {
    vm::Machine machine(m);
    cfg::DynamicCfgBuilder dyn;
    machine.set_observer(&dyn);
    machine.run("main");
    p.cs = cfg::ControlStructure::build(dyn, {m.find_function("main")->id});
  }
  FoldingSink sink(fopts);
  {
    vm::Machine machine(m);
    p.builder = std::make_unique<ddg::DdgBuilder>(m, p.cs, &sink);
    machine.set_observer(p.builder.get());
    machine.run("main");
  }
  p.prog = sink.finalize(p.builder->statements());
}

// a[i] = i for i in 0..n-1, then s += a[i] in a second loop.
Module two_loop_module(i64 n) {
  Module m;
  i64 g = m.add_global("a", n * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg nreg = b.const_(n);
  b.counted_loop(0, nreg, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg ptr = b.add(base, off);
    b.store(ptr, iv);
  });
  Reg acc = b.const_(0);
  b.counted_loop(0, nreg, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg ptr = b.add(base, off);
    Reg v = b.load(ptr);
    b.add(acc, v, acc);
  });
  b.ret(acc);
  return m;
}

TEST(FoldedDdg, InductionArithmeticRecognizedAsScev) {
  Module m = two_loop_module(16);
  Pipeline p;
  run(m, p);
  // The muli (iv * 8) statements produce affine values of the iteration
  // vector -> SCEV.
  int scev_mulis = 0;
  for (const auto& s : p.prog.statements) {
    if (s.meta.op == Op::kMulI && s.meta.depth == 1) {
      EXPECT_TRUE(s.is_scev);
      ++scev_mulis;
    }
  }
  EXPECT_EQ(scev_mulis, 2);
  EXPECT_GT(p.prog.pruned_dep_edges, 0u);
}

TEST(FoldedDdg, LoadsAndStoresAreNeverScev) {
  Module m = two_loop_module(16);
  Pipeline p;
  run(m, p);
  for (const auto& s : p.prog.statements) {
    if (s.meta.is_memory) {
      EXPECT_FALSE(s.is_scev);
    }
  }
}

TEST(FoldedDdg, AccessFunctionsFoldToStridedAffine) {
  Module m = two_loop_module(16);
  Pipeline p;
  run(m, p);
  int strided = 0;
  for (const auto& s : p.prog.statements) {
    if (!s.meta.is_memory || s.meta.depth != 1) continue;
    const poly::AffineMap* fn = s.affine_access();
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(s.stride_along(0).value(), 8);  // unit (8-byte) stride
    ++strided;
  }
  EXPECT_EQ(strided, 2);  // the store and the load
}

TEST(FoldedDdg, MemFlowDependenceFoldsToIdentityMap) {
  // Producer loop writes a[i], consumer loop reads a[i]: the folded
  // dependence relation maps consumer i -> producer i.
  Module m = two_loop_module(12);
  Pipeline p;
  run(m, p);
  bool found = false;
  for (const auto& d : p.prog.deps) {
    const auto& src = p.prog.stmt(d.src).meta;
    const auto& dst = p.prog.stmt(d.dst).meta;
    if (src.op == Op::kStore && dst.op == Op::kLoad) {
      ASSERT_EQ(d.relation.pieces().size(), 1u);
      const auto& piece = d.relation.pieces()[0];
      EXPECT_TRUE(piece.exact);
      EXPECT_EQ(piece.observed_points, 12u);
      // src coords = identity of dst coords.
      EXPECT_EQ(piece.label_fn.output(0).coeff(0), 1);
      EXPECT_EQ(piece.label_fn.output(0).const_term(), 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FoldedDdg, ReductionDependenceHasDistanceOne) {
  // acc += v: the add at iteration i reads the add at iteration i-1.
  Module m = two_loop_module(12);
  Pipeline p;
  run(m, p);
  bool found = false;
  for (const auto& d : p.prog.deps) {
    const auto& src = p.prog.stmt(d.src).meta;
    const auto& dst = p.prog.stmt(d.dst).meta;
    if (src.op == Op::kAdd && dst.op == Op::kAdd && d.src == d.dst) {
      for (const auto& piece : d.relation.pieces()) {
        if (piece.label_fn.out_dim() == 1 &&
            piece.label_fn.output(0).coeff(0) == 1 &&
            piece.label_fn.output(0).const_term() == -1)
          found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(FoldedDdg, FullyAffineOpsCountsNonPointerChasingCode) {
  Module m = two_loop_module(16);
  Pipeline p;
  run(m, p);
  // The whole program is affine: the %Aff numerator should cover most
  // dynamic ops (everything except potentially boundary statements).
  EXPECT_GT(p.prog.fully_affine_ops(), p.prog.total_dynamic_ops / 2);
  EXPECT_LE(p.prog.fully_affine_ops(), p.prog.total_dynamic_ops);
}

TEST(FoldedDdg, PointerChasingIsNotAffine) {
  // Linked-list walk: addresses are loaded from memory, not affine in i.
  Module m;
  // nodes: [next, value] pairs; node k at offset 16k points to node k+1
  // pseudo-randomly shuffled to break affinity.
  std::vector<i64> words;
  const int n = 8;
  std::vector<int> order = {3, 6, 1, 7, 4, 0, 5, 2};
  words.resize(2 * n);
  for (int k = 0; k < n; ++k) {
    int nxt = (k + 1 < n) ? order[static_cast<std::size_t>(k + 1)] : -1;
    words[2 * static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] =
        nxt < 0 ? -1 : nxt * 16;
    words[2 * static_cast<std::size_t>(order[static_cast<std::size_t>(k)]) + 1] =
        k;
  }
  Module mm;
  (void)mm;
  i64 g = m.add_global_init("nodes", words);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  int entry = b.make_block();
  int header = b.make_block();
  int body = b.make_block();
  int exit_bb = b.make_block();
  b.set_block(entry);
  Reg cur = b.fresh();
  b.const_(g + order[0] * 16, cur);
  Reg acc = b.const_(0);
  Reg minus1 = b.const_(-1);
  b.br(header);
  b.set_block(header);
  Reg done = b.cmp(Op::kCmpEq, cur, minus1);
  b.br_cond(done, exit_bb, body);
  b.set_block(body);
  Reg v = b.load(cur, 8);
  b.add(acc, v, acc);
  Reg nxt = b.load(cur, 0);
  Reg goff = b.const_(g);
  Reg isend = b.cmp(Op::kCmpEq, nxt, minus1);
  int adv = b.make_block();
  int back = b.make_block();
  b.br_cond(isend, back, adv);
  b.set_block(adv);
  b.add(nxt, goff, cur);
  b.br(header);
  b.set_block(back);
  b.mov(minus1, cur);
  b.br(header);
  b.set_block(exit_bb);
  b.ret(acc);

  Pipeline p;
  run(m, p);
  // The value-load's addresses must NOT fold to a single exact affine
  // piece.
  bool checked = false;
  for (const auto& s : p.prog.statements) {
    if (s.meta.op == Op::kLoad && s.meta.depth == 1) {
      EXPECT_EQ(s.affine_access(), nullptr);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
  EXPECT_LT(p.prog.fully_affine_ops(), p.prog.total_dynamic_ops);
}

TEST(FoldedDdg, InterproceduralTwoDimensionalDomain) {
  // Outer loop in main calls kernel(i) which loops nj times storing into
  // a[i][j]: the store's folded domain is the full 2-D rectangle even
  // though the two loops live in different functions.
  const i64 ni = 5, nj = 7;
  Module m;
  i64 g = m.add_global("a", ni * nj * 8);
  Function& kernel = m.add_function("kernel", 1);
  {
    Builder b(m, kernel);
    b.set_block(b.make_block());
    Reg base = b.const_(g);
    Reg njr = b.const_(nj);
    Reg rowoff = b.muli(0, nj * 8);
    b.counted_loop(0, njr, 1, [&](Reg jv) {
      Reg off = b.muli(jv, 8);
      Reg ptr = b.add(base, off);
      Reg ptr2 = b.add(ptr, rowoff);
      b.store(ptr2, jv);
    });
    b.ret();
  }
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg nir = b.const_(ni);
  b.counted_loop(0, nir, 1, [&](Reg iv) { b.call(kernel, {iv}); });
  b.ret();

  Pipeline p;
  run(m, p);
  bool found = false;
  for (const auto& s : p.prog.statements) {
    if (s.meta.op != Op::kStore) continue;
    EXPECT_EQ(s.meta.depth, 2u);
    ASSERT_EQ(s.domain.pieces().size(), 1u);
    const auto& piece = s.domain.pieces()[0];
    EXPECT_TRUE(piece.exact);
    EXPECT_EQ(piece.observed_points, static_cast<u64>(ni * nj));
    // Access function: 56i + 8j + base.
    const poly::AffineMap* fn = s.affine_access();
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->output(0).coeff(0), nj * 8);
    EXPECT_EQ(fn->output(0).coeff(1), 8);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FoldedDdg, MustRelationKeepsOnlyExactPieces) {
  // Affine program: every dependence piece is exact, so the must-relation
  // equals the full relation and covers every observed instance.
  Module m = two_loop_module(12);
  Pipeline p;
  run(m, p);
  ASSERT_FALSE(p.prog.deps.empty());
  for (const auto& d : p.prog.deps) {
    if (!d.relation.all_exact()) continue;
    EXPECT_EQ(d.must_relation().pieces().size(), d.relation.pieces().size());
    EXPECT_EQ(d.must_relation().total_observed(), d.relation.total_observed());
  }
}

TEST(FoldedDdg, MustCoverageDropsForScrambledDeps) {
  // A permutation scatter/gather in one loop: the dependence collapses to
  // an over-approximate piece, so its must-relation covers fewer observed
  // instances than the full relation.
  const i64 n = 160;
  Module m;
  std::vector<i64> perm(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    perm[static_cast<std::size_t>(i)] = (i * 79) % n;
  i64 g_perm = m.add_global_init("perm", perm);
  std::vector<i64> init(static_cast<std::size_t>(n), 1);
  i64 g_scr = m.add_global_init("scratch", init);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg pbase = b.const_(g_perm);
  Reg sbase = b.const_(g_scr);
  Reg nr = b.const_(n);
  Reg acc = b.const_(0);
  b.counted_loop(0, nr, 1, [&](Reg i) {
    Reg ioff = b.muli(i, 8);
    Reg rp = b.add(sbase, ioff);
    Reg v = b.load(rp);
    b.add(acc, v, acc);
    Reg poff = b.muli(i, 8);
    Reg pp = b.add(pbase, poff);
    Reg tgt = b.load(pp);
    Reg toff = b.muli(tgt, 8);
    Reg sp = b.add(sbase, toff);
    b.store(sp, acc);
  });
  b.ret(acc);

  Pipeline p;
  run(m, p);
  bool found = false;
  for (const auto& d : p.prog.deps) {
    const auto& src = p.prog.stmt(d.src).meta;
    const auto& dst = p.prog.stmt(d.dst).meta;
    if (src.op != Op::kStore || dst.op != Op::kLoad) continue;
    found = true;
    EXPECT_LT(d.must_relation().total_observed(), d.relation.total_observed());
    EXPECT_LT(d.must_relation().pieces().size(), d.relation.pieces().size());
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pp::fold
