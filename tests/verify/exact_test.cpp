#include "verify/exact.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "workloads/workloads.hpp"

namespace pp::verify::exact {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Reg;

int last_instr(const Function& f, int block) {
  return static_cast<int>(
             f.blocks[static_cast<std::size_t>(block)].instrs.size()) -
         1;
}

/// 2-D stencil with a fixed row stride:
///   for (i = 1..N) for (j = 1..N) A[i][j] = A[i-1][j] + A[i][j-1]
/// The canonical interchange-blocking example: flow deps (1,0) and (0,1).
/// Rows are kRow (> 2N) elements wide so the one-step-widened IV ranges
/// cannot let distinct (di, dj) combinations reach the same byte offset.
struct Stencil2D {
  static constexpr i64 kN = 8;
  static constexpr i64 kRow = 24;
  Module m;
  int store_b = -1, store_i = -1;
  int up_b = -1, up_i = -1;     // A[i-1][j]
  int left_b = -1, left_i = -1; // A[i][j-1]

  Stencil2D() {
    const i64 g = m.add_global("A", (kN + 1) * kRow * 8);
    Function& f = m.add_function("main", 0);
    Builder b(m, f);
    b.set_block(b.make_block());
    Reg base = b.const_(g);
    Reg n = b.const_(kN);
    b.counted_loop(1, n, 1, [&](Reg i) {
      b.counted_loop(1, n, 1, [&](Reg j) {
        Reg p = b.add(base, b.add(b.muli(i, kRow * 8), b.muli(j, 8)));
        Reg up = b.load(p, -kRow * 8);
        up_b = b.current_block();
        up_i = last_instr(f, up_b);
        Reg left = b.load(p, -8);
        left_b = b.current_block();
        left_i = last_instr(f, left_b);
        b.store(p, b.add(up, left));
        store_b = b.current_block();
        store_i = last_instr(f, store_b);
      });
    });
    b.ret();
  }
};

TEST(DepVectorGolden, InterchangeStencilDistances) {
  Stencil2D st;
  const ExactDeps ex(st.m, st.m.functions[0]);

  // Store A[i][j] feeds the A[i-1][j] read one outer iteration later.
  const auto up = ex.dep_vector(st.store_b, st.store_i, st.up_b, st.up_i);
  ASSERT_TRUE(up.has_value());
  ASSERT_EQ(up->loops.size(), 2u);
  EXPECT_EQ(up->dirs, "<=");
  ASSERT_TRUE(up->dist[0].has_value());
  ASSERT_TRUE(up->dist[1].has_value());
  EXPECT_EQ(*up->dist[0], 1);
  EXPECT_EQ(*up->dist[1], 0);

  // ... and the A[i][j-1] read one inner iteration later.
  const auto left =
      ex.dep_vector(st.store_b, st.store_i, st.left_b, st.left_i);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->dirs, "=<");
  EXPECT_EQ(*left->dist[0], 0);
  EXPECT_EQ(*left->dist[1], 1);
}

TEST(DepVectorGolden, DiagonalTileKernel) {
  // for (i = 1..N) for (j = 1..N) A[i][j] = A[i-1][j-1]: one diagonal flow
  // dep, distance (1,1) — the classic legal-to-tile shape. Wide rows for
  // the same reason as in Stencil2D.
  constexpr i64 kN = 8;
  constexpr i64 kRow = 24;
  Module m;
  const i64 g = m.add_global("A", (kN + 1) * kRow * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(kN);
  int sb = -1, si = -1, lb = -1, li = -1;
  b.counted_loop(1, n, 1, [&](Reg i) {
    b.counted_loop(1, n, 1, [&](Reg j) {
      Reg p = b.add(base, b.add(b.muli(i, kRow * 8), b.muli(j, 8)));
      Reg d = b.load(p, -kRow * 8 - 8);
      lb = b.current_block();
      li = last_instr(f, lb);
      b.store(p, d);
      sb = b.current_block();
      si = last_instr(f, sb);
    });
  });
  b.ret();

  const ExactDeps ex(m, f);
  const auto dv = ex.dep_vector(sb, si, lb, li);
  ASSERT_TRUE(dv.has_value());
  EXPECT_EQ(dv->dirs, "<<");
  ASSERT_TRUE(dv->dist[0].has_value());
  ASSERT_TRUE(dv->dist[1].has_value());
  EXPECT_EQ(*dv->dist[0], 1);
  EXPECT_EQ(*dv->dist[1], 1);
}

/// a[2i] store, a[2i] load, a[2i+1] load — the stride pair the rational
/// tester cannot separate but the integer test can.
struct EvenOdd {
  Module m;
  int store_b = -1, store_i = -1;
  int even_b = -1, even_i = -1;
  int odd_b = -1, odd_i = -1;

  EvenOdd() {
    const i64 g = m.add_global("a", 400);
    Function& f = m.add_function("main", 0);
    Builder b(m, f);
    b.set_block(b.make_block());
    Reg base = b.const_(g);
    Reg n = b.const_(10);
    b.counted_loop(0, n, 1, [&](Reg iv) {
      Reg p = b.add(base, b.muli(iv, 16));
      b.store(p, iv);
      store_b = b.current_block();
      store_i = last_instr(f, store_b);
      b.load(p);
      even_b = b.current_block();
      even_i = last_instr(f, even_b);
      b.load(p, 8);
      odd_b = b.current_block();
      odd_i = last_instr(f, odd_b);
    });
    b.ret();
  }
};

TEST(PairVerdicts, StrideDisjointIsIndependent) {
  EvenOdd eo;
  const ExactDeps ex(eo.m, eo.m.functions[0]);
  EXPECT_EQ(ex.pair_verdict(eo.store_b, eo.store_i, eo.odd_b, eo.odd_i),
            PairVerdict::kIndependent);
  EXPECT_EQ(ex.pair_verdict(eo.store_b, eo.store_i, eo.even_b, eo.even_i),
            PairVerdict::kDependent);
  // Self pairs carry no verdict: instance-distinctness is not modeled.
  EXPECT_EQ(ex.pair_verdict(eo.store_b, eo.store_i, eo.store_b, eo.store_i),
            PairVerdict::kUnknown);
}

TEST(SiteClasses, CleanAffineSitesAreStaticExact) {
  EvenOdd eo;
  const ExactDeps ex(eo.m, eo.m.functions[0]);
  EXPECT_EQ(ex.site_class(eo.store_b, eo.store_i),
            statican::AccessClass::kStaticExact);
  EXPECT_EQ(ex.site_class(eo.even_b, eo.even_i),
            statican::AccessClass::kStaticExact);
  const ExactDeps::Summary s = ex.summary();
  EXPECT_EQ(s.classes[0], 3);
  EXPECT_EQ(s.classes[1], 0);
  EXPECT_EQ(s.classes[2], 0);
  EXPECT_EQ(s.pairs, 2u);  // store-even and store-odd (load-load skipped)
  EXPECT_GE(s.independent, 1u);
  EXPECT_GE(s.dependent, 1u);
}

TEST(SiteClasses, UndecidablePartnerDowngradesCandidates) {
  // A non-affine access (iv*iv) in a LATER loop makes the store's pair
  // with it undecidable: the store's own block is clean (a kStaticExact
  // candidate), but the exact pass must drop it to weakly-dynamic.
  Module m;
  const i64 g = m.add_global("a", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(5);
  int ob = -1, oi = -1, sb = -1, si = -1;
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg q = b.add(base, b.muli(iv, 8));
    b.store(q, iv);
    sb = b.current_block();
    si = last_instr(f, sb);
  });
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg p = b.add(base, b.mul(iv, iv));
    b.load(p);
    ob = b.current_block();
    oi = last_instr(f, ob);
  });
  b.ret();

  const ExactDeps ex(m, f);
  EXPECT_EQ(ex.site_class(ob, oi), statican::AccessClass::kDynamicRequired);
  EXPECT_EQ(ex.site_class(sb, si), statican::AccessClass::kWeaklyDynamic);
}

// --- selective plan -----------------------------------------------------

TEST(SelectivePlan, DisjointArraysAreSkippable) {
  // out[i] = a[i] + b[i] over three disjoint globals: three dependence-free
  // components (two load-only, one store-only), every site skippable.
  Module m;
  const i64 ga = m.add_global("a", 128);
  const i64 gb = m.add_global("b", 128);
  const i64 go = m.add_global("out", 128);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg ra = b.const_(ga);
  Reg rb = b.const_(gb);
  Reg ro = b.const_(go);
  Reg n = b.const_(10);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg x = b.load(b.add(ra, off));
    Reg y = b.load(b.add(rb, off));
    b.store(b.add(ro, off), b.add(x, y));
  });
  b.ret();

  const ddg::SelectivePlan plan = compute_selective_plan(m);
  EXPECT_TRUE(plan.poison_reason.empty());
  EXPECT_EQ(plan.total_sites(), 3u);
  EXPECT_EQ(plan.groups, 3u);
}

TEST(SelectivePlan, OverlappingDependentPairBlocksItsComponent) {
  EvenOdd eo;
  // store a[2i] and load a[2i] conflict: their shared component is not
  // dependence-free, and it also swallows the independent odd load.
  const ddg::SelectivePlan plan = compute_selective_plan(eo.m);
  EXPECT_TRUE(plan.poison_reason.empty());
  EXPECT_EQ(plan.total_sites(), 0u);
  EXPECT_EQ(plan.groups, 0u);
}

TEST(SelectivePlan, StrideInterleavedButIndependentIsSkippable) {
  // store a[2i], load a[2i+1]: word ranges interleave (one component) but
  // the integer test proves every pair independent — skippable, which no
  // range-based argument could justify.
  Module m;
  const i64 g = m.add_global("a", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(10);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg p = b.add(base, b.muli(iv, 16));
    b.store(p, iv);
    b.load(p, 8);
  });
  b.ret();

  const ddg::SelectivePlan plan = compute_selective_plan(m);
  EXPECT_TRUE(plan.poison_reason.empty());
  EXPECT_EQ(plan.total_sites(), 2u);
  EXPECT_EQ(plan.groups, 1u);
}

TEST(SelectivePlan, UnboundedAccessPoisonsTheWholePlan) {
  // A non-affine access could touch any address: even the provably
  // disjoint sites elsewhere must stay instrumented.
  Module m;
  const i64 g = m.add_global("a", 400);
  const i64 go = m.add_global("out", 128);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg ro = b.const_(go);
  Reg n = b.const_(5);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg p = b.add(base, b.mul(iv, iv));
    b.load(p);
    b.store(b.add(ro, b.muli(iv, 8)), iv);
  });
  b.ret();

  const ddg::SelectivePlan plan = compute_selective_plan(m);
  EXPECT_EQ(plan.total_sites(), 0u);
  EXPECT_NE(plan.poison_reason.find("not statically bounded"),
            std::string::npos);
}

// --- report section -----------------------------------------------------

TEST(PrecisionSection, DeterministicOnAllRodiniaWorkloads) {
  Stencil2D st;
  const std::string stencil = precision_section(st.m);
  EXPECT_EQ(stencil, precision_section(st.m));
  EXPECT_NE(stencil.find("static-exact"), std::string::npos);
  for (const std::string& name : workloads::rodinia_names()) {
    const workloads::Workload w = workloads::make_rodinia(name);
    const std::string first = precision_section(w.module);
    EXPECT_EQ(first, precision_section(w.module)) << name;
    EXPECT_NE(first.find("selective plan:"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace pp::verify::exact
