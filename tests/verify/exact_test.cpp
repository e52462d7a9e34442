#include "verify/exact.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "verify/verifier.hpp"
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
/// Rows are kRow (> 2N) elements wide so the one-step-widened IV ranges
/// cannot let distinct (di, dj) combinations reach the same byte offset.
struct Stencil2D {
  static constexpr i64 kN = 8;
  static constexpr i64 kRow = 24;
  Module m;

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
        Reg left = b.load(p, -8);
        b.store(p, b.add(up, left));
      });
    });
    b.ret();
  }
};

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

// --- report section -----------------------------------------------------

TEST(PrecisionSection, DeterministicOnAllRodiniaWorkloads) {
  Stencil2D st;
  const ModuleDeps deps = verify_module(st.m).deps;
  const std::string stencil = precision_section(st.m, deps);
  // A second rendering reads the verdicts the first one cached.
  EXPECT_EQ(stencil, precision_section(st.m, deps));
  EXPECT_EQ(stencil, precision_section(st.m, verify_module(st.m).deps));
  EXPECT_NE(stencil.find("static-exact"), std::string::npos);
  for (const std::string& name : workloads::rodinia_names()) {
    const workloads::Workload w = workloads::make_rodinia(name);
    const std::string first =
        precision_section(w.module, verify_module(w.module).deps);
    EXPECT_EQ(first, precision_section(w.module, verify_module(w.module).deps))
        << name;
    // Non-vacuity: the per-function tally is rendered for every workload.
    EXPECT_NE(first.find("static-exact"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace pp::verify::exact
