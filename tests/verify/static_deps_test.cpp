#include "verify/static_deps.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"

namespace pp::verify {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Reg;

/// One loop over a global array, with a store and two loads whose index
/// expressions are supplied by the caller:
///   for (i = 0..n) { a[2i] = i; x = a[2i]; y = a[2i+1]; }
struct EvenOdd {
  Module m;
  int store_b = -1, store_i = -1;     // a[2i] =
  int even_b = -1, even_i = -1;       // = a[2i]
  int odd_b = -1, odd_i = -1;         // = a[2i+1]

  EvenOdd() {
    i64 g = m.add_global("a", 400);
    Function& f = m.add_function("main", 0);
    Builder b(m, f);
    b.set_block(b.make_block());
    Reg base = b.const_(g);
    Reg n = b.const_(10);
    b.counted_loop(0, n, 1, [&](Reg iv) {
      Reg off = b.muli(iv, 16);  // 2i elements = 16 bytes
      Reg p = b.add(base, off);
      b.store(p, iv);
      store_b = b.current_block();
      store_i = static_cast<int>(
          f.blocks[static_cast<std::size_t>(store_b)].instrs.size()) - 1;
      b.load(p);
      even_b = b.current_block();
      even_i = static_cast<int>(
          f.blocks[static_cast<std::size_t>(even_b)].instrs.size()) - 1;
      b.load(p, 8);
      odd_b = b.current_block();
      odd_i = static_cast<int>(
          f.blocks[static_cast<std::size_t>(odd_b)].instrs.size()) - 1;
    });
    b.ret();
  }
};

TEST(MayDepSet, ModelsAllThreeAccesses) {
  EvenOdd eo;
  MayDepSet deps(eo.m, eo.m.functions[0]);
  EXPECT_TRUE(deps.modeled(eo.store_b, eo.store_i));
  EXPECT_TRUE(deps.modeled(eo.even_b, eo.even_i));
  EXPECT_TRUE(deps.modeled(eo.odd_b, eo.odd_i));
  const auto* st = deps.access(eo.store_b, eo.store_i);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->is_store);
  EXPECT_TRUE(st->affine);
}

TEST(MayDepSet, GcdProvesEvenOddIndependent) {
  // a[2i] vs a[2j+1]: 16 | (address difference - 8) never holds.
  EvenOdd eo;
  MayDepSet deps(eo.m, eo.m.functions[0]);
  EXPECT_FALSE(deps.may_depend(eo.store_b, eo.store_i, eo.odd_b, eo.odd_i));
}

TEST(MayDepSet, SameIndexStaysDependent) {
  EvenOdd eo;
  MayDepSet deps(eo.m, eo.m.functions[0]);
  EXPECT_TRUE(deps.may_depend(eo.store_b, eo.store_i, eo.even_b, eo.even_i));
}

TEST(MayDepSet, LoadLoadIsNeverADependence) {
  EvenOdd eo;
  MayDepSet deps(eo.m, eo.m.functions[0]);
  EXPECT_FALSE(deps.may_depend(eo.even_b, eo.even_i, eo.odd_b, eo.odd_i));
}

TEST(MayDepSet, BanerjeeProvesDistantRangesIndependent) {
  // store a[i], load a[i + 100] with i in [0, 10]: the GCD test is blind
  // (gcd 8 divides 800) but the value ranges cannot meet.
  Module m;
  i64 g = m.add_global("a", 2000);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(10);
  int sb = -1, si = -1, lb = -1, li = -1;
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg p = b.add(base, off);
    b.store(p, iv);
    sb = b.current_block();
    si = static_cast<int>(
        f.blocks[static_cast<std::size_t>(sb)].instrs.size()) - 1;
    b.load(p, 800);
    lb = b.current_block();
    li = static_cast<int>(
        f.blocks[static_cast<std::size_t>(lb)].instrs.size()) - 1;
  });
  b.ret();
  MayDepSet deps(m, f);
  ASSERT_TRUE(deps.modeled(sb, si));
  ASSERT_TRUE(deps.modeled(lb, li));
  EXPECT_FALSE(deps.may_depend(sb, si, lb, li));
}

TEST(MayDepSet, UnmodeledAccessFallsBackToMayDepend) {
  // Address computed as iv*iv: not affine, so the tester must stay
  // conservative for any pair involving it.
  Module m;
  i64 g = m.add_global("a", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(5);
  int ob = -1, oi = -1, sb = -1, si = -1;
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg sq = b.mul(iv, iv);
    Reg p = b.add(base, sq);
    b.load(p);
    ob = b.current_block();
    oi = static_cast<int>(
        f.blocks[static_cast<std::size_t>(ob)].instrs.size()) - 1;
    Reg q = b.add(base, b.muli(iv, 8));
    b.store(q, iv);
    sb = b.current_block();
    si = static_cast<int>(
        f.blocks[static_cast<std::size_t>(sb)].instrs.size()) - 1;
  });
  b.ret();
  MayDepSet deps(m, f);
  EXPECT_FALSE(deps.modeled(ob, oi));
  EXPECT_TRUE(deps.may_depend(ob, oi, sb, si));
  EXPECT_TRUE(deps.may_depend(sb, si, ob, oi));
}

TEST(MayDepSet, AllPairsContainsStoreLoadPair) {
  EvenOdd eo;
  MayDepSet deps(eo.m, eo.m.functions[0]);
  // may alias: in the set
  EXPECT_TRUE(deps.may_depend(eo.store_b, eo.store_i, eo.even_b, eo.even_i));
  // proven disjoint: pruned
  EXPECT_FALSE(deps.may_depend(eo.store_b, eo.store_i, eo.odd_b, eo.odd_i));
}

}  // namespace
}  // namespace pp::verify
