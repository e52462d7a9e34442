// Property fuzzing of integer projection (the Omega test's Fourier–Motzkin
// elimination) and the LP bound queries against brute-force lattice
// enumeration.
#include <gtest/gtest.h>

#include <set>

#include "poly/omega.hpp"
#include "poly/polyhedron.hpp"

namespace pp::poly {
namespace {

struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed * 2862933555777941757ull + 3037000493ull) {}
  i64 range(i64 lo, i64 hi) {
    state = state * 2862933555777941757ull + 3037000493ull;
    return lo + static_cast<i64>((state >> 33) % static_cast<u64>(hi - lo + 1));
  }
};

Polyhedron random_poly(Rng& rng) {
  Polyhedron p(2);
  p.bound_var(0, rng.range(-4, 0), rng.range(1, 5));
  p.bound_var(1, rng.range(-4, 0), rng.range(1, 5));
  int extra = static_cast<int>(rng.range(0, 2));
  for (int k = 0; k < extra; ++k) {
    i64 a = rng.range(-2, 2), b = rng.range(-2, 2), c = rng.range(-4, 4);
    if (a == 0 && b == 0) continue;
    p.add_ge0(AffineExpr({a, b}, c));
  }
  return p;
}

class ProjectionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionFuzz, FourierMotzkinContainsTrueProjection) {
  Rng rng(static_cast<u64>(GetParam()));
  Polyhedron p = random_poly(rng);
  auto pts = p.enumerate();
  ASSERT_TRUE(pts.has_value());

  for (std::size_t drop : {std::size_t{0}, std::size_t{1}}) {
    const std::size_t keep = drop == 0 ? 1 : 0;
    std::set<i64> truth;
    for (const auto& pt : *pts) truth.insert(pt[keep]);
    // Pinning the kept variable to v and asking for an integer point makes
    // the Omega test eliminate the dropped one: the verdict must be exactly
    // "v is in the integer projection", for every v of the box and 20
    // beyond it on each side.
    for (i64 v = -25; v <= 26; ++v) {
      Polyhedron pinned = p;
      std::vector<i64> coef(2, 0);
      coef[keep] = 1;
      pinned.add_eq0(AffineExpr(coef, -v));
      Feas f = integer_feasible(pinned);
      ASSERT_NE(f, Feas::kUnknown) << p.str();
      EXPECT_EQ(f == Feas::kFeasible, truth.count(v) == 1)
          << "projection onto x" << keep << " at " << v << " of " << p.str();
    }
    // The rational shadow (var_bounds) contains the integer projection.
    if (!truth.empty()) {
      auto vb = p.var_bounds(keep);
      ASSERT_TRUE(vb.has_value());
      EXPECT_LE(vb->first, *truth.begin());
      EXPECT_GE(vb->second, *truth.rbegin());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionFuzz, ::testing::Range(0, 60));

class BoundsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BoundsFuzz, LpBoundsMatchEnumeration) {
  Rng rng(static_cast<u64>(GetParam()) + 1000);
  Polyhedron p = random_poly(rng);
  auto pts = p.enumerate();
  ASSERT_TRUE(pts.has_value());
  if (pts->empty()) {
    // Rational emptiness may disagree with integer emptiness only in the
    // sound direction.
    EXPECT_TRUE(p.is_integer_empty());
    return;
  }
  // Random objective: LP min/max must bound the integer min/max, and for
  // integral vertices coincide often; we assert the sound inequality.
  i64 cx = rng.range(-3, 3), cy = rng.range(-3, 3);
  AffineExpr obj({cx, cy}, 0);
  i128 lo = 0, hi = 0;
  bool first = true;
  for (const auto& pt : *pts) {
    i128 v = obj.eval(pt);
    if (first || v < lo) lo = v;
    if (first || v > hi) hi = v;
    first = false;
  }
  BoundResult bmin = p.minimize(obj);
  BoundResult bmax = p.maximize(obj);
  ASSERT_EQ(bmin.status, LpStatus::kOptimal);
  ASSERT_EQ(bmax.status, LpStatus::kOptimal);
  EXPECT_LE(bmin.value, Rat(lo));
  EXPECT_GE(bmax.value, Rat(hi));
  // var_bounds: integer-tight for each dimension.
  for (std::size_t d = 0; d < 2; ++d) {
    auto vb = p.var_bounds(d);
    ASSERT_TRUE(vb.has_value());
    i64 vlo = (*pts)[0][d], vhi = (*pts)[0][d];
    for (const auto& pt : *pts) {
      vlo = std::min(vlo, pt[d]);
      vhi = std::max(vhi, pt[d]);
    }
    EXPECT_LE(vb->first, vlo);
    EXPECT_GE(vb->second, vhi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsFuzz, ::testing::Range(0, 60));

}  // namespace
}  // namespace pp::poly
