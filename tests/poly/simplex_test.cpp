#include "poly/simplex.hpp"

#include <gtest/gtest.h>

namespace pp::poly {
namespace {

// min x + y  s.t.  x >= 1, y >= 2  ->  3 at (1,2)
TEST(Simplex, SimpleBoundedMin) {
  std::vector<LpConstraint> cs = {
      {{Rat(1), Rat(0)}, Rat(1), false},
      {{Rat(0), Rat(1)}, Rat(2), false},
  };
  LpResult r = lp_minimize(2, cs, {Rat(1), Rat(1)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rat(3));
  EXPECT_EQ(r.point[0], Rat(1));
  EXPECT_EQ(r.point[1], Rat(2));
}

// Free variables can take negative values: min x s.t. x >= -5 -> -5.
TEST(Simplex, NegativeValues) {
  std::vector<LpConstraint> cs = {{{Rat(1)}, Rat(-5), false}};
  LpResult r = lp_minimize(1, cs, {Rat(1)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rat(-5));
}

TEST(Simplex, Unbounded) {
  std::vector<LpConstraint> cs = {{{Rat(1)}, Rat(0), false}};  // x >= 0
  LpResult r = lp_minimize(1, cs, {Rat(-1)});                  // min -x
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(Simplex, Infeasible) {
  std::vector<LpConstraint> cs = {
      {{Rat(1)}, Rat(3), false},   // x >= 3
      {{Rat(-1)}, Rat(-1), false}, // -x >= -1, i.e. x <= 1
  };
  LpResult r = lp_minimize(1, cs, {Rat(1)});
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y  s.t.  x + y == 4, x >= 1, y >= 1  ->  4.
  std::vector<LpConstraint> cs = {
      {{Rat(1), Rat(1)}, Rat(4), true},
      {{Rat(1), Rat(0)}, Rat(1), false},
      {{Rat(0), Rat(1)}, Rat(1), false},
  };
  LpResult r = lp_minimize(2, cs, {Rat(1), Rat(1)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rat(4));
  EXPECT_EQ(r.point[0] + r.point[1], Rat(4));
}

TEST(Simplex, RationalOptimum) {
  // min y s.t. 2y >= 1 -> 1/2.
  std::vector<LpConstraint> cs = {{{Rat(2)}, Rat(1), false}};
  LpResult r = lp_minimize(1, cs, {Rat(1)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rat(1, 2));
}

TEST(Simplex, MaximizeViaNegatedObjective) {
  // max x s.t. x <= 7 (written -x >= -7) is -min(-x) -> 7.
  std::vector<LpConstraint> cs = {{{Rat(-1)}, Rat(-7), false}};
  LpResult r = lp_minimize(1, cs, {Rat(-1)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(-r.objective, Rat(7));
  EXPECT_EQ(r.point[0], Rat(7));
}

TEST(Simplex, TriangularDomainMinOfDifference) {
  // Triangle 0 <= j <= i <= 10. min (i - j) = 0, max (i - j) = 10.
  std::vector<LpConstraint> cs = {
      {{Rat(0), Rat(1)}, Rat(0), false},          // j >= 0
      {{Rat(1), Rat(-1)}, Rat(0), false},         // i - j >= 0
      {{Rat(-1), Rat(0)}, Rat(-10), false},       // i <= 10
  };
  LpResult lo = lp_minimize(2, cs, {Rat(1), Rat(-1)});
  ASSERT_EQ(lo.status, LpStatus::kOptimal);
  EXPECT_EQ(lo.objective, Rat(0));
  LpResult hi = lp_minimize(2, cs, {Rat(-1), Rat(1)});  // max = -min(-obj)
  ASSERT_EQ(hi.status, LpStatus::kOptimal);
  EXPECT_EQ(-hi.objective, Rat(10));
}

TEST(Simplex, DegenerateRedundantRows) {
  // Duplicate + implied constraints should not break phase 1/2.
  std::vector<LpConstraint> cs = {
      {{Rat(1), Rat(0)}, Rat(2), false},
      {{Rat(1), Rat(0)}, Rat(2), false},
      {{Rat(2), Rat(0)}, Rat(4), false},
      {{Rat(0), Rat(1)}, Rat(0), false},
  };
  LpResult r = lp_minimize(2, cs, {Rat(1), Rat(1)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rat(2));
}

TEST(Simplex, EqualityOnlySystem) {
  // x == 3, y == -2; min anything gives the unique point.
  std::vector<LpConstraint> cs = {
      {{Rat(1), Rat(0)}, Rat(3), true},
      {{Rat(0), Rat(1)}, Rat(-2), true},
  };
  LpResult r = lp_minimize(2, cs, {Rat(5), Rat(7)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rat(1));
  EXPECT_EQ(r.point[0], Rat(3));
  EXPECT_EQ(r.point[1], Rat(-2));
}

// Property sweep: LP optimum over a random box must equal brute-force
// integer scan when the objective is integral and the box is integral
// (vertices of a box are integer points).
class SimplexBoxSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexBoxSweep, MatchesBruteForceOnBoxes) {
  u64 state = static_cast<u64>(GetParam()) * 2654435761u + 17;
  auto next = [&](int lo, int hi) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + static_cast<int>((state >> 33) % static_cast<u64>(hi - lo + 1));
  };
  int x_lo = next(-5, 0), x_hi = next(x_lo, x_lo + 6);
  int y_lo = next(-5, 0), y_hi = next(y_lo, y_lo + 6);
  int cx = next(-3, 3), cy = next(-3, 3);
  std::vector<LpConstraint> cs = {
      {{Rat(1), Rat(0)}, Rat(x_lo), false},
      {{Rat(-1), Rat(0)}, Rat(-x_hi), false},
      {{Rat(0), Rat(1)}, Rat(y_lo), false},
      {{Rat(0), Rat(-1)}, Rat(-y_hi), false},
  };
  LpResult r = lp_minimize(2, cs, {Rat(cx), Rat(cy)});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  Rat best;
  bool first = true;
  for (int x = x_lo; x <= x_hi; ++x) {
    for (int y = y_lo; y <= y_hi; ++y) {
      Rat v = Rat(cx) * Rat(x) + Rat(cy) * Rat(y);
      if (first || v < best) best = v;
      first = false;
    }
  }
  EXPECT_EQ(r.objective, best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexBoxSweep, ::testing::Range(0, 60));

}  // namespace
}  // namespace pp::poly
