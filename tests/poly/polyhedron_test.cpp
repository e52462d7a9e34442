#include "poly/polyhedron.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/pipeline.hpp"
#include "poly/omega.hpp"
#include "poly/poly_set.hpp"
#include "poly/simplex.hpp"
#include "workloads/workloads.hpp"

namespace pp::poly {
namespace {

Polyhedron triangle(i64 n) {
  // {(i, j) : 0 <= j <= i <= n}
  Polyhedron p(2);
  p.add_ge0(AffineExpr::var(2, 1));                                // j >= 0
  p.add_ge0(AffineExpr::var(2, 0) - AffineExpr::var(2, 1));        // i >= j
  p.add_ge0(AffineExpr::constant(2, n) - AffineExpr::var(2, 0));   // i <= n
  return p;
}

TEST(Polyhedron, BoxContainment) {
  Polyhedron b = Polyhedron::box({{0, 4}, {-2, 2}});
  std::vector<i64> in = {2, 0}, edge = {4, -2}, out = {5, 0};
  EXPECT_TRUE(b.contains(in));
  EXPECT_TRUE(b.contains(edge));
  EXPECT_FALSE(b.contains(out));
}

TEST(Polyhedron, EmptinessRational) {
  Polyhedron p(1);
  p.bound_var(0, 3, 1);  // 3 <= x <= 1: empty
  EXPECT_TRUE(p.is_rational_empty());
  Polyhedron q = Polyhedron::box({{0, 0}});
  EXPECT_FALSE(q.is_rational_empty());
  EXPECT_FALSE(Polyhedron::universe(2).is_rational_empty());
}

TEST(Polyhedron, IntegerEmptyButRationallyNonEmpty) {
  // 1 <= 2x <= 1 has the rational point 1/2 but no integer point.
  Polyhedron p(1);
  p.add_ge0(AffineExpr({2}, -1));   // 2x - 1 >= 0
  p.add_ge0(AffineExpr({-2}, 1));   // 1 - 2x >= 0
  EXPECT_FALSE(p.is_rational_empty());
  EXPECT_TRUE(p.is_integer_empty());
}

TEST(Polyhedron, MinimizeMaximize) {
  Polyhedron t = triangle(10);
  AffineExpr diff = AffineExpr::var(2, 0) - AffineExpr::var(2, 1);
  BoundResult lo = t.minimize(diff);
  ASSERT_EQ(lo.status, LpStatus::kOptimal);
  EXPECT_EQ(lo.value, Rat(0));
  BoundResult hi = t.maximize(diff);
  ASSERT_EQ(hi.status, LpStatus::kOptimal);
  EXPECT_EQ(hi.value, Rat(10));
  // Constant terms must flow through.
  BoundResult shifted = t.minimize(diff + 5);
  EXPECT_EQ(shifted.value, Rat(5));
}

TEST(Polyhedron, VarBounds) {
  Polyhedron t = triangle(7);
  auto bi = t.var_bounds(0);
  ASSERT_TRUE(bi.has_value());
  EXPECT_EQ(bi->first, 0);
  EXPECT_EQ(bi->second, 7);
  EXPECT_FALSE(Polyhedron::universe(1).var_bounds(0).has_value());
}

TEST(Polyhedron, CountTrianglePoints) {
  // Triangle with n=4: sum_{i=0..4} (i+1) = 15 points.
  auto n = triangle(4).count_points();
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 15u);
}

TEST(Polyhedron, EnumerateLexOrder) {
  Polyhedron b = Polyhedron::box({{0, 1}, {0, 1}});
  auto pts = b.enumerate();
  ASSERT_TRUE(pts.has_value());
  ASSERT_EQ(pts->size(), 4u);
  EXPECT_EQ((*pts)[0], (std::vector<i64>{0, 0}));
  EXPECT_EQ((*pts)[1], (std::vector<i64>{0, 1}));
  EXPECT_EQ((*pts)[2], (std::vector<i64>{1, 0}));
  EXPECT_EQ((*pts)[3], (std::vector<i64>{1, 1}));
}

TEST(Polyhedron, EnumerateUnboundedReturnsNullopt) {
  Polyhedron p(1);
  p.add_ge0(AffineExpr::var(1, 0));  // x >= 0, unbounded above
  EXPECT_FALSE(p.enumerate().has_value());
  EXPECT_FALSE(p.count_points().has_value());
}

TEST(Polyhedron, EnumerateCapReturnsNullopt) {
  Polyhedron b = Polyhedron::box({{0, 99}});
  EXPECT_FALSE(b.count_points(10).has_value());
  EXPECT_TRUE(b.count_points(100).has_value());
}

TEST(Polyhedron, ZeroDimensional) {
  Polyhedron p(0);
  EXPECT_EQ(p.count_points().value(), 1u);
  EXPECT_EQ(p.enumerate()->size(), 1u);
}

TEST(Polyhedron, EqualityConstraintSlices) {
  // Box with diagonal equality: x == y gives 5 points on the diagonal.
  Polyhedron p = Polyhedron::box({{0, 4}, {0, 4}});
  p.add_eq0(AffineExpr::var(2, 0) - AffineExpr::var(2, 1));
  EXPECT_EQ(p.count_points().value(), 5u);
}

TEST(Polyhedron, ModuloLikeEqualityEmptyRange) {
  // 2x == 5 has no integer solution inside [0, 10].
  Polyhedron p = Polyhedron::box({{0, 10}});
  p.add_eq0(AffineExpr({2}, -5));
  EXPECT_EQ(p.count_points().value(), 0u);
}

TEST(Polyhedron, Intersect) {
  Polyhedron a = Polyhedron::box({{0, 10}});
  Polyhedron b = Polyhedron::box({{5, 20}});
  Polyhedron c = a.intersect(b);
  auto bounds = c.var_bounds(0);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->first, 5);
  EXPECT_EQ(bounds->second, 10);
}

/// Is `v` in the integer projection of `p` onto variable `keep`? Pins the
/// variable and lets the Omega test eliminate the others.
bool in_projection(const Polyhedron& p, std::size_t keep, i64 v) {
  Polyhedron pinned = p;
  AffineExpr e = AffineExpr::var(p.dim(), keep);
  e.const_term() = -v;
  pinned.add_eq0(e);
  Feas f = integer_feasible(pinned);
  EXPECT_NE(f, Feas::kUnknown);
  return f == Feas::kFeasible;
}

TEST(Polyhedron, ProjectOutTriangle) {
  // Projecting j out of the triangle {0<=j<=i<=5} gives {0<=i<=5}.
  Polyhedron t = triangle(5);
  auto b = t.var_bounds(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, 0);
  EXPECT_EQ(b->second, 5);
  for (i64 i = -2; i <= 7; ++i)
    EXPECT_EQ(in_projection(t, 0, i), i >= 0 && i <= 5) << i;
}

TEST(Polyhedron, ProjectOutWithEqualities) {
  // {x == 2y, 0 <= x <= 8}: projecting x gives 0 <= 2y <= 8.
  Polyhedron p(2);
  p.add_eq0(AffineExpr({1, -2}, 0));
  p.bound_var(0, 0, 8);
  auto b = p.var_bounds(1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, 0);
  EXPECT_EQ(b->second, 4);
  for (i64 y = -2; y <= 6; ++y)
    EXPECT_EQ(in_projection(p, 1, y), y >= 0 && y <= 4) << y;
  // Onto x, only the even values survive the integer projection.
  for (i64 x = 0; x <= 8; ++x) EXPECT_EQ(in_projection(p, 0, x), x % 2 == 0);
}

TEST(Polyhedron, StrRendering) {
  Polyhedron t = triangle(3);
  std::vector<std::string> names = {"i", "j"};
  std::string s = t.str(names);
  EXPECT_NE(s.find("j >= 0"), std::string::npos);
  EXPECT_NE(s.find("i - j >= 0"), std::string::npos);
}

// The lexicographic minimum of a polyhedron is the first point of its
// lexicographic enumeration.
TEST(Polyhedron, LexminBox) {
  Polyhedron b = Polyhedron::box({{2, 5}, {-3, 4}});
  auto pts = b.enumerate();
  ASSERT_TRUE(pts && !pts->empty());
  EXPECT_EQ(pts->front(), (std::vector<i64>{2, -3}));
  EXPECT_EQ(pts->back(), (std::vector<i64>{5, 4}));
}

TEST(Polyhedron, LexminTriangle) {
  Polyhedron t = triangle(5);
  auto pts = t.enumerate();
  ASSERT_TRUE(pts && !pts->empty());
  EXPECT_EQ(pts->front(), (std::vector<i64>{0, 0}));
}

TEST(Polyhedron, LexminSkipsNonIntegralRationalMin) {
  // 1 <= 2x <= 7: rational min 1/2, integer lexmin x = 1.
  Polyhedron p(1);
  p.add_ge0(AffineExpr({2}, -1));
  p.add_ge0(AffineExpr({-2}, 7));
  EXPECT_EQ(p.minimize(AffineExpr::var(1, 0)).value, Rat(1, 2));
  auto pts = p.enumerate();
  ASSERT_TRUE(pts.has_value());
  EXPECT_EQ(*pts, (std::vector<std::vector<i64>>{{1}, {2}, {3}}));
  auto b = p.var_bounds(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, 1);
  EXPECT_EQ(b->second, 3);
}

TEST(Polyhedron, LexminEmptyAndUnbounded) {
  Polyhedron empty(1);
  empty.bound_var(0, 3, 1);
  auto none = empty.enumerate();
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  Polyhedron unbounded(1);
  unbounded.add_ge0(-AffineExpr::var(1, 0));  // x <= 0, unbounded below
  EXPECT_FALSE(unbounded.enumerate().has_value());
  EXPECT_FALSE(unbounded.var_bounds(0).has_value());
}

TEST(Polyhedron, LexminIsFirstEnumerated) {
  // Enumeration is strictly increasing in lexicographic order, so its
  // first point is the brute-force lexmin over the enclosing box.
  Polyhedron p = Polyhedron::box({{0, 3}, {0, 3}});
  p.add_ge0(AffineExpr({1, 1}, -3));  // x + y >= 3
  auto pts = p.enumerate();
  ASSERT_TRUE(pts && !pts->empty());
  for (std::size_t k = 1; k < pts->size(); ++k)
    EXPECT_LT((*pts)[k - 1], (*pts)[k]);
  std::optional<std::vector<i64>> lm;
  for (i64 x = 0; x <= 3 && !lm; ++x)
    for (i64 y = 0; y <= 3 && !lm; ++y)
      if (x + y >= 3) lm = std::vector<i64>{x, y};
  ASSERT_TRUE(lm.has_value());
  EXPECT_EQ(*lm, pts->front());
  EXPECT_EQ(pts->front(), (std::vector<i64>{0, 3}));
}

TEST(PolySet, PiecesAndContainment) {
  PolySet s(1);
  Piece p1{Polyhedron::box({{0, 3}}), AffineMap::identity(1), true, true, 4};
  Piece p2{Polyhedron::box({{10, 12}}), AffineMap::identity(1), false, true, 3};
  s.add_piece(p1);
  s.add_piece(p2);
  std::vector<i64> a = {2}, b = {11}, c = {7};
  EXPECT_TRUE(s.contains(a));
  EXPECT_TRUE(s.contains(b));
  EXPECT_FALSE(s.contains(c));
  EXPECT_FALSE(s.all_exact());
  EXPECT_EQ(s.total_observed(), 7u);
  EXPECT_NE(s.str().find("(approx)"), std::string::npos);
}

// Property sweep: count_points on random template polyhedra must match a
// brute-force scan of the bounding box.
class CountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CountSweep, MatchesBruteForce) {
  u64 state = static_cast<u64>(GetParam()) * 987654321u + 3;
  auto next = [&](int lo, int hi) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + static_cast<int>((state >> 33) % static_cast<u64>(hi - lo + 1));
  };
  Polyhedron p(2);
  int xlo = next(-4, 0), xhi = next(0, 5);
  int ylo = next(-4, 0), yhi = next(0, 5);
  p.bound_var(0, xlo, xhi);
  p.bound_var(1, ylo, yhi);
  // One random octagon constraint: a*x + b*y + c >= 0 with a, b in ±1.
  int a = next(0, 1) ? 1 : -1;
  int b = next(0, 1) ? 1 : -1;
  int c = next(-3, 3);
  p.add_ge0(AffineExpr({a, b}, c));
  u64 expected = 0;
  for (i64 x = xlo; x <= xhi; ++x) {
    for (i64 y = ylo; y <= yhi; ++y) {
      std::vector<i64> pt = {x, y};
      if (p.contains(pt)) ++expected;
    }
  }
  EXPECT_EQ(p.count_points().value(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountSweep, ::testing::Range(0, 60));

}  // namespace
}  // namespace pp::poly

// ---------------------------------------------------------------------------
// Closed-form box bounds vs the simplex. Polyhedron::minimize answers boxes
// (every constraint mentions at most one variable) without the simplex; on
// the same system both must give the identical BoundResult — status, and
// the exact rational value when optimal.

namespace pp::poly {
namespace {

/// The reference: lp_minimize on the polyhedron's constraints, exactly as
/// Polyhedron::minimize states the problem for non-box shapes.
BoundResult simplex_minimize(const Polyhedron& p, const AffineExpr& obj) {
  std::vector<LpConstraint> rows;
  for (const auto& c : p.constraints())
    rows.push_back({c.expr.as_rat_vec(), Rat(-c.expr.const_term()),
                    c.equality});
  LpResult r = lp_minimize(p.dim(), rows, obj.as_rat_vec());
  BoundResult b;
  b.status = r.status;
  if (r.status == LpStatus::kOptimal)
    b.value = r.objective + Rat(obj.const_term());
  return b;
}

bool is_box(const Polyhedron& p) {
  for (const auto& c : p.constraints()) {
    int vars = 0;
    for (std::size_t i = 0; i < p.dim(); ++i) vars += c.expr.coeff(i) != 0;
    if (vars > 1) return false;
  }
  return true;
}

const char* status_name(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
  }
  return "?";
}

/// Asserts minimize and maximize of `obj` over `p` agree with the simplex.
void expect_same_bounds(const Polyhedron& p, const AffineExpr& obj) {
  for (const AffineExpr& o : {obj, -obj}) {
    const BoundResult fast = p.minimize(o);
    const BoundResult ref = simplex_minimize(p, o);
    ASSERT_EQ(fast.status, ref.status)
        << p.str() << " min " << o.str() << ": " << status_name(fast.status)
        << " vs simplex " << status_name(ref.status);
    ASSERT_EQ(fast.value, ref.value)
        << p.str() << " min " << o.str() << ": " << fast.value.str()
        << " vs simplex " << ref.value.str();
  }
}

TEST(BoxBounds, ClosedFormCornerCases) {
  // 2x >= 3 and x <= 5: the non-unit coefficient gives the bound 3/2.
  Polyhedron p(1);
  p.add_ge0(AffineExpr({2}, -3));
  p.add_ge0(AffineExpr({-1}, 5));
  EXPECT_EQ(p.minimize(AffineExpr({1}, 0)).value, Rat(3, 2));
  EXPECT_EQ(p.maximize(AffineExpr({3}, 1)).value, Rat(16));
  // An equality pins the variable; a second one on another value empties.
  Polyhedron q(2);
  q.add_eq0(AffineExpr({3, 0}, -2));  // 3x == 2
  q.add_ge0(AffineExpr({0, 1}, 0));   // y >= 0
  EXPECT_EQ(q.minimize(AffineExpr({-6, 1}, 1)).value, Rat(-3));
  EXPECT_EQ(q.maximize(AffineExpr({1, 0}, 0)).status, LpStatus::kOptimal);
  EXPECT_EQ(q.maximize(AffineExpr({0, 1}, 0)).status, LpStatus::kUnbounded);
  EXPECT_EQ(q.maximize(AffineExpr({1, 0}, 0)).value, Rat(2, 3));
  q.add_eq0(AffineExpr({1, 0}, -1));  // x == 1
  EXPECT_TRUE(q.is_rational_empty());
  // Infeasibility wins over unboundedness, as in the simplex.
  EXPECT_EQ(q.maximize(AffineExpr({0, 1}, 0)).status, LpStatus::kInfeasible);
  // A violated constant-only row; a satisfied one is ignored.
  Polyhedron r(1);
  r.add_ge0(AffineExpr({0}, 0));
  EXPECT_FALSE(r.is_rational_empty());
  r.add_eq0(AffineExpr({0}, 1));
  EXPECT_TRUE(r.is_rational_empty());
  // Dimension 0.
  Polyhedron z(0);
  EXPECT_EQ(z.minimize(AffineExpr(std::vector<i64>{}, 7)).value, Rat(7));
  for (const auto* poly : {&p, &q, &r, &z}) {
    AffineExpr obj(poly->dim());
    for (std::size_t i = 0; i < poly->dim(); ++i) obj.coeff(i) = 1;
    expect_same_bounds(*poly, obj);
  }
}

TEST(BoxBounds, RandomBoxesMatchSimplex) {
  std::mt19937_64 rng(20191);
  auto pick = [&](i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng);
  };
  // Nonzero coefficient, mostly unit, sometimes 2x >= 3 style.
  auto coeff = [&]() {
    i64 c = pick(1, 3);
    return pick(0, 1) ? c : -c;
  };
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    const std::size_t dim = static_cast<std::size_t>(pick(0, 4));
    Polyhedron p(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      auto row = [&](i64 a, i64 b) {
        AffineExpr e(dim);
        e.coeff(v) = a;
        e.const_term() = b;
        return e;
      };
      switch (pick(0, 6)) {
        case 0:  // free variable
          break;
        case 1:  // lower side only
          p.add_ge0(row(pick(1, 3), pick(-9, 9)));
          break;
        case 2:  // upper side only
          p.add_ge0(row(-pick(1, 3), pick(-9, 9)));
          break;
        case 3:  // equality pin (may be fractional)
          p.add_eq0(row(coeff(), pick(-9, 9)));
          break;
        default: {  // interval, empty about a fifth of the time
          const i64 lo = pick(-9, 9);
          const i64 hi = pick(0, 4) == 0 ? lo - pick(1, 3) : lo + pick(0, 9);
          const i64 a = pick(1, 3), b = pick(1, 3);
          p.add_ge0(row(a, -a * lo));    // a·x >= a·lo
          p.add_ge0(row(-b, b * hi));    // b·x <= b·hi
          if (pick(0, 3) == 0) p.add_ge0(row(coeff(), pick(-9, 9)));
          break;
        }
      }
    }
    if (pick(0, 9) == 0) {  // constant-only row, violated half the time
      AffineExpr e(dim);
      e.const_term() = pick(-1, 1);
      if (pick(0, 1))
        p.add_eq0(e);
      else
        p.add_ge0(e);
    }
    AffineExpr obj(dim);
    for (std::size_t v = 0; v < dim; ++v)
      obj.coeff(v) = pick(0, 2) == 0 ? 0 : pick(-3, 3);
    obj.const_term() = pick(-5, 5);
    ASSERT_TRUE(is_box(p));
    expect_same_bounds(p, obj);
    ASSERT_EQ(p.is_rational_empty(),
              simplex_minimize(p, AffineExpr(dim)).status ==
                  LpStatus::kInfeasible)
        << p.str();
    switch (p.minimize(obj).status) {
      case LpStatus::kOptimal: ++optimal; break;
      case LpStatus::kInfeasible: ++infeasible; break;
      case LpStatus::kUnbounded: ++unbounded; break;
    }
  }
  // Every outcome is well represented, so no branch is tested vacuously.
  EXPECT_GT(optimal, 1000);
  EXPECT_GT(infeasible, 1000);
  EXPECT_GT(unbounded, 1000);
}

/// The scheduler's candidate rows for depth `d` (unit vectors, then the
/// ±1/±2 two-variable skews), as make_candidates builds them.
std::vector<std::vector<i64>> candidate_rows(std::size_t d) {
  std::vector<std::vector<i64>> out;
  for (std::size_t i = 0; i < d; ++i) {
    out.emplace_back(d, 0);
    out.back()[i] = 1;
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) {
      for (auto [ci, cj] : {std::pair<i64, i64>{1, 1}, {1, -1}, {-1, 1},
                            {2, 1}, {1, 2}}) {
        out.emplace_back(d, 0);
        out.back()[i] = ci;
        out.back()[j] = cj;
      }
    }
  }
  return out;
}

class WorkloadBoxBounds : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadBoxBounds, FoldedPiecesMatchSimplex) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  core::PipelineOptions opts;
  core::Pipeline pipe(wl.module);
  core::ProfileResult r = pipe.run(opts);
  u64 box_queries = 0;
  // Statement pieces: the per-variable bounds enumeration and var_bounds
  // ask for.
  for (const auto& s : r.program.statements) {
    for (const Piece& piece : s.domain.pieces()) {
      const Polyhedron& p = piece.domain;
      if (is_box(p)) box_queries += p.dim();
      for (std::size_t v = 0; v < p.dim(); ++v)
        expect_same_bounds(p, AffineExpr::var(p.dim(), v));
    }
  }
  // Dependence pieces: the scheduler's latency difference
  // row·(t - src_fn(t)) for every candidate row.
  for (const auto& d : r.program.deps) {
    for (const Piece& piece : d.relation.pieces()) {
      const Polyhedron& p = piece.domain;
      const std::size_t common = std::min(p.dim(), piece.label_fn.out_dim());
      for (const auto& row : candidate_rows(common)) {
        AffineExpr diff(p.dim());
        for (std::size_t i = 0; i < common; ++i)
          diff = diff + (AffineExpr::var(p.dim(), i) -
                         piece.label_fn.output(i)) *
                            row[i];
        if (is_box(p)) ++box_queries;
        expect_same_bounds(p, diff);
      }
    }
  }
  EXPECT_GT(box_queries, 0u) << "no box query: closed form not exercised";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadBoxBounds,
                         ::testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

}  // namespace
}  // namespace pp::poly
