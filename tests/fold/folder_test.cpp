#include "fold/folder.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <gtest/gtest.h>

namespace pp::fold {
namespace {

using poly::PolySet;

void add1(Folder& f, i64 x, std::vector<i64> label) {
  i64 pt[1] = {x};
  f.add(pt, label);
}

void add2(Folder& f, i64 x, i64 y, std::vector<i64> label) {
  i64 pt[2] = {x, y};
  f.add(pt, label);
}

TEST(Folder, FoldsAffine1DStreamExactly) {
  Folder f(1, 1);
  for (i64 i = 0; i < 10; ++i) add1(f, i, {2 * i + 3});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  const auto& p = s.pieces()[0];
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.observed_points, 10u);
  auto bounds = p.domain.var_bounds(0);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->first, 0);
  EXPECT_EQ(bounds->second, 9);
  // Label function = 2x + 3.
  EXPECT_EQ(p.label_fn.output(0).coeff(0), 2);
  EXPECT_EQ(p.label_fn.output(0).const_term(), 3);
}

TEST(Folder, FoldsTriangularDomainExactly) {
  // {(i,j) : 0 <= j <= i <= 4}, label = 10i + j. Triangles need the
  // octagon template rows (i - j >= 0).
  Folder f(2, 1);
  for (i64 i = 0; i <= 4; ++i)
    for (i64 j = 0; j <= i; ++j) add2(f, i, j, {10 * i + j});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  const auto& p = s.pieces()[0];
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.observed_points, 15u);
  EXPECT_EQ(p.domain.count_points().value(), 15u);
  EXPECT_EQ(p.label_fn.output(0).coeff(0), 10);
  EXPECT_EQ(p.label_fn.output(0).coeff(1), 1);
}

TEST(Folder, RectangularLoopNestMatchesPaperTable2Shape) {
  // backprop's layerforward loop shape: 0<=cj<=15, 0<=ck<=42, dependence
  // label (cj', ck') = (cj, ck-1) — the paper's I4->I4 row of Table 2.
  Folder f(2, 2);
  for (i64 cj = 0; cj <= 15; ++cj)
    for (i64 ck = 1; ck <= 42; ++ck) add2(f, cj, ck, {cj, ck - 1});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  const auto& p = s.pieces()[0];
  EXPECT_TRUE(p.exact);
  // Domain: 0<=cj<=15 and 1<=ck<=42.
  EXPECT_EQ(p.domain.var_bounds(0)->first, 0);
  EXPECT_EQ(p.domain.var_bounds(0)->second, 15);
  EXPECT_EQ(p.domain.var_bounds(1)->first, 1);
  EXPECT_EQ(p.domain.var_bounds(1)->second, 42);
  // cj' = cj + 0ck ; ck' = 0cj + ck - 1.
  EXPECT_EQ(p.label_fn.output(0).coeff(0), 1);
  EXPECT_EQ(p.label_fn.output(0).coeff(1), 0);
  EXPECT_EQ(p.label_fn.output(1).coeff(1), 1);
  EXPECT_EQ(p.label_fn.output(1).const_term(), -1);
}

TEST(Folder, PiecewiseLabelsSplitIntoTwoPieces) {
  Folder f(1, 1);
  for (i64 i = 0; i < 5; ++i) add1(f, i, {i});
  for (i64 i = 5; i < 10; ++i) add1(f, i, {100 + i});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 2u);
  EXPECT_TRUE(s.pieces()[0].exact);
  EXPECT_TRUE(s.pieces()[1].exact);
  EXPECT_EQ(s.pieces()[0].observed_points, 5u);
  EXPECT_EQ(s.pieces()[1].observed_points, 5u);
  EXPECT_EQ(s.pieces()[1].label_fn.output(0).const_term(), 100);
}

TEST(Folder, DomainWithHolesIsOverApproximated) {
  // Even points only: the template polyhedron [0,8] has 9 lattice points
  // but only 5 were observed -> certified over-approximation.
  Folder f(1, 0);
  for (i64 i = 0; i <= 8; i += 2) {
    i64 pt[1] = {i};
    f.add(pt, {});
  }
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_FALSE(s.pieces()[0].exact);
  EXPECT_EQ(s.pieces()[0].observed_points, 5u);
  EXPECT_FALSE(s.all_exact());
}

TEST(Folder, NonAffineLabelsNeverReportExactSinglePiece) {
  Folder f(1, 1);
  for (i64 i = 0; i < 32; ++i) add1(f, i, {i * i});
  PolySet s = f.finish();
  // Quadratic labels fragment into many pieces (or collapse); whatever the
  // piece structure, the fold must not claim a single exact affine piece.
  ASSERT_GE(s.pieces().size(), 1u);
  if (s.pieces().size() == 1) {
    EXPECT_FALSE(s.pieces()[0].exact);
  }
}

TEST(Folder, MaxPiecesCollapsesToOverApproximation) {
  FolderOptions opts;
  opts.max_pieces = 4;
  Folder f(1, 1, opts);
  // Random-ish labels force a chunk break at nearly every point.
  for (i64 i = 0; i < 64; ++i) add1(f, i, {(i * 7919) % 1000});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_FALSE(s.pieces()[0].exact);
  EXPECT_EQ(s.pieces()[0].observed_points, 64u);
  // The collapsed domain still covers the full range.
  auto b = s.pieces()[0].domain.var_bounds(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, 0);
  EXPECT_EQ(b->second, 63);
}

TEST(Folder, ZeroDimensionalSinglePoint) {
  Folder f(0, 1);
  f.add({}, std::vector<i64>{42});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_TRUE(s.pieces()[0].exact);
  EXPECT_EQ(s.pieces()[0].label_fn.output(0).const_term(), 42);
}

TEST(Folder, DuplicatePointForfeitsExactness) {
  Folder f(0, 0);
  f.add({}, {});
  f.add({}, {});  // a 0-dim statement observed twice: not a unique instance
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_FALSE(s.pieces()[0].exact);
}

TEST(Folder, SkewedDiagonalDomainFoldsExactly) {
  // Wavefront-style band: points (i, j) with j = i (diagonal). The octagon
  // template pins i - j == 0 as an equality.
  Folder f(2, 0);
  for (i64 i = 0; i < 6; ++i) add2(f, i, i, {});
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_TRUE(s.pieces()[0].exact);
  EXPECT_EQ(s.pieces()[0].domain.count_points().value(), 6u);
}

TEST(Folder, ContinuesStreamingAfterFinish) {
  Folder f(1, 1);
  for (i64 i = 0; i < 4; ++i) add1(f, i, {i});
  PolySet s1 = f.finish();
  EXPECT_EQ(s1.pieces().size(), 1u);
  for (i64 i = 0; i < 4; ++i) add1(f, i, {5 * i});
  PolySet s2 = f.finish();
  ASSERT_EQ(s2.pieces().size(), 1u);
  EXPECT_EQ(s2.pieces()[0].label_fn.output(0).coeff(0), 5);
}

TEST(Folder, ArityMismatchThrows) {
  Folder f(2, 1);
  i64 pt[1] = {0};
  EXPECT_THROW(f.add(pt, std::vector<i64>{1}), Error);
}

// Property sweep: random affine label over a random 2-D loop nest folds to
// a single exact piece that reconstructs the label everywhere.
class FoldRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FoldRoundTrip, ReconstructsAffineLabels) {
  u64 state = static_cast<u64>(GetParam()) * 1442695040888963407ULL + 11;
  auto next = [&](int lo, int hi) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + static_cast<int>((state >> 33) % static_cast<u64>(hi - lo + 1));
  };
  int ni = next(1, 8), nj = next(1, 8);
  i64 a = next(-5, 5), b = next(-5, 5), c = next(-50, 50);
  bool triangular = next(0, 1) == 1;
  Folder f(2, 1);
  u64 expected_pts = 0;
  for (i64 i = 0; i < ni; ++i) {
    for (i64 j = 0; j < (triangular ? i + 1 : nj); ++j) {
      add2(f, i, j, {a * i + b * j + c});
      ++expected_pts;
    }
  }
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  const auto& p = s.pieces()[0];
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.observed_points, expected_pts);
  // Verify the reconstructed function on every lattice point.
  auto pts = p.domain.enumerate();
  ASSERT_TRUE(pts.has_value());
  EXPECT_EQ(pts->size(), expected_pts);
  for (const auto& pt : *pts) {
    auto out = p.label_fn.eval(pt);
    EXPECT_EQ(out[0], a * pt[0] + b * pt[1] + c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldRoundTrip, ::testing::Range(0, 60));

// add_run's contract: feeding (point, label, strides, n) is equivalent to
// n scalar add() calls advancing with 64-bit wrap — for any chunking, and
// whether or not the bulk O(1) extension branch triggers. The compacted
// DDG replay path leans on this for byte-identical folding.
class FolderAddRun : public ::testing::TestWithParam<int> {
 protected:
  std::uint32_t state_ = static_cast<std::uint32_t>(GetParam()) * 2654435761u + 12345u;
  i64 next(i64 lo, i64 hi) {
    state_ = state_ * 1664525u + 1013904223u;
    return lo + static_cast<i64>(state_ % static_cast<std::uint32_t>(hi - lo + 1));
  }
};

TEST_P(FolderAddRun, EquivalentToScalarAddsUnderAnyChunking) {
  // One innermost-striding run per "row", random chunk splits on the
  // bulk side, wrap-prone labels on some seeds.
  const i64 rows = next(1, 5), cols = next(2, 40);
  const i64 la = next(-4, 4), lb = next(-6, 6);
  const bool wrap = GetParam() % 5 == 0;
  const i64 lbase0 = wrap ? std::numeric_limits<i64>::max() - 7 : next(-9, 9);

  Folder scalar(2, 1), bulk(2, 1);
  for (i64 i = 0; i < rows; ++i) {
    // Scalar reference: wrap-advancing adds.
    i64 lab = static_cast<i64>(static_cast<u64>(lbase0) +
                               static_cast<u64>(la * i));
    for (i64 j = 0; j < cols; ++j) {
      i64 pt[2] = {i, j};
      i64 lv[1] = {lab};
      scalar.add(pt, lv);
      lab = static_cast<i64>(static_cast<u64>(lab) + static_cast<u64>(lb));
    }
    // Bulk side: the same row split into random add_run chunks.
    i64 j = 0;
    lab = static_cast<i64>(static_cast<u64>(lbase0) +
                           static_cast<u64>(la * i));
    while (j < cols) {
      i64 n = std::min<i64>(next(1, cols), cols - j);
      i64 pt[2] = {i, j};
      i64 lv[1] = {lab};
      i64 ps[2] = {0, 1};
      i64 ls[1] = {lb};
      bulk.add_run(pt, lv, ps, ls, static_cast<u64>(n));
      j += n;
      lab = static_cast<i64>(static_cast<u64>(lab) +
                             static_cast<u64>(lb * n));
    }
  }
  EXPECT_EQ(scalar.points_seen(), bulk.points_seen());
  poly::PolySet a = scalar.finish();
  poly::PolySet c = bulk.finish();
  EXPECT_EQ(a.str(), c.str());
  // Same pending-run transitions, whatever the chunking.
  EXPECT_EQ(scalar.run_flushes(), bulk.run_flushes());
  EXPECT_EQ(scalar.flushed_points(), bulk.flushed_points());
}

// One add_run call; n == 1 doubles as a scalar add.
struct RunOp {
  std::vector<i64> pt, lab, ps, ls;
  u64 n;
};

std::string describe(const PolySet& s) {
  std::string out = s.str();
  for (const auto& p : s.pieces())
    out += " #" + std::to_string(p.observed_points) +
           (p.label_exact ? "" : "~");
  return out;
}

// Feeds `ops` through add_run, through the n scalar add()s each call
// stands for (64-bit wrapping), and through the point-at-a-time reference
// folder. All three results agree, and after every call the first two
// have flushed the same pending runs: add_run makes exactly the scalar
// adds' transitions (the results alone cannot tell how points were
// grouped into runs).
void expect_scalar_transitions(std::size_t in_dim, std::size_t label_dim,
                               const std::vector<RunOp>& ops) {
  FolderOptions point_at_a_time;
  point_at_a_time.stride_runs = false;
  Folder bulk(in_dim, label_dim), scalar(in_dim, label_dim),
      ref(in_dim, label_dim, point_at_a_time);
  auto wrap_add = [](i64 a, i64 b) {
    return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
  };
  for (const RunOp& op : ops) {
    bulk.add_run(op.pt, op.lab, op.ps, op.ls, op.n);
    std::vector<i64> p = op.pt, l = op.lab;
    for (u64 k = 0; k < op.n; ++k) {
      scalar.add(p, l);
      ref.add(p, l);
      for (std::size_t i = 0; i < in_dim; ++i) p[i] = wrap_add(p[i], op.ps[i]);
      for (std::size_t j = 0; j < label_dim; ++j)
        l[j] = wrap_add(l[j], op.ls[j]);
    }
    EXPECT_EQ(bulk.run_flushes(), scalar.run_flushes());
    EXPECT_EQ(bulk.flushed_points(), scalar.flushed_points());
  }
  EXPECT_EQ(bulk.points_seen(), scalar.points_seen());
  const std::string want = describe(ref.finish());
  EXPECT_EQ(describe(scalar.finish()), want);
  EXPECT_EQ(describe(bulk.finish()), want);
  EXPECT_EQ(bulk.run_flushes(), scalar.run_flushes());
  EXPECT_EQ(bulk.flushed_points(), scalar.flushed_points());
}

TEST(FolderAddRunEdge, BaseContinuingThePendingRunAtANewStride) {
  // (0,0..2) is pending at stride (0,1); the run's base (0,3) continues
  // it, and its second point (0,5) breaks it: the base belongs to the
  // pending run, as with scalar adds.
  expect_scalar_transitions(
      2, 1,
      {{{0, 0}, {0}, {0, 1}, {1}, 3},
       {{0, 3}, {3}, {0, 2}, {2}, 4},
       {{0, 11}, {11}, {0, 1}, {1}, 2},
       {{1, 0}, {4}, {0, 1}, {1}, 5},
       {{1, 5}, {9}, {0, 3}, {-1}, 3}});
}

TEST(FolderAddRunEdge, TwoPointBackwardRunAfterASinglePendingPoint) {
  // The base 2 sets the stride of the pending 0; 1 breaks it with a
  // backward step and is left pending alone. 0..4 with label 2x+1 is one
  // box piece, and only that step makes it inexact.
  expect_scalar_transitions(1, 1,
                            {{{0}, {1}, {0}, {0}, 1},
                             {{2}, {5}, {-1}, {-2}, 2},
                             {{3}, {7}, {1}, {2}, 2}});
}

TEST(FolderAddRunEdge, WrappingRunReplaysScalarAdds) {
  // The label passes INT64_MAX mid-run: 64-bit wrap, replayed point by
  // point, between two runs that do not wrap.
  const i64 top = std::numeric_limits<i64>::max();
  expect_scalar_transitions(
      2, 1,
      {{{0, 0}, {top - 20}, {0, 1}, {5}, 3},
       {{0, 3}, {top - 5}, {0, 1}, {5}, 6},
       {{1, 0}, {7}, {0, 1}, {5}, 4}});
}

TEST(FolderAddRunEdge, SinglePointRunEqualsAdd) {
  Folder scalar(1, 1), bulk(1, 1);
  for (i64 i = 0; i < 6; ++i) {
    i64 pt[1] = {i};
    i64 lv[1] = {3 * i - 1};
    scalar.add(pt, lv);
    i64 ps[1] = {1};
    i64 ls[1] = {3};
    bulk.add_run(pt, lv, ps, ls, 1);
  }
  EXPECT_EQ(scalar.finish().str(), bulk.finish().str());
}

TEST(FolderAddRunEdge, MixedScalarAndBulkStreams) {
  // Interleave add() and add_run() mid-row: the pending-run state must
  // absorb both without changing the folded result.
  Folder scalar(2, 1), mixed(2, 1);
  for (i64 i = 0; i < 3; ++i) {
    for (i64 j = 0; j < 12; ++j) {
      i64 pt[2] = {i, j};
      i64 lv[1] = {5 * i + 2 * j};
      scalar.add(pt, lv);
    }
    i64 head[2] = {i, 0};
    i64 hlab[1] = {5 * i};
    mixed.add(head, hlab);
    i64 pt[2] = {i, 1};
    i64 lv[1] = {5 * i + 2};
    i64 ps[2] = {0, 1};
    i64 ls[1] = {2};
    mixed.add_run(pt, lv, ps, ls, 11);
  }
  EXPECT_EQ(scalar.points_seen(), mixed.points_seen());
  EXPECT_EQ(scalar.finish().str(), mixed.finish().str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FolderAddRun, ::testing::Range(0, 40));

// The integer-first label-fit kernels against their rational references
// (label_fit.hpp): the fraction-free refit against RatMatrix::solve, the
// scaled-integer fit and stride tests against the Rat verdicts.
class LabelFitKernels : public ::testing::TestWithParam<int> {
 protected:
  u64 state_ = static_cast<u64>(GetParam()) * 0x9e3779b97f4a7c15ull + 5;
  u64 mix() {  // splitmix64
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  i64 small(i64 span) {
    return static_cast<i64>(mix() % static_cast<u64>(2 * span + 1)) - span;
  }
  /// Coordinates: loop-counter sized, or 2^40-sized on some seeds; with
  /// `huge_`, a third of them within 2^10 of ±2^62 on those seeds.
  bool huge_ = false;
  i64 coord() {
    if (GetParam() % 4 != 3) return small(20);
    if (huge_ && mix() % 3 == 0)
      return (mix() % 2 ? 1 : -1) * ((i64{1} << 62) + small(1024));
    return small(i64{1} << 40);
  }
  /// Labels: small affine-looking values, or double bit patterns.
  i64 label() {
    if (mix() % 3 == 0) {
      double d = static_cast<double>(small(1000000)) / 7.0;
      i64 bits;
      std::memcpy(&bits, &d, sizeof bits);
      return bits;
    }
    return small(50);
  }

  /// A random affinely independent basis of 1..in_dim+1 points. The
  /// rational independence check throws pp::Error when 2^40 coordinates
  /// overflow it; callers skip that trial.
  std::vector<std::vector<i64>> basis(std::size_t in_dim) {
    const std::size_t k = 1 + mix() % (in_dim + 1);
    std::vector<std::vector<i64>> pts;
    RatMatrix rows(0, in_dim + 1);
    while (pts.size() < k) {
      std::vector<i64> p(in_dim);
      RatVec r(in_dim + 1, Rat(1));
      for (std::size_t i = 0; i < in_dim; ++i) r[i] = Rat(p[i] = coord());
      if (rows.rows() > 0 && rows.row_space_contains(r)) continue;
      rows.push_row(r);
      pts.push_back(std::move(p));
    }
    return pts;
  }
};

/// Pivot columns of the RREF of [pts 1]: column c is a pivot iff it
/// raises the rank of the column prefix.
std::vector<std::size_t> rref_pivots(const std::vector<std::vector<i64>>& pts,
                                     std::size_t in_dim) {
  std::vector<std::size_t> piv;
  std::size_t rank = 0;
  for (std::size_t c = 0; c <= in_dim; ++c) {
    RatMatrix prefix(pts.size(), c + 1);
    for (std::size_t r = 0; r < pts.size(); ++r)
      for (std::size_t i = 0; i <= c; ++i)
        prefix.at(r, i) = i == in_dim ? Rat(1) : Rat(pts[r][i]);
    const std::size_t next = prefix.rank();
    if (next > rank) piv.push_back(c);
    rank = next;
  }
  return piv;
}

template <class F>
auto outcome(F f) -> std::optional<decltype(f())> {
  try {
    return f();
  } catch (const Error&) {
    return std::nullopt;
  }
}

TEST_P(LabelFitKernels, FractionFreeFitEqualsRationalSolve) {
  const bool big = GetParam() % 4 == 3;
  int agreed = 0, fell_back = 0;
  for (std::size_t in_dim = 1; in_dim <= 5; ++in_dim) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t label_dim = 1 + mix() % 3;
      auto basis_pts = outcome([&] { return basis(in_dim); });
      if (!basis_pts) continue;
      const auto& pts = *basis_pts;
      std::vector<std::vector<i64>> labels(pts.size());
      for (auto& l : labels)
        for (std::size_t j = 0; j < label_dim; ++j) l.push_back(label());
      auto pivots = outcome([&] { return rref_pivots(pts, in_dim); });
      if (!pivots) continue;
      auto piv = *pivots;
      ASSERT_EQ(piv.size(), pts.size());
      // The kernel takes the pivots in the hull's row order: shuffle.
      std::reverse(piv.begin(), piv.end());
      auto ref = outcome(
          [&] { return fit_rational(pts, labels, in_dim, label_dim); });
      auto ff = fit_fraction_free(pts, labels, piv, in_dim, label_dim);
      if (!ff) {
        ++fell_back;
        continue;
      }
      // Where the rational path overflows and the integer one does not,
      // the integer fit is still exact: it reproduces every basis label.
      if (ref) {
        EXPECT_EQ(*ff, *ref);
        ++agreed;
      }
      for (std::size_t r = 0; r < pts.size(); ++r) {
        auto v = outcome(
            [&] { return predicts_rational(*ff, pts[r], labels[r]); });
        if (v) {
          EXPECT_TRUE(*v);
        }
      }
    }
  }
  // Seeds with 2^40 coordinates overflow i128 and take the fallback.
  EXPECT_GT(big ? fell_back : agreed, big ? 0 : 50);
}

TEST_P(LabelFitKernels, ScaledVerdictsEqualRationalVerdicts) {
  int decided = 0, truths = 0;
  for (std::size_t in_dim = 1; in_dim <= 5; ++in_dim) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t label_dim = 1 + mix() % 3;
      auto basis_pts = outcome([&] { return basis(in_dim); });
      if (!basis_pts) continue;
      const auto& pts = *basis_pts;
      std::vector<std::vector<i64>> labels(pts.size());
      for (auto& l : labels)
        for (std::size_t j = 0; j < label_dim; ++j) l.push_back(label());
      auto fit = outcome(
          [&] { return fit_rational(pts, labels, in_dim, label_dim); });
      if (!fit) continue;
      auto scaled = ScaledFit::from(*fit, in_dim, label_dim);
      if (!scaled) continue;
      // Probes: the basis points (always predicted), the affine
      // combination 2·p0 − p_last (predicted when its label is), and
      // random points and labels (almost never).
      std::vector<std::pair<std::vector<i64>, std::vector<i64>>> probes;
      for (std::size_t r = 0; r < pts.size(); ++r)
        probes.emplace_back(pts[r], labels[r]);
      std::vector<i64> p(in_dim), l(label_dim);
      for (std::size_t i = 0; i < in_dim; ++i)
        p[i] = 2 * pts[0][i] - pts.back()[i];
      for (std::size_t j = 0; j < label_dim; ++j)
        l[j] = static_cast<i64>(2 * static_cast<u64>(labels[0][j]) -
                                static_cast<u64>(labels.back()[j]));
      probes.emplace_back(p, l);
      for (std::size_t i = 0; i < in_dim; ++i) p[i] = coord();
      for (std::size_t j = 0; j < label_dim; ++j) l[j] = label();
      probes.emplace_back(p, l);
      for (const auto& [pt, lab] : probes) {
        auto fast = scaled->predicts(pt, lab);
        auto ref = outcome([&] { return predicts_rational(*fit, pt, lab); });
        if (fast && ref) {
          EXPECT_EQ(*fast, *ref);
          ++decided;
          truths += *fast;
        }
      }
      // Stride test: the difference of two basis points maps to the
      // difference of their labels; a perturbed label stride does not.
      std::vector<i128> ps(in_dim), ls(label_dim);
      for (std::size_t i = 0; i < in_dim; ++i)
        ps[i] = static_cast<i128>(pts.back()[i]) - pts[0][i];
      for (std::size_t j = 0; j < label_dim; ++j)
        ls[j] = static_cast<i128>(labels.back()[j]) - labels[0][j];
      for (int perturb = 0; perturb < 2; ++perturb) {
        ls[0] += perturb;
        auto fast = scaled->maps_stride(ps, ls);
        auto ref = outcome([&] { return maps_stride_rational(*fit, ps, ls); });
        if (fast && ref) {
          EXPECT_EQ(*fast, *ref);
        }
        if (fast) {
          EXPECT_EQ(*fast, perturb == 0);
        }
      }
    }
  }
  EXPECT_GT(decided, GetParam() % 4 == 3 ? 10 : 100);
  EXPECT_GT(truths, GetParam() % 4 == 3 ? 5 : 50);
}

// The integer hull against the rational one: pivots against the RREF's,
// membership against RatMatrix::row_space_contains. Where the integer
// hull overflows, a folder fed the same basis answers on Rat instead.
TEST_P(LabelFitKernels, EchelonHullEqualsRationalHull) {
  huge_ = true;
  int decided = 0, inside = 0, fell_back = 0, folded_on_rat = 0;
  for (std::size_t in_dim = 1; in_dim <= 5; ++in_dim) {
    for (int trial = 0; trial < 20; ++trial) {
      auto basis_pts = outcome([&] { return basis(in_dim); });
      if (!basis_pts) continue;
      const auto& pts = *basis_pts;
      EchelonHull hull;
      bool built = true;
      for (const auto& p : pts) built = built && hull.extend(p);
      if (!built) {
        ++fell_back;
        continue;
      }
      auto piv = outcome([&] { return rref_pivots(pts, in_dim); });
      if (piv) {
        EXPECT_EQ(std::vector<std::size_t>(hull.pivots().begin(),
                                           hull.pivots().end()),
                  *piv);
      }
      // Probes: the basis points and the affine combination
      // p0 + p_last − p_mid (inside), and a random point (almost never).
      std::vector<std::vector<i64>> probes = pts;
      std::vector<i64> p(in_dim);
      bool fits = true;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const i128 c = static_cast<i128>(pts[0][i]) + pts.back()[i] -
                       pts[pts.size() / 2][i];
        fits = fits && c >= INT64_MIN && c <= INT64_MAX;
        p[i] = static_cast<i64>(c);
      }
      if (fits) probes.push_back(p);
      for (std::size_t i = 0; i < in_dim; ++i) p[i] = coord();
      probes.push_back(p);
      for (const auto& q : probes) {
        auto fast = hull.contains(q);
        auto ref = outcome([&] { return in_hull_rational(pts, q); });
        if (fast && ref) {
          EXPECT_EQ(*fast, *ref);
          ++decided;
          inside += *fast;
        }
        if (!fast) ++fell_back;
        if (fast || !ref) continue;
        // A folder fed the basis (distinct labels: each point misses the
        // fit and extends the one chunk's hull) and then this probe asks
        // the hull, which answers on Rat.
        Folder f(in_dim, 1);
        auto pieces = outcome([&] {
          for (std::size_t r = 0; r < pts.size(); ++r)
            f.add(pts[r], std::vector<i64>{static_cast<i64>(r * r)});
          f.add(q, std::vector<i64>{-1});
          return f.finish().pieces().size();
        });
        if (pieces) {
          EXPECT_GT(f.rat_fallbacks(), 0u);
          ++folded_on_rat;
        }
      }
    }
  }
  EXPECT_GT(decided, GetParam() % 4 == 3 ? 10 : 100);
  EXPECT_GT(inside, GetParam() % 4 == 3 ? 5 : 100);
  if (GetParam() % 4 == 3) {
    EXPECT_GT(fell_back, 0);
  } else {
    EXPECT_EQ(fell_back + folded_on_rat, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelFitKernels, ::testing::Range(0, 12));

TEST(Folder, HugeCoordinatesAnswerHullTestsOnRat) {
  // Within 2^11 of ±2^62: reducing a third point against the two-row
  // integer hull overflows i128, the rational test does not.
  const i64 p0[2] = {4611686018427388704, -4611686018427387360};
  const i64 p1[2] = {4611686018427387383, -4611686018427387175};
  const i64 q[2] = {2 * p1[0] - p0[0], 2 * p1[1] - p0[1]};  // on the line
  EchelonHull hull;
  ASSERT_TRUE(hull.extend(p0) && hull.extend(p1));
  EXPECT_FALSE(hull.contains(q).has_value());
  const std::vector<std::vector<i64>> basis = {{p0[0], p0[1]},
                                               {p1[0], p1[1]}};
  EXPECT_TRUE(in_hull_rational(basis, q));
  // The fit through (p0, 0) and (p1, 1) predicts 2 at q: label 5 misses
  // it, and q, inside the hull, opens a second piece.
  Folder f(2, 1);
  f.add(p0, std::vector<i64>{0});
  f.add(p1, std::vector<i64>{1});
  f.add(q, std::vector<i64>{5});
  EXPECT_EQ(f.finish().pieces().size(), 2u);
  EXPECT_GT(f.rat_fallbacks(), 0u);
}

TEST(Folder, CountsRefitsWithoutRationalFallbacksOnAffineStreams) {
  Folder f(2, 1);
  for (i64 i = 0; i < 5; ++i)
    for (i64 j = 0; j < 7; ++j) add2(f, i, j, {3 * i - j + 4});
  // One refit per basis point: the first opens the chunk, and the fit
  // misses the two points that then extend the hull, (0,1) and (1,0).
  EXPECT_EQ(f.refits(), 3u);
  EXPECT_EQ(f.rat_fallbacks(), 0u);
  f.finish();
}

}  // namespace
}  // namespace pp::fold
