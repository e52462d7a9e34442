// Fast-path coverage for the algorithmic folder: stride-run absorption
// must be output-equivalent to point-at-a-time routing, the collapse
// guard must bound memory regardless of piece count, i128 template
// bounds past int64 must degrade instead of trapping, and the closed-form
// 2-D octagon count must agree with enumeration.
#include <gtest/gtest.h>

#include <cstdint>

#include "fold/folder.hpp"

namespace pp::fold {
namespace {

using poly::PolySet;

// Deterministic xorshift-ish generator (no <random> to keep seeds stable
// across libstdc++ versions).
struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed * 6364136223846793005ULL + 1442695040888963407ULL) {}
  i64 next(i64 lo, i64 hi) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + static_cast<i64>((state >> 33) %
                                 static_cast<u64>(hi - lo + 1));
  }
};

std::string describe(const PolySet& s) {
  std::string out;
  for (const auto& p : s.pieces()) {
    out += p.domain.str();
    out += " | ";
    out += p.label_fn.str();
    out += " | exact=";
    out += p.exact ? '1' : '0';
    out += " label_exact=";
    out += p.label_exact ? '1' : '0';
    out += " observed=";
    out += std::to_string(p.observed_points);
    out += '\n';
  }
  return out;
}

// Fold one stream with stride runs on and off; the outputs must match
// piece for piece (the run path is an equivalence-preserving fast path).
void expect_equivalent(const std::vector<std::vector<i64>>& pts,
                       const std::vector<std::vector<i64>>& labels,
                       std::size_t in_dim, std::size_t label_dim,
                       FolderOptions base = {}) {
  FolderOptions on = base, off = base;
  on.stride_runs = true;
  off.stride_runs = false;
  Folder f_on(in_dim, label_dim, on);
  Folder f_off(in_dim, label_dim, off);
  for (std::size_t k = 0; k < pts.size(); ++k) {
    f_on.add(pts[k], labels[k]);
    f_off.add(pts[k], labels[k]);
  }
  PolySet s_on = f_on.finish();
  PolySet s_off = f_off.finish();
  EXPECT_EQ(describe(s_on), describe(s_off));
}

TEST(StrideRuns, LongAffineRunMatchesPointAtATime) {
  std::vector<std::vector<i64>> pts, labels;
  for (i64 i = 0; i < 500; ++i) {
    pts.push_back({i});
    labels.push_back({3 * i - 7});
  }
  expect_equivalent(pts, labels, 1, 1);
}

TEST(StrideRuns, NestedLoopRunsMatchPointAtATime) {
  // 2-D nest: the inner loop is a stride run, the outer iteration breaks
  // it (column reset), exercising flush + restart each row.
  std::vector<std::vector<i64>> pts, labels;
  for (i64 i = 0; i < 20; ++i)
    for (i64 j = 0; j < 30; ++j) {
      pts.push_back({i, j});
      labels.push_back({5 * i + 2 * j + 1});
    }
  expect_equivalent(pts, labels, 2, 1);
}

TEST(StrideRuns, PiecewiseBreaksMatchPointAtATime) {
  // Label function switches mid-stream: the run breaks on the label
  // stride, not just the point stride.
  std::vector<std::vector<i64>> pts, labels;
  for (i64 i = 0; i < 40; ++i) {
    pts.push_back({i});
    labels.push_back({i < 20 ? 2 * i : 1000 - i});
  }
  expect_equivalent(pts, labels, 1, 1);
}

TEST(StrideRuns, NonMonotoneStreamMatchesPointAtATime) {
  // Duplicate and backwards points: the lexicographic forfeit must fire
  // at the same position on both paths.
  std::vector<std::vector<i64>> pts = {{0}, {1}, {2}, {2}, {2}, {1}, {0}};
  std::vector<std::vector<i64>> labels;
  for (const auto& p : pts) labels.push_back({p[0] * 4});
  expect_equivalent(pts, labels, 1, 1);
}

TEST(StrideRuns, CollapseTrippingStreamMatchesPointAtATime) {
  FolderOptions opts;
  opts.max_pieces = 4;
  std::vector<std::vector<i64>> pts, labels;
  for (i64 i = 0; i < 64; ++i) {
    pts.push_back({i});
    labels.push_back({(i * 7919) % 1000});
  }
  expect_equivalent(pts, labels, 1, 1, opts);
}

TEST(StrideRuns, CollapsedRunsMatchPointAtATime) {
  // Runs that keep arriving after the piece cap tripped: a collapsed
  // folder merges each run's endpoints into its bounds instead of routing
  // it. Rows alternate direction so the octagon rows' extremes come from
  // both run ends.
  FolderOptions opts;
  opts.max_pieces = 3;
  std::vector<std::vector<i64>> pts, labels;
  for (i64 i = 0; i < 40; ++i) {
    for (i64 j = 0; j < 25; ++j) {
      const i64 col = i % 2 == 0 ? j : 24 - j;
      pts.push_back({i, col});
      labels.push_back({(i * 7919) % 1000 + col * (i % 5), i - col});
    }
  }
  expect_equivalent(pts, labels, 2, 2, opts);
}

TEST(StrideRuns, OneStepRunAbsorptionExtendsHullAtSecondPoint) {
  // The chunk of (0,0),(1,0) spans the line y = 0 and fits the constant
  // 5. The run from (3,0) lies on that line at its base but leaves it at
  // its second point, so absorbing the run in one step must still add
  // (3,1) to the basis; otherwise (4,7) would look off the hull and be
  // refitted into the chunk instead of opening its own.
  std::vector<std::vector<i64>> pts = {{0, 0}, {1, 0}, {3, 0},
                                       {3, 1}, {3, 2}, {4, 7}};
  std::vector<std::vector<i64>> labels = {{5}, {5}, {5}, {5}, {5}, {9}};
  expect_equivalent(pts, labels, 2, 1);
}

TEST(StrideRuns, FinishMidRunMatchesPointAtATime) {
  FolderOptions on, off;
  on.stride_runs = true;
  off.stride_runs = false;
  Folder f_on(1, 1, on), f_off(1, 1, off);
  for (i64 i = 0; i < 10; ++i) {
    i64 pt[1] = {i};
    f_on.add(pt, std::vector<i64>{i});
    f_off.add(pt, std::vector<i64>{i});
  }
  // finish() lands while a run is pending; it must flush and match.
  EXPECT_EQ(describe(f_on.finish()), describe(f_off.finish()));
  // The folder keeps streaming after finish on both paths.
  for (i64 i = 0; i < 6; ++i) {
    i64 pt[1] = {i};
    f_on.add(pt, std::vector<i64>{9 * i});
    f_off.add(pt, std::vector<i64>{9 * i});
  }
  EXPECT_EQ(describe(f_on.finish()), describe(f_off.finish()));
}

TEST(StrideRuns, RandomStreamSweepMatchesPointAtATime) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<u64>(seed) + 17);
    std::size_t dim = static_cast<std::size_t>(rng.next(1, 3));
    std::size_t ldim = static_cast<std::size_t>(rng.next(0, 2));
    std::vector<std::vector<i64>> pts, labels;
    std::vector<i64> cur(dim, 0);
    int n = static_cast<int>(rng.next(5, 120));
    for (int k = 0; k < n; ++k) {
      // Mostly regular advance with occasional jumps/backsteps so runs of
      // every length (including none) appear.
      if (rng.next(0, 9) == 0) {
        for (auto& c : cur) c = rng.next(-20, 20);
      } else {
        cur[dim - 1] += rng.next(0, 2);
      }
      pts.push_back(cur);
      std::vector<i64> lab;
      for (std::size_t j = 0; j < ldim; ++j) {
        i64 v = 0;
        for (std::size_t i = 0; i < dim; ++i)
          v += static_cast<i64>(i + 2) * cur[i];
        // A sprinkling of non-affine noise fragments pieces.
        if (rng.next(0, 14) == 0) v += rng.next(1, 50);
        lab.push_back(v + static_cast<i64>(j));
      }
      labels.push_back(lab);
    }
    FolderOptions opts;
    opts.max_pieces = static_cast<std::size_t>(rng.next(3, 64));
    expect_equivalent(pts, labels, dim, ldim, opts);
  }
}

TEST(StrideRuns, HullFastPathHandlesDecreasingPivotRows) {
  // Regression: the fraction-free hull-membership fast path reduces with
  // suffix-only rescaling, which is sound only when rows are visited in
  // increasing pivot order. Basis discovery order (0,2) then (32,0)
  // produces RREF rows with pivots [1, 0]; the third point lies in their
  // affine hull (3/2·(0,2) − 1/2·(32,0)), and a wrong "outside" verdict
  // from the fast path makes absorb call extend_basis, which then traps
  // on the exact check. No labels, so routing always picks the MRU piece.
  std::vector<std::vector<i64>> pts = {{0, 2}, {32, 0}, {-16, 3}};
  std::vector<std::vector<i64>> labels = {{}, {}, {}};
  expect_equivalent(pts, labels, 2, 0);
}

TEST(CollapseGuard, StopsAccumulatingPiecesPastCap) {
  FolderOptions opts;
  opts.max_pieces = 4;
  Folder f(1, 1, opts);
  // Every point breaks the previous fit: thousands of closes. The guard
  // must keep the result at one collapsed piece and the full observed
  // count, without accumulating closed pieces past the cap internally.
  for (i64 i = 0; i < 4096; ++i) {
    i64 pt[1] = {i};
    f.add(pt, std::vector<i64>{(i * 7919) % 100003});
  }
  PolySet s = f.finish();
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_FALSE(s.pieces()[0].exact);
  EXPECT_EQ(s.pieces()[0].observed_points, 4096u);
  auto b = s.pieces()[0].domain.var_bounds(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, 0);
  EXPECT_EQ(b->second, 4095);
  // A second round after finish() starts clean.
  for (i64 i = 0; i < 8; ++i) {
    i64 pt[1] = {i};
    f.add(pt, std::vector<i64>{2 * i});
  }
  PolySet s2 = f.finish();
  ASSERT_EQ(s2.pieces().size(), 1u);
  EXPECT_TRUE(s2.pieces()[0].exact);
}

TEST(OverflowRegression, OctagonSumPastInt64DegradesInsteadOfTrapping) {
  // Octagon sum/difference rows hold i128 bounds: with coordinates at the
  // int64 extremes the difference x - y reaches 2^64 - 3 > INT64_MAX.
  // The seed folder trapped ("i128 value exceeds int64 range"); now the
  // offending bound is dropped and the piece degrades to inexact.
  const i64 M = std::numeric_limits<i64>::max();
  Folder f(2, 0);
  {
    i64 pt[2] = {M - 1, -M};
    f.add(pt, {});
  }
  {
    i64 pt[2] = {M, -M};
    f.add(pt, {});
  }
  {
    i64 pt[2] = {M, -M + 1};
    f.add(pt, {});
  }
  PolySet s;
  EXPECT_NO_THROW(s = f.finish());
  ASSERT_EQ(s.pieces().size(), 1u);
  EXPECT_FALSE(s.pieces()[0].exact);
  EXPECT_EQ(s.pieces()[0].observed_points, 3u);
  // The single-variable bounds survive; only the wild pair rows dropped.
  auto bx = s.pieces()[0].domain.var_bounds(0);
  ASSERT_TRUE(bx.has_value());
  EXPECT_EQ(bx->first, M - 1);
  EXPECT_EQ(bx->second, M);
}

TEST(OctagonCount, ClosedFormAgreesWithEnumeration) {
  // Random 2-D streams: the closed-form 2-D octagon counter decides
  // exactness; it must agree with what public enumeration reports for
  // the emitted domain.
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<u64>(seed) * 977 + 3);
    Folder f(2, 0);
    i64 lo = rng.next(-8, 0), hi = rng.next(1, 9);
    bool tri = rng.next(0, 1) == 1;
    u64 fed = 0;
    for (i64 i = lo; i <= hi; ++i)
      for (i64 j = lo; j <= (tri ? i : hi); ++j) {
        i64 pt[2] = {i, j};
        f.add(pt, {});
        ++fed;
      }
    if (fed == 0) continue;
    PolySet s = f.finish();
    ASSERT_EQ(s.pieces().size(), 1u);
    const auto& p = s.pieces()[0];
    auto n = p.domain.count_points();
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(p.exact, *n == p.observed_points) << "seed " << seed;
    EXPECT_TRUE(p.exact) << "seed " << seed;  // dense nests fold exactly
  }
}

}  // namespace
}  // namespace pp::fold
