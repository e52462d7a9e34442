// Scheduler soundness fuzzing: for random dependence sets, every verdict
// the LP-based legality analysis produced is re-verified by brute force —
// enumerate each dependence piece's lattice points and check the chosen
// rows' latency differences directly:
//  * weakly legal rows never see a negative distance before the carrying
//    level,
//  * a level marked `carries` has a strictly positive distance on some
//    dependence whose earlier distances were all zero-or-positive,
//  * a level marked `parallel` has distance exactly zero for every
//    dependence still active at it.
#include <gtest/gtest.h>

#include "scheduler/scheduler.hpp"

namespace pp::scheduler {
namespace {

using poly::AffineExpr;
using poly::AffineMap;
using poly::Polyhedron;

struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed * 0x2545f4914f6cdd1dull + 19) {}
  i64 range(i64 lo, i64 hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<i64>((state >> 33) % static_cast<u64>(hi - lo + 1));
  }
};

// Random problem: one 2-D statement with 1..3 LEX-POSITIVE shift
// dependences (dynamic flow deps always point backward in time, so random
// deltas are drawn lex-positive, as the profiler would produce).
Problem random_problem(Rng& rng) {
  Problem p;
  SchedStatement s;
  s.id = 0;
  s.depth = 2;
  s.ops = 100;
  i64 n = rng.range(4, 8);
  s.domain_pieces.push_back(Polyhedron::box({{0, n - 1}, {0, n - 1}}));
  p.statements.push_back(std::move(s));
  int ndeps = static_cast<int>(rng.range(1, 3));
  for (int k = 0; k < ndeps; ++k) {
    i64 di = rng.range(0, 2);
    i64 dj = di == 0 ? rng.range(1, 2) : rng.range(-2, 2);
    Polyhedron dom = Polyhedron::box(
        {{std::max<i64>(di, 0), n - 1},
         {std::max<i64>(dj, 0), n - 1 + std::min<i64>(dj, 0)}});
    std::vector<AffineExpr> outs = {AffineExpr::var(2, 0) - di,
                                    AffineExpr::var(2, 1) - dj};
    SchedDep d;
    d.src = d.dst = 0;
    d.pieces.push_back({std::move(dom), AffineMap(2, std::move(outs))});
    p.deps.push_back(std::move(d));
  }
  return p;
}

// Distance of `row` on dependence `d` at lattice point `t`.
i128 distance_at(const std::vector<i64>& row, const SchedDep& d,
                 std::span<const i64> t) {
  const auto& piece = d.pieces[0];
  i128 dst = 0, src = 0;
  auto srcv = piece.label_fn.eval(t);
  for (std::size_t i = 0; i < row.size(); ++i) {
    dst += static_cast<i128>(row[i]) * t[i];
    src += static_cast<i128>(row[i]) * srcv[i];
  }
  return dst - src;
}

class SchedulerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerFuzz, VerdictsHoldPointwise) {
  Rng rng(static_cast<u64>(GetParam()));
  Problem p = random_problem(rng);
  ScheduleResult r = schedule(p);
  ASSERT_EQ(r.groups.size(), 1u);
  const GroupSchedule& g = r.groups[0];
  ASSERT_EQ(g.levels.size(), 2u);

  // Per dependence: walk the levels in order; until the dependence is
  // strictly carried, every row's distance must be >= 0 at every point,
  // and rows marked parallel must see distance exactly 0.
  for (const auto& d : p.deps) {
    auto pts = d.pieces[0].domain.enumerate();
    ASSERT_TRUE(pts.has_value());
    bool carried = false;
    for (const auto& lv : g.levels) {
      if (carried) break;
      bool all_pos = !pts->empty();
      for (const auto& t : *pts) {
        i128 dist = distance_at(lv.row, d, t);
        EXPECT_GE(dist, 0) << "illegal row chosen";
        if (lv.parallel) {
          EXPECT_EQ(dist, 0) << "parallel row with movement";
        }
        if (dist <= 0) all_pos = false;
      }
      if (all_pos) carried = true;
    }
    // Lex-positive dependences must be carried by the full schedule.
    EXPECT_TRUE(carried || pts->empty())
        << "dependence never carried by any level";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz, ::testing::Range(0, 60));

}  // namespace
}  // namespace pp::scheduler
