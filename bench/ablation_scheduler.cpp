// Ablations of the scheduler's design choices (DESIGN.md):
//  1. skewing on/off — a Gauss-Seidel-style stencil is tilable only with
//     skewing (the wavefront), so disabling the skew candidates loses the
//     band;
//  2. maxfuse vs smartfuse — the Table 5 fusion column;
//  3. exact candidate search vs the approximate identity-only mode (the
//     paper's §10 "approximate (non-optimal) polyhedral scheduling
//     strategies" future work): cheaper, but interchange opportunities
//     disappear.
#include <chrono>

#include "bench_util.hpp"
#include "scheduler/scheduler.hpp"

namespace pp {
namespace {

using namespace scheduler;

Problem seidel_problem() {
  Problem p;
  SchedStatement s;
  s.id = 0;
  s.depth = 2;
  s.ops = 1000;
  s.domain_pieces.push_back(poly::Polyhedron::box({{0, 63}, {0, 63}}));
  p.statements.push_back(std::move(s));
  auto shift = [&](std::vector<i64> delta) {
    std::vector<poly::AffineExpr> outs;
    for (std::size_t i = 0; i < 2; ++i)
      outs.push_back(poly::AffineExpr::var(2, i) - delta[i]);
    SchedDep d;
    d.src = d.dst = 0;
    d.pieces.push_back({poly::Polyhedron::box({{1, 63}, {1, 63}}),
                        poly::AffineMap(2, std::move(outs))});
    p.deps.push_back(std::move(d));
  };
  shift({1, 0});
  shift({0, 1});
  shift({1, -1});
  return p;
}

void ablate_skew() {
  std::printf("== Ablation 1: skew candidates (Gauss-Seidel stencil) ==\n");
  Problem p = seidel_problem();
  for (bool skew : {false, true}) {
    Options o;
    o.allow_skew = skew;
    ScheduleResult r = schedule(p, o);
    const GroupSchedule& g = r.groups[0];
    std::printf("  allow_skew=%-5s tile depth=%d  fully permutable=%s  "
                "skewed=%s\n",
                skew ? "true" : "false", g.tile_depth(),
                g.fully_permutable() ? "yes" : "no",
                g.uses_skew() ? "yes" : "no");
  }
  std::printf("  (without skewing the band breaks after one level: no "
              "tiling, no wavefront)\n\n");
}

void ablate_fusion() {
  std::printf("== Ablation 2: fusion heuristics ==\n");
  // Three independent nests plus one producer-consumer pair.
  Problem p;
  for (int i = 0; i < 4; ++i) {
    SchedStatement s;
    s.id = i;
    s.depth = 1;
    s.ops = 1000;
    s.domain_pieces.push_back(poly::Polyhedron::box({{0, 99}}));
    p.statements.push_back(std::move(s));
  }
  SchedDep d;
  d.src = 2;
  d.dst = 3;
  d.pieces.push_back({poly::Polyhedron::box({{0, 99}}),
                      poly::AffineMap::identity(1)});
  p.deps.push_back(std::move(d));

  for (auto fusion : {FusionHeuristic::kSmartFuse, FusionHeuristic::kMaxFuse}) {
    Options o;
    o.fusion = fusion;
    ScheduleResult r = schedule(p, o);
    std::printf("  %s: %zu fused groups (Comp. = %d at the 5%% threshold)\n",
                fusion == FusionHeuristic::kMaxFuse ? "maxfuse  " : "smartfuse",
                r.groups.size(), r.num_components(0.05, 4000));
  }
  std::printf("\n");
}

void ablate_identity_only() {
  std::printf("== Ablation 3: approximate scheduling (identity-only) ==\n");
  // An interchange-needed nest: dependence (0,1) with the parallel
  // dimension inner... identity keeps it outer-parallel only; the full
  // search is identical here, but on a reversed-preference nest the
  // difference shows in the permutation freedom. Measure cost on a wide
  // problem instead.
  Problem p;
  for (int i = 0; i < 24; ++i) {
    SchedStatement s;
    s.id = i;
    s.depth = 3;
    s.ops = 100;
    s.domain_pieces.push_back(
        poly::Polyhedron::box({{0, 15}, {0, 15}, {0, 15}}));
    p.statements.push_back(std::move(s));
    if (i > 0) {
      SchedDep d;
      d.src = i - 1;
      d.dst = i;
      d.pieces.push_back(
          {poly::Polyhedron::box({{0, 15}, {0, 15}, {0, 15}}),
           poly::AffineMap::identity(3)});
      p.deps.push_back(std::move(d));
    }
  }
  for (bool approx : {false, true}) {
    Options o;
    o.identity_only = approx;
    o.fusion = FusionHeuristic::kMaxFuse;
    auto t0 = std::chrono::steady_clock::now();
    ScheduleResult r = schedule(p, o);
    auto t1 = std::chrono::steady_clock::now();
    std::printf("  identity_only=%-5s %.1f ms, tile depth=%d\n",
                approx ? "true" : "false",
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                r.groups[0].tile_depth());
  }
  std::printf("\n");
}

void BM_ScheduleSeidel(benchmark::State& state) {
  Problem p = seidel_problem();
  Options o;
  o.identity_only = state.range(0) != 0;
  for (auto _ : state) {
    ScheduleResult r = schedule(p, o);
    benchmark::DoNotOptimize(r.groups.size());
  }
}
BENCHMARK(BM_ScheduleSeidel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pp

int main(int argc, char** argv) {
  pp::ablate_skew();
  pp::ablate_fusion();
  pp::ablate_identity_only();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
