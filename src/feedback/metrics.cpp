#include "feedback/metrics.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace pp::feedback {

// A 64-byte line with an 8-cycle miss penalty: stride-0 hits, stride-8
// misses once per 8 accesses, anything at or beyond a line misses always.
double access_cost(std::optional<i64> stride) {
  if (!stride) return 9.0;  // non-affine: assume a miss per access
  i64 s = *stride < 0 ? -*stride : *stride;
  if (s == 0) return 1.0;
  if (s >= 64) return 9.0;
  return 1.0 + static_cast<double>(s) / 64.0 * 8.0;
}

namespace {

// Innermost-band dimensions that a permutation may rotate into the
// innermost position: the unit-vector rows of the last permutable band
// (skewed rows are not permutation candidates). A fully permutable group
// exposes every unit row.
std::vector<std::size_t> innermost_candidates(
    const scheduler::GroupSchedule& g) {
  std::vector<std::size_t> dims;
  if (g.levels.empty()) return dims;
  std::size_t band_start = 0;
  for (std::size_t i = 0; i < g.levels.size(); ++i)
    if (g.levels[i].new_band) band_start = i;
  for (std::size_t i = band_start; i < g.levels.size(); ++i) {
    const auto& row = g.levels[i].row;
    std::size_t nz = 0, dim = 0;
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (row[k] != 0) {
        ++nz;
        dim = k;
      }
    }
    if (nz == 1 && row[dim] == 1) dims.push_back(dim);
  }
  return dims;
}

}  // namespace

scheduler::Problem make_problem(const fold::FoldedProgram& prog,
                                const std::vector<int>& stmt_ids) {
  scheduler::Problem problem;
  std::set<int> wanted;
  // Loop identities: a loop is identified by its full context prefix, not
  // just its static id — two activations of the same static loop from
  // different call sites are different nests and share no iterations.
  std::map<std::vector<iiv::CtxElem>, int> loop_ids;
  for (int id : stmt_ids) {
    const auto& s = prog.stmt(id);
    if (s.is_scev) continue;  // pruned bookkeeping
    wanted.insert(id);
    scheduler::SchedStatement ss;
    ss.id = id;
    ss.depth = s.meta.depth;
    ss.ops = s.meta.executions;
    std::vector<iiv::CtxElem> prefix;
    for (const auto& part : s.meta.context.parts) {
      for (const auto& e : part) prefix.push_back(e);
      const auto& e = part.empty() ? iiv::CtxElem::block(-1, -1) : part.back();
      if (e.kind == iiv::CtxElem::Kind::kBlock) continue;  // trailing part
      auto [it, _] =
          loop_ids.try_emplace(prefix, static_cast<int>(loop_ids.size()));
      ss.loop_path.push_back(it->second);
    }
    PP_CHECK(ss.loop_path.size() == ss.depth,
             "loop path / depth mismatch in folded context");
    for (const auto& piece : s.domain.pieces())
      ss.domain_pieces.push_back(piece.domain);
    problem.statements.push_back(std::move(ss));
  }
  for (const auto& d : prog.deps) {
    if (!wanted.count(d.src) || !wanted.count(d.dst)) continue;
    scheduler::SchedDep sd;
    sd.src = d.src;
    sd.dst = d.dst;
    sd.pieces = d.relation.pieces();
    problem.deps.push_back(std::move(sd));
  }
  return problem;
}

double percent_affine(const fold::FoldedProgram& prog, bool strict) {
  if (prog.total_dynamic_ops == 0) return 0.0;
  return 100.0 * static_cast<double>(prog.fully_affine_ops(strict)) /
         static_cast<double>(prog.total_dynamic_ops);
}

void refresh_schedule_metrics(RegionMetrics& m) {
  m.tile_depth = 0;
  m.skew_used = false;
  m.schedulable = true;
  m.parallel_ops = m.simd_ops = m.tilable_ops = 0;
  u64 grouped_ops = 0, parallel_grouped = 0, simd_grouped = 0,
      tilable_grouped = 0;
  for (const auto& g : m.sched.groups) {
    if (g.levels.empty()) continue;
    grouped_ops += g.ops;
    m.tile_depth = std::max(m.tile_depth, g.tile_depth());
    m.skew_used = m.skew_used || g.uses_skew();
    m.schedulable = m.schedulable && g.schedulable;
    if (!g.schedulable) continue;
    tilable_grouped += g.ops;
    // Coarse parallelism: some parallel level exists that is (or can be
    // permuted) non-innermost, or the single loop level is parallel.
    bool any_parallel = false, inner_band_parallel = false;
    std::size_t band_start = 0;
    for (std::size_t i = 0; i < g.levels.size(); ++i)
      if (g.levels[i].new_band) band_start = i;
    for (std::size_t i = 0; i < g.levels.size(); ++i) {
      if (!g.levels[i].parallel) continue;
      any_parallel = true;
      if (i >= band_start) inner_band_parallel = true;
    }
    // Wavefront rule (paper §8): "tiled code can always be also
    // coarse-grain parallelized using wavefront parallelism" — a tilable
    // band counts as parallelizable even without a parallel row, at the
    // price of skewing the tile schedule.
    bool wavefront = g.tile_depth() >= 2 && !any_parallel;
    if (any_parallel || wavefront) parallel_grouped += g.ops;
    if (wavefront) m.skew_used = true;
    if (inner_band_parallel) simd_grouped += g.ops;
  }
  // Scale the grouped verdicts to the full region: the paper counts ALL
  // dynamic operations of a parallel loop ("all its operations are
  // considered to be parallelizable"), including the pruned SCEV
  // bookkeeping inside it — attribute it proportionally.
  if (grouped_ops > 0) {
    auto scale = [&](u64 part) {
      return static_cast<u64>(static_cast<double>(m.ops) *
                              static_cast<double>(part) /
                              static_cast<double>(grouped_ops));
    };
    m.parallel_ops = scale(parallel_grouped);
    m.simd_ops = scale(simd_grouped);
    m.tilable_ops = scale(tilable_grouped);
  }
}

RegionMetrics analyze_region(const fold::FoldedProgram& prog, Region region,
                             const AnalyzeOptions& opts) {
  RegionMetrics m;
  m.region = region;
  m.fusion =
      opts.sched.fusion == scheduler::FusionHeuristic::kMaxFuse ? 'M' : 'S';

  std::vector<bool> affine = prog.affine_flags();
  std::set<int> in_region(region.stmts.begin(), region.stmts.end());
  for (int id : region.stmts) {
    const auto& s = prog.stmt(id);
    m.ops += s.meta.executions;
    if (s.meta.is_memory) m.mem_ops += s.meta.executions;
    if (s.meta.is_fp) m.fp_ops += s.meta.executions;
    if (affine[static_cast<std::size_t>(id)]) m.affine_ops += s.meta.executions;
    m.max_loop_depth = std::max(m.max_loop_depth, static_cast<int>(s.meta.depth));
  }

  // Schedule the region.
  scheduler::Problem problem = make_problem(prog, region.stmts);
  m.sched = scheduler::schedule(problem, opts.sched);

  // Original component count: distinct outermost loop contexts carrying
  // more than the threshold fraction of the region's ops.
  std::map<iiv::CtxElem, u64> outer_loops;
  for (int id : region.stmts) {
    const auto& s = prog.stmt(id);
    for (const auto& part : s.meta.context.parts) {
      bool found = false;
      for (const auto& e : part) {
        if (e.kind != iiv::CtxElem::Kind::kBlock) {
          outer_loops[e] += s.meta.executions;
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  for (const auto& [_, w] : outer_loops) {
    if (static_cast<double>(w) >
        opts.component_threshold * static_cast<double>(m.ops))
      ++m.components_before;
  }
  if (m.components_before == 0 && !outer_loops.empty()) m.components_before = 1;
  m.components_after = m.sched.num_components(opts.component_threshold, m.ops);

  // Per-group transformation potential.
  double cost_before = 0.0, cost_after = 0.0;
  std::map<int, const scheduler::GroupSchedule*> group_of;
  for (const auto& g : m.sched.groups)
    for (int id : g.stmts) group_of[id] = &g;

  refresh_schedule_metrics(m);

  // Reuse / potential reuse and the locality cost model.
  for (int id : region.stmts) {
    const auto& s = prog.stmt(id);
    if (!s.meta.is_memory) {
      // Non-memory ops cost one cycle; SIMD-able groups amortize 4 lanes.
      double c = static_cast<double>(s.meta.executions);
      cost_before += c;
      auto it = group_of.find(id);
      bool simd = it != group_of.end() && !it->second->levels.empty() &&
                  it->second->schedulable &&
                  [&] {
                    std::size_t bs = 0;
                    for (std::size_t i = 0; i < it->second->levels.size(); ++i)
                      if (it->second->levels[i].new_band) bs = i;
                    for (std::size_t i = bs; i < it->second->levels.size(); ++i)
                      if (it->second->levels[i].parallel) return true;
                    return false;
                  }();
      cost_after += simd && s.meta.is_fp ? c / 4.0 : c;
      continue;
    }
    u64 e = s.meta.executions;
    std::optional<i64> cur_stride;
    if (s.meta.depth > 0)
      cur_stride = s.stride_along(s.meta.depth - 1);
    else if (s.affine_access() != nullptr)
      cur_stride = 0;  // scalar access: perfect temporal locality
    if (cur_stride && (*cur_stride == 0 || *cur_stride == kElemBytes ||
                       *cur_stride == -kElemBytes))
      m.reuse_mem_ops += e;
    cost_before += static_cast<double>(e) * access_cost(cur_stride);

    // Best stride achievable by rotating an innermost-band dimension in.
    std::optional<i64> best = cur_stride;
    auto it = group_of.find(id);
    if (it != group_of.end() && it->second->schedulable) {
      for (std::size_t dim : innermost_candidates(*it->second)) {
        if (dim >= s.meta.depth) continue;
        auto st = s.stride_along(dim);
        if (!st) continue;
        if (!best || access_cost(st) < access_cost(best)) best = st;
      }
    }
    if (best && (*best == 0 || *best == kElemBytes || *best == -kElemBytes))
      m.preuse_mem_ops += e;
    cost_after += static_cast<double>(e) * access_cost(best);
  }
  m.est_speedup = cost_after > 0.0 ? cost_before / cost_after : 1.0;

  // Transformation suggestions.
  if (!m.schedulable) {
    m.suggestions.push_back(
        "no structured transformation: non-affine dependences in region");
  } else {
    if (m.preuse_mem_ops > m.reuse_mem_ops)
      m.suggestions.push_back(
          "interchange: rotate the stride-0/1 dimension innermost "
          "(raises stride-0/1 accesses from " +
          std::to_string(m.reuse_mem_ops) + " to " +
          std::to_string(m.preuse_mem_ops) + ")");
    if (m.skew_used) m.suggestions.push_back("skew: wavefront the band");
    if (m.tile_depth >= 2)
      m.suggestions.push_back("tile: permutable band of depth " +
                              std::to_string(m.tile_depth));
    if (m.parallel_ops > 0)
      m.suggestions.push_back("parallelize: OMP PARALLEL DO on the outer "
                              "parallel loop");
    if (m.simd_ops > 0)
      m.suggestions.push_back("vectorize: SIMDize the parallel innermost loop");
  }
  // Scalar-expansion hint: a register-flow self-dependence carried by a
  // loop is a reduction scalar that blocks interchange until expanded.
  for (const auto& d : prog.deps) {
    if (d.kind != ddg::DepKind::kRegFlow) continue;
    if (!in_region.count(d.src) || !in_region.count(d.dst)) continue;
    if (d.src != d.dst) continue;
    for (const auto& piece : d.relation.pieces()) {
      if (!piece.label_exact) continue;
      // Distance nonzero anywhere?
      bool carried = false;
      for (std::size_t i = 0; i < piece.label_fn.out_dim(); ++i) {
        poly::AffineExpr diff = poly::AffineExpr::var(piece.domain.dim(), i) -
                                piece.label_fn.output(i);
        auto hi = piece.domain.maximize(diff);
        if (hi.status == poly::LpStatus::kOptimal && hi.value > Rat(0))
          carried = true;
      }
      if (carried) {
        m.suggestions.push_back(
            "array-expand: scalar reduction carried across iterations");
        break;
      }
    }
  }
  // De-duplicate suggestions.
  std::sort(m.suggestions.begin(), m.suggestions.end());
  m.suggestions.erase(std::unique(m.suggestions.begin(), m.suggestions.end()),
                      m.suggestions.end());

  // §6 parameterization: gather the large constants of the region's folded
  // domains and count the parameters the ±20-window rewrite introduces
  // ("we implemented a parameterization of iteration domains, to replace
  // those constants by a parameter").
  {
    std::vector<i128> consts;
    for (int id : region.stmts) {
      const auto& s = prog.stmt(id);
      for (const auto& piece : s.domain.pieces())
        for (const auto& c : piece.domain.constraints())
          consts.push_back(c.expr.const_term());
    }
    auto assignments = scheduler::parameterize_constants(consts);
    std::set<int> params;
    for (const auto& a : assignments)
      if (a.param >= 0) params.insert(a.param);
    m.domain_parameters = static_cast<int>(params.size());
  }
  return m;
}

}  // namespace pp::feedback
