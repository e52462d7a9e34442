#include "scheduler/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "support/diag.hpp"
#include "support/matrix.hpp"

namespace pp::scheduler {

namespace {

// Legality verdict of one candidate row against one dependence.
struct DepVerdict {
  bool weak = true;      ///< min latency difference >= 0 on every piece
  bool carried = true;   ///< min > 0 on every piece (strictly satisfied)
  bool zero = true;      ///< distance identically 0 (parallelism)
};

// phi_dst(t) - phi_src(A(t)) as an affine expression over dst coordinates,
// restricted to the statements' COMMON loop levels. Beyond the common
// nesting the dependence is loop-independent: it is satisfied by the
// preserved statement order (the scalar dimensions of a 2d+1 schedule,
// which this row model elides), so deeper rows place no constraint on it.
// Number of loops the two statements actually share: the common prefix of
// their loop paths (falling back to min depth when paths are not known).
std::size_t shared_depth(const SchedStatement& src, const SchedStatement& dst) {
  if (src.loop_path.size() != src.depth || dst.loop_path.size() != dst.depth)
    return std::min(src.depth, dst.depth);
  std::size_t n = 0;
  while (n < src.loop_path.size() && n < dst.loop_path.size() &&
         src.loop_path[n] == dst.loop_path[n])
    ++n;
  return n;
}

poly::AffineExpr latency_diff(const std::vector<i64>& row, std::size_t common,
                              std::size_t dst_depth,
                              const poly::Piece& piece) {
  std::size_t dim = piece.domain.dim();
  PP_CHECK(dim == dst_depth, "dep piece dimension mismatch");
  poly::AffineExpr diff(dim);
  for (std::size_t i = 0; i < common && i < row.size(); ++i) {
    if (row[i] == 0) continue;
    diff = diff + poly::AffineExpr::var(dim, i) * row[i];
    diff = diff - piece.label_fn.output(i) * row[i];
  }
  return diff;
}

DepVerdict check_dep(const std::vector<i64>& row, const SchedStatement& src,
                     const SchedStatement& dst, const SchedDep& dep) {
  DepVerdict v;
  std::size_t common = shared_depth(src, dst);
  if (common == 0) {
    // No shared loops: distributed statement order satisfies the
    // dependence at the (elided) scalar level; no row is constrained.
    v.carried = false;
    return v;
  }
  for (const auto& piece : dep.pieces) {
    if (!piece.label_exact) {
      v.weak = false;
      v.carried = false;
      v.zero = false;
      return v;
    }
    poly::AffineExpr diff = latency_diff(row, common, dst.depth, piece);
    poly::BoundResult lo = piece.domain.minimize(diff);
    if (lo.status == poly::LpStatus::kInfeasible) continue;  // empty piece
    if (lo.status != poly::LpStatus::kOptimal) {
      // Unbounded below: cannot be legal.
      v.weak = v.carried = v.zero = false;
      return v;
    }
    if (lo.value < Rat(0)) v.weak = false;
    if (!(lo.value > Rat(0))) v.carried = false;
    // The max only matters for the zero-distance verdict, which needs
    // min == max == 0: skip the second LP unless the min is exactly 0
    // and the aggregate zero verdict is still alive.
    bool piece_zero = false;
    if (v.zero && lo.value == Rat(0)) {
      poly::BoundResult hi = piece.domain.maximize(diff);
      piece_zero =
          hi.status == poly::LpStatus::kOptimal && hi.value == Rat(0);
    }
    if (!piece_zero) v.zero = false;
    if (!v.weak) {
      v.carried = false;
      return v;
    }
  }
  return v;
}

// Candidate schedule rows for aligned depth D: unit vectors (permutations)
// first, then small skews.
struct Candidate {
  std::vector<i64> row;
  bool skew = false;
};

std::vector<Candidate> make_candidates(std::size_t d, const Options& opts) {
  std::vector<Candidate> out;
  for (std::size_t i = 0; i < d; ++i) {
    std::vector<i64> r(d, 0);
    r[i] = 1;
    out.push_back({std::move(r), false});
  }
  if (opts.identity_only) return out;  // unit rows only (original order)
  if (opts.allow_skew && d >= 2) {
    auto add = [&](std::size_t i, std::size_t j, i64 ci, i64 cj) {
      std::vector<i64> r(d, 0);
      r[i] = ci;
      r[j] = cj;
      out.push_back({std::move(r), true});
    };
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) {
        add(i, j, 1, 1);
        add(i, j, 1, -1);
        add(i, j, -1, 1);
        for (i64 c = 2; c <= opts.max_skew_coeff; ++c) {
          add(i, j, c, 1);
          add(i, j, 1, c);
        }
      }
    }
  }
  return out;
}

bool lin_indep(const std::vector<std::vector<i64>>& rows,
               const std::vector<i64>& candidate) {
  RatMatrix m(0, candidate.size());
  for (const auto& r : rows) {
    RatVec rv(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) rv[i] = Rat(r[i]);
    m.push_row(rv);
  }
  RatVec cv(candidate.size());
  for (std::size_t i = 0; i < candidate.size(); ++i) cv[i] = Rat(candidate[i]);
  return m.rows() == 0 || !m.row_space_contains(cv);
}

// Schedules one fused group of statements.
GroupSchedule schedule_group(const Problem& problem, std::vector<int> stmts,
                             const Options& opts) {
  GroupSchedule g;
  std::sort(stmts.begin(), stmts.end());
  g.stmts = stmts;
  std::map<int, const SchedStatement*> by_id;
  for (const auto& s : problem.statements) by_id[s.id] = &s;
  std::set<int> in_group(stmts.begin(), stmts.end());
  std::size_t depth = 0;
  for (int id : stmts) {
    g.ops += by_id.at(id)->ops;
    depth = std::max(depth, by_id.at(id)->depth);
  }
  if (depth == 0) return g;

  // Dependences internal to this group.
  std::vector<const SchedDep*> deps;
  for (const auto& d : problem.deps) {
    if (in_group.count(d.src) && in_group.count(d.dst)) deps.push_back(&d);
  }
  // Opaque dependences force the identity schedule with no feedback —
  // unless the endpoints share no loops, in which case statement order
  // already satisfies them.
  for (const auto* d : deps) {
    if (shared_depth(*by_id.at(d->src), *by_id.at(d->dst)) == 0) continue;
    for (const auto& p : d->pieces) {
      if (!p.label_exact) g.schedulable = false;
    }
  }

  std::vector<Candidate> candidates = make_candidates(depth, opts);
  std::vector<std::vector<i64>> chosen;
  std::set<std::size_t> active;  // indices into deps
  for (std::size_t i = 0; i < deps.size(); ++i) active.insert(i);
  std::set<std::size_t> band_start_active = active;
  bool first_level_of_band = true;

  // A verdict depends only on (row, dep) — not on the level. The level
  // loop re-visits the same candidate rows, the band-legality pass
  // re-checks deps the scoring pass already solved, and the chosen row is
  // checked a third time when carried deps are retired. Each check is a
  // min (and maybe a max) per dependence piece — closed form on boxes, a
  // simplex solve otherwise — so cache verdicts for the whole group
  // search.
  std::vector<std::optional<DepVerdict>> vcache(candidates.size() *
                                                deps.size());
  auto checked = [&](std::size_t ci, std::size_t di) -> const DepVerdict& {
    std::optional<DepVerdict>& slot = vcache[ci * deps.size() + di];
    if (!slot) {
      const SchedDep& d = *deps[di];
      slot = check_dep(candidates[ci].row, *by_id.at(d.src),
                       *by_id.at(d.dst), d);
    }
    return *slot;
  };

  for (std::size_t level = 0; level < depth; ++level) {
    if (!g.schedulable) {
      // Identity fallback row.
      std::vector<i64> r(depth, 0);
      r[level] = 1;
      Level lv;
      lv.row = r;
      lv.new_band = true;  // each level its own (non-permutable) band
      g.levels.push_back(lv);
      chosen.push_back(r);
      continue;
    }

    struct Scored {
      const Candidate* cand;
      DepVerdict agg;            // vs active
      bool band_legal;           // weak vs band_start_active
      int order;
    };
    std::optional<Scored> best;
    auto better = [](const Scored& a, const Scored& b) {
      // Prefer: stays in band, then parallel, then non-skew, then
      // generation order (identity-like permutations first).
      if (a.band_legal != b.band_legal) return a.band_legal;
      if (a.agg.zero != b.agg.zero) return a.agg.zero;
      if (a.cand->skew != b.cand->skew) return !a.cand->skew;
      return a.order < b.order;
    };
    int order = 0;
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      const Candidate& cand = candidates[ci];
      ++order;
      // Approximate mode: only the original loop order's row at this level.
      if (opts.identity_only && ci != level) continue;
      if (!lin_indep(chosen, cand.row)) continue;
      DepVerdict agg;
      agg.carried = !active.empty();
      bool weak_active = true;
      for (std::size_t di : active) {
        const DepVerdict& v = checked(ci, di);
        if (!v.weak) {
          weak_active = false;
          break;
        }
        agg.zero = agg.zero && v.zero;
        agg.carried = agg.carried && v.carried;
      }
      if (!weak_active) continue;
      bool band_legal = true;
      for (std::size_t di : band_start_active) {
        if (active.count(di)) continue;  // already checked
        const DepVerdict& v = checked(ci, di);
        if (!v.weak) {
          band_legal = false;
          break;
        }
      }
      Scored s{&cand, agg, band_legal, order};
      if (!best || better(s, *best)) best = s;
    }

    Level lv;
    if (!best) {
      // Over-approximate domains can make even the identity row look
      // illegal; fall back to it and degrade the level's feedback.
      std::vector<i64> r(depth, 0);
      r[level] = 1;
      lv.row = r;
      lv.new_band = true;
      band_start_active = active;
      first_level_of_band = true;
      g.levels.push_back(lv);
      chosen.push_back(r);
      continue;
    }

    lv.row = best->cand->row;
    lv.skew = best->cand->skew;
    lv.parallel = best->agg.zero && !active.empty();
    if (active.empty()) lv.parallel = true;  // no dependences at all
    lv.new_band = first_level_of_band || !best->band_legal;
    if (lv.new_band && !first_level_of_band) band_start_active = active;
    first_level_of_band = false;

    // Remove carried dependences.
    const std::size_t best_ci = static_cast<std::size_t>(best->order - 1);
    std::set<std::size_t> still_active;
    for (std::size_t di : active) {
      if (checked(best_ci, di).carried)
        lv.carries = true;
      else
        still_active.insert(di);
    }
    active = std::move(still_active);

    chosen.push_back(lv.row);
    g.levels.push_back(lv);
  }
  if (!g.levels.empty()) g.levels[0].new_band = true;
  return g;
}

}  // namespace

int GroupSchedule::tile_depth() const {
  int best = 0, run = 0;
  for (const auto& lv : levels) {
    if (lv.new_band) run = 0;
    ++run;
    best = std::max(best, run);
  }
  return best;
}

bool GroupSchedule::fully_permutable() const {
  if (levels.empty()) return false;
  for (std::size_t i = 1; i < levels.size(); ++i)
    if (levels[i].new_band) return false;
  return true;
}

bool GroupSchedule::uses_skew() const {
  for (const auto& lv : levels)
    if (lv.skew) return true;
  return false;
}

bool GroupSchedule::band_spans(std::size_t from, std::size_t to) const {
  if (from > to || to >= levels.size()) return false;
  for (std::size_t i = from; i <= to; ++i) {
    const Level& lv = levels[i];
    // A band break anywhere past the first queried level splits the range.
    if (i > from && lv.new_band) return false;
    if (lv.skew) return false;
    std::size_t nonzero = 0;
    for (i64 c : lv.row)
      if (c != 0) ++nonzero;
    bool unit = nonzero == 1;
    for (i64 c : lv.row)
      if (c != 0 && c != 1) unit = false;
    if (!unit) return false;
  }
  return true;
}

int ScheduleResult::num_components(double min_fraction, u64 total_ops) const {
  int n = 0;
  for (const auto& g : groups) {
    if (total_ops == 0 ||
        static_cast<double>(g.ops) > min_fraction * static_cast<double>(total_ops))
      ++n;
  }
  return std::max(n, groups.empty() ? 0 : 1);
}

ScheduleResult schedule(const Problem& problem, const Options& opts) {
  ScheduleResult res;
  if (opts.cancel != nullptr && opts.cancel->poll())
    throw Error("job cancelled during scheduling");
  if (problem.statements.empty()) return res;

  // Fusion structure: one group (maxfuse) or dependence-connected
  // components (smartfuse).
  std::vector<std::vector<int>> groups;
  if (opts.fusion == FusionHeuristic::kMaxFuse) {
    std::vector<int> all;
    for (const auto& s : problem.statements) all.push_back(s.id);
    groups.push_back(std::move(all));
  } else {
    // Union-find over dependence edges.
    std::map<int, int> parent;
    std::function<int(int)> find = [&](int x) {
      auto it = parent.find(x);
      if (it == parent.end() || it->second == x) {
        parent[x] = x;
        return x;
      }
      return parent[x] = find(it->second);
    };
    for (const auto& s : problem.statements) find(s.id);
    for (const auto& d : problem.deps) parent[find(d.src)] = find(d.dst);
    std::map<int, std::vector<int>> by_root;
    for (const auto& s : problem.statements)
      by_root[find(s.id)].push_back(s.id);
    for (auto& [_, v] : by_root) groups.push_back(std::move(v));
  }

  // Fused groups are dependence-disjoint: schedule each independently.
  obs::Span sched_span(opts.obs, "sched:groups");
  if (opts.obs != nullptr) {
    opts.obs->add("sched.groups", static_cast<i64>(groups.size()));
    opts.obs->add("sched.statements",
                  static_cast<i64>(problem.statements.size()));
  }
  res.groups.reserve(groups.size());
  for (std::vector<int>& g : groups) {
    // Per-group checkpoint (cancelled() only — the poll()s at the
    // boundaries fire the deadline).
    if (opts.cancel != nullptr && opts.cancel->cancelled())
      throw Error("job cancelled during scheduling");
    res.groups.push_back(schedule_group(problem, std::move(g), opts));
  }
  // Execution order: by first statement id (ids are first-touch order).
  std::sort(res.groups.begin(), res.groups.end(),
            [](const GroupSchedule& a, const GroupSchedule& b) {
              return a.stmts.front() < b.stmts.front();
            });
  return res;
}

std::vector<ParamAssignment> parameterize_constants(
    const std::vector<i128>& constants, i128 threshold, i128 window) {
  std::vector<ParamAssignment> out;
  std::vector<i128> anchors;
  for (i128 c : constants) {
    ParamAssignment a;
    a.value = c;
    i128 mag = c < 0 ? -c : c;
    if (mag >= threshold) {
      for (std::size_t p = 0; p < anchors.size(); ++p) {
        i128 diff = c - anchors[p];
        if (diff <= window && diff >= -window) {
          a.param = static_cast<int>(p);
          a.offset = diff;
          break;
        }
      }
      if (a.param < 0) {
        a.param = static_cast<int>(anchors.size());
        a.offset = 0;
        anchors.push_back(c);
      }
    }
    out.push_back(a);
  }
  return out;
}

}  // namespace pp::scheduler
