#include "verify/exact.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "poly/polyhedron.hpp"
#include "support/int_math.hpp"

namespace pp::verify::exact {

const char* pair_verdict_name(PairVerdict v) {
  switch (v) {
    case PairVerdict::kIndependent: return "independent";
    case PairVerdict::kDependent: return "dependent";
    case PairVerdict::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

using statican::AccessInfo;
using statican::FunctionModel;

/// Can the two bases be subtracted away? Either both global (offsets are
/// absolute addresses) or both relative to the SAME argument.
bool comparable_bases(const AccessInfo& x, const AccessInfo& y) {
  if (x.base_arg < 0 && y.base_arg < 0) return true;
  return x.base_arg >= 0 && x.base_arg == y.base_arg;
}

std::vector<std::pair<int, i64>> coeff_list(const AccessInfo& a) {
  std::vector<std::pair<int, i64>> out;
  for (const auto& [l, c] : a.coeffs)
    if (c != 0) out.emplace_back(l, c);
  return out;
}

/// The dependence system of a site pair: variables are x's coefficient
/// loops (ascending loop id) followed by y's, constrained by the address
/// equality and by every IV range the model recovered. Loops with unknown
/// ranges stay unbounded — the Omega core still reasons about them exactly
/// (so kInfeasible remains a theorem), they just widen kFeasible.
struct PairSystem {
  poly::Polyhedron p;
  std::vector<int> x_loops;
  std::vector<int> y_loops;
  bool comparable = false;
};

PairSystem pair_system(const AccessInfo& x, const FunctionModel& fmx,
                       const AccessInfo& y, const FunctionModel& fmy) {
  PairSystem s;
  if (!x.affine || !y.affine || !comparable_bases(x, y)) return s;
  const auto cx = coeff_list(x);
  const auto cy = coeff_list(y);
  const std::size_t dim = cx.size() + cy.size();
  poly::Polyhedron p(dim);
  std::vector<i64> ec(dim, 0);
  std::size_t v = 0;
  for (const auto& [l, c] : cx) {
    s.x_loops.push_back(l);
    ec[v] = c;
    const auto it = fmx.bounds.find(l);
    if (it != fmx.bounds.end() && it->second.known)
      p.bound_var(v, it->second.lo, it->second.hi);
    ++v;
  }
  for (const auto& [l, c] : cy) {
    s.y_loops.push_back(l);
    ec[v] = -c;
    const auto it = fmy.bounds.find(l);
    if (it != fmy.bounds.end() && it->second.known)
      p.bound_var(v, it->second.lo, it->second.hi);
    ++v;
  }
  p.add_eq0(poly::AffineExpr(std::move(ec), x.offset - y.offset));
  s.p = std::move(p);
  s.comparable = true;
  return s;
}

poly::Feas feas_leq(const poly::Polyhedron& p, const poly::AffineExpr& e,
                    i64 k) {
  poly::Polyhedron q = p;
  q.add_ge0(e * -1 + k);  // e <= k
  return poly::integer_feasible(q);
}

poly::Feas feas_geq(const poly::Polyhedron& p, const poly::AffineExpr& e,
                    i64 k) {
  poly::Polyhedron q = p;
  q.add_ge0(e + (-k));  // e >= k
  return poly::integer_feasible(q);
}

PairVerdict verdict_of(const PairSystem& s) {
  if (!s.comparable) return PairVerdict::kUnknown;
  switch (poly::integer_feasible(s.p)) {
    case poly::Feas::kFeasible: return PairVerdict::kDependent;
    case poly::Feas::kInfeasible: return PairVerdict::kIndependent;
    case poly::Feas::kUnknown: return PairVerdict::kUnknown;
  }
  return PairVerdict::kUnknown;
}

}  // namespace

ExactDeps::ExactDeps(const ir::Module& m, const ir::Function& f)
    : may_(m, f) {
  const std::size_t n = model().accesses.size();
  cache_.assign(n * n, PairVerdict::kUnknown);
  cached_.assign(n * n, false);
}

std::size_t ExactDeps::index_of(int block, int instr) const {
  const auto& acc = model().accesses;
  for (std::size_t i = 0; i < acc.size(); ++i)
    if (acc[i].block == block && acc[i].instr == instr) return i;
  return acc.size();
}

PairVerdict ExactDeps::verdict_by_index(std::size_t i, std::size_t j) const {
  if (i > j) std::swap(i, j);
  const std::size_t n = model().accesses.size();
  const std::size_t key = i * n + j;
  if (cached_[key]) return cache_[key];
  const PairVerdict v = verdict_of(pair_system(
      model().accesses[i], model(), model().accesses[j], model()));
  cached_[key] = true;
  cache_[key] = v;
  return v;
}

PairVerdict ExactDeps::pair_verdict(int src_block, int src_instr,
                                    int dst_block, int dst_instr) const {
  const std::size_t i = index_of(src_block, src_instr);
  const std::size_t j = index_of(dst_block, dst_instr);
  const std::size_t n = model().accesses.size();
  if (i >= n || j >= n || i == j) return PairVerdict::kUnknown;
  return verdict_by_index(i, j);
}

std::optional<DepVector> ExactDeps::dep_vector(int src_block, int src_instr,
                                               int dst_block,
                                               int dst_instr) const {
  const std::size_t i = index_of(src_block, src_instr);
  const std::size_t j = index_of(dst_block, dst_instr);
  const std::size_t n = model().accesses.size();
  if (i >= n || j >= n) return std::nullopt;
  const PairSystem s = pair_system(model().accesses[i], model(),
                                   model().accesses[j], model());
  if (!s.comparable) return std::nullopt;
  if (poly::integer_feasible(s.p) == poly::Feas::kInfeasible)
    return std::nullopt;

  DepVector dv;
  const std::size_t dim = s.p.dim();
  for (std::size_t vi = 0; vi < s.x_loops.size(); ++vi) {
    const int loop = s.x_loops[vi];
    const auto wit =
        std::find(s.y_loops.begin(), s.y_loops.end(), loop);
    if (wit == s.y_loops.end()) continue;
    const std::size_t wi =
        s.x_loops.size() +
        static_cast<std::size_t>(wit - s.y_loops.begin());
    // delta = dst IV - src IV for this shared loop.
    std::vector<i64> dc(dim, 0);
    dc[wi] = 1;
    dc[vi] = -1;
    const poly::AffineExpr delta(std::move(dc), 0);

    auto feas_with = [&](int rel) {  // rel: +1 (>=1), 0 (==0), -1 (<=-1)
      poly::Polyhedron q = s.p;
      if (rel > 0)
        q.add_ge0(delta + (-1));
      else if (rel < 0)
        q.add_ge0(delta * -1 + (-1));
      else
        q.add_eq0(delta);
      return poly::integer_feasible(q);
    };
    const poly::Feas pos = feas_with(1);
    const poly::Feas zer = feas_with(0);
    const poly::Feas neg = feas_with(-1);
    const bool unk = pos == poly::Feas::kUnknown ||
                     zer == poly::Feas::kUnknown ||
                     neg == poly::Feas::kUnknown;
    const int nf = (pos == poly::Feas::kFeasible ? 1 : 0) +
                   (zer == poly::Feas::kFeasible ? 1 : 0) +
                   (neg == poly::Feas::kFeasible ? 1 : 0);
    char dir = '*';
    if (!unk && nf == 1) {
      dir = pos == poly::Feas::kFeasible   ? '<'
            : zer == poly::Feas::kFeasible ? '='
                                           : '>';
    }
    // Exact integer extremes of delta: the rational optima only bracket
    // them (the relaxation has slack wherever strides interact), so binary
    // search the bracket with the integer test.
    auto int_extreme = [&](bool want_min) -> std::optional<i64> {
      const poly::BoundResult mn = s.p.minimize(delta);
      const poly::BoundResult mx = s.p.maximize(delta);
      if (mn.status != poly::LpStatus::kOptimal ||
          mx.status != poly::LpStatus::kOptimal)
        return std::nullopt;
      i64 lo = narrow_i64(mn.value.ceil());
      i64 hi = narrow_i64(mx.value.floor());
      while (lo < hi) {
        if (want_min) {
          const i64 mid = narrow_i64(floor_div(i128{lo} + hi, 2));
          switch (feas_leq(s.p, delta, mid)) {
            case poly::Feas::kFeasible: hi = mid; break;
            case poly::Feas::kInfeasible: lo = mid + 1; break;
            case poly::Feas::kUnknown: return std::nullopt;
          }
        } else {
          const i64 mid = narrow_i64(ceil_div(i128{lo} + hi, 2));
          switch (feas_geq(s.p, delta, mid)) {
            case poly::Feas::kFeasible: lo = mid; break;
            case poly::Feas::kInfeasible: hi = mid - 1; break;
            case poly::Feas::kUnknown: return std::nullopt;
          }
        }
      }
      return lo;
    };
    std::optional<i64> dist;
    if (!unk) {
      const std::optional<i64> dmin = int_extreme(true);
      const std::optional<i64> dmax = int_extreme(false);
      if (dmin && dmax && *dmin == *dmax) dist = *dmin;
    }
    dv.loops.push_back(loop);
    dv.dirs.push_back(dir);
    dv.dist.push_back(dist);
  }
  return dv;
}

statican::AccessClass ExactDeps::site_class(int block, int instr) const {
  const auto& acc = model().accesses;
  const std::size_t i = index_of(block, instr);
  if (i == acc.size()) return statican::AccessClass::kDynamicRequired;
  const statican::AccessClass cls = acc[i].cls;
  if (cls != statican::AccessClass::kStaticExact) return cls;
  for (std::size_t j = 0; j < acc.size(); ++j) {
    if (j == i) continue;
    if (!acc[i].is_store && !acc[j].is_store) continue;
    if (verdict_by_index(i, j) == PairVerdict::kUnknown)
      return statican::AccessClass::kWeaklyDynamic;
  }
  return statican::AccessClass::kStaticExact;
}

ExactDeps::Summary ExactDeps::summary() const {
  Summary s;
  const auto& acc = model().accesses;
  for (const AccessInfo& a : acc)
    ++s.classes[static_cast<int>(site_class(a.block, a.instr))];
  for (std::size_t i = 0; i < acc.size(); ++i) {
    for (std::size_t j = i + 1; j < acc.size(); ++j) {
      if (!acc[i].is_store && !acc[j].is_store) continue;
      ++s.pairs;
      switch (verdict_by_index(i, j)) {
        case PairVerdict::kIndependent: ++s.independent; break;
        case PairVerdict::kDependent: ++s.dependent; break;
        case PairVerdict::kUnknown: ++s.unknown; break;
      }
    }
  }
  return s;
}

ddg::SelectivePlan compute_selective_plan(const ir::Module& m) {
  ddg::SelectivePlan plan;
  plan.funcs.resize(m.functions.size());

  struct Site {
    int func = -1;
    const AccessInfo* a = nullptr;
    const FunctionModel* fm = nullptr;
    i128 wlo = 0, whi = 0;  ///< inclusive shadow-word range (byte >> 3)
  };
  std::vector<FunctionModel> models(m.functions.size());
  std::vector<Site> sites;
  for (const ir::Function& f : m.functions) {
    if (f.blocks.empty()) continue;
    auto& fm = models[static_cast<std::size_t>(f.id)];
    fm = statican::model_function(m, f);
    for (const AccessInfo& a : fm.accesses) {
      bool known = a.modeled && a.base_arg < 0;
      i128 lo = a.offset, hi = a.offset;
      if (known) {
        for (const auto& [l, c] : a.coeffs) {
          if (c == 0) continue;
          const auto it = fm.bounds.find(l);
          if (it == fm.bounds.end() || !it->second.known) {
            known = false;
            break;
          }
          const i128 cl = c;
          if (cl > 0) {
            lo += cl * it->second.lo;
            hi += cl * it->second.hi;
          } else {
            lo += cl * it->second.hi;
            hi += cl * it->second.lo;
          }
        }
      }
      if (!known) {
        // One unanalyzable access could touch any address: poison the
        // whole plan, remembering the first offender (program order, so
        // the reason is deterministic).
        if (plan.poison_reason.empty()) {
          plan.poison_reason = f.name + " b" + std::to_string(a.block) +
                               ":i" + std::to_string(a.instr) +
                               " not statically bounded (" +
                               statican::access_class_name(a.cls) + ")";
        }
        continue;
      }
      sites.push_back({f.id, &a, &fm, floor_div(lo, 8), floor_div(hi, 8)});
    }
  }
  if (!plan.poison_reason.empty()) return plan;

  // Word-range overlap components: sort by range start and sweep. Ranges
  // are inclusive, so a site joins the open component iff wlo <= cur_hi.
  std::vector<std::size_t> order(sites.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Site& x = sites[a];
    const Site& y = sites[b];
    return std::tie(x.wlo, x.whi, x.func, x.a->block, x.a->instr) <
           std::tie(y.wlo, y.whi, y.func, y.a->block, y.a->instr);
  });
  std::vector<std::vector<std::size_t>> comps;
  i128 cur_hi = 0;
  for (const std::size_t idx : order) {
    if (comps.empty() || sites[idx].wlo > cur_hi) {
      comps.emplace_back();
      cur_hi = sites[idx].whi;
    } else {
      cur_hi = std::max(cur_hi, sites[idx].whi);
    }
    comps.back().push_back(idx);
  }

  for (const std::vector<std::size_t>& comp : comps) {
    bool free_of_deps = true;
    for (std::size_t i = 0; i < comp.size() && free_of_deps; ++i) {
      for (std::size_t j = i + 1; j < comp.size(); ++j) {
        const Site& x = sites[comp[i]];
        const Site& y = sites[comp[j]];
        if (x.a->is_store == y.a->is_store) continue;  // flow needs both
        const PairSystem s = pair_system(*x.a, *x.fm, *y.a, *y.fm);
        if (verdict_of(s) != PairVerdict::kIndependent) {
          free_of_deps = false;
          break;
        }
      }
    }
    if (!free_of_deps) continue;
    ++plan.groups;
    for (const std::size_t idx : comp) {
      plan.funcs[static_cast<std::size_t>(sites[idx].func)].sites.insert(
          {sites[idx].a->block, sites[idx].a->instr});
    }
  }
  return plan;
}

std::string precision_section(const ir::Module& m) {
  std::ostringstream os;
  for (const ir::Function& f : m.functions) {
    if (f.blocks.empty()) continue;
    const ExactDeps ex(m, f);
    if (ex.model().accesses.empty()) continue;
    const ExactDeps::Summary s = ex.summary();
    os << "  " << f.name << ": " << s.classes[0] << " static-exact, "
       << s.classes[1] << " weakly-dynamic, " << s.classes[2]
       << " dynamic-required; " << s.pairs << " store pair(s): "
       << s.independent << " independent, " << s.dependent << " dependent, "
       << s.unknown << " undecided\n";
  }
  const ddg::SelectivePlan plan = compute_selective_plan(m);
  if (plan.total_sites() > 0) {
    os << "  selective plan: " << plan.total_sites()
       << " skippable site(s) in " << plan.groups
       << " dependence-free group(s)\n";
  } else if (!plan.poison_reason.empty()) {
    os << "  selective plan: empty (" << plan.poison_reason << ")\n";
  } else {
    os << "  selective plan: empty (no dependence-free group)\n";
  }
  return os.str();
}

}  // namespace pp::verify::exact
