#include "verify/exact.hpp"

#include <sstream>
#include <utility>

#include "poly/polyhedron.hpp"

namespace pp::verify::exact {

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
  bool comparable = false;
};

PairSystem pair_system(const AccessInfo& x, const AccessInfo& y,
                       const FunctionModel& fm) {
  PairSystem s;
  if (!x.affine || !y.affine || !comparable_bases(x, y)) return s;
  const auto cx = coeff_list(x);
  const auto cy = coeff_list(y);
  const std::size_t dim = cx.size() + cy.size();
  poly::Polyhedron p(dim);
  std::vector<i64> ec(dim, 0);
  std::size_t v = 0;
  for (const auto& [l, c] : cx) {
    ec[v] = c;
    const auto it = fm.bounds.find(l);
    if (it != fm.bounds.end() && it->second.known)
      p.bound_var(v, it->second.lo, it->second.hi);
    ++v;
  }
  for (const auto& [l, c] : cy) {
    ec[v] = -c;
    const auto it = fm.bounds.find(l);
    if (it != fm.bounds.end() && it->second.known)
      p.bound_var(v, it->second.lo, it->second.hi);
    ++v;
  }
  p.add_eq0(poly::AffineExpr(std::move(ec), x.offset - y.offset));
  s.p = std::move(p);
  s.comparable = true;
  return s;
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
  const PairVerdict v = verdict_of(
      pair_system(model().accesses[i], model().accesses[j], model()));
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
      const AccessInfo& x = acc[i];
      const AccessInfo& y = acc[j];
      if (!x.is_store && !y.is_store) continue;
      ++s.pairs;
      const PairVerdict v = verdict_by_index(i, j);
      switch (v) {
        case PairVerdict::kIndependent: ++s.independent; break;
        case PairVerdict::kDependent: ++s.dependent; break;
        case PairVerdict::kUnknown: ++s.unknown; break;
      }
      if (!may_.modeled(x.block, x.instr) || !may_.modeled(y.block, y.instr))
        continue;
      ++s.modeled_pairs;
      const bool may = may_.may_alias(x, y);
      if (!may && v == PairVerdict::kDependent)
        s.may_exact_mismatches.emplace_back(i, j);
      else if (may && v == PairVerdict::kIndependent)
        ++s.refined;
    }
  }
  return s;
}

std::string precision_section(const ir::Module& m, const ModuleDeps& deps) {
  std::ostringstream os;
  for (const ir::Function& f : m.functions) {
    const std::optional<ExactDeps>& ex = deps[static_cast<std::size_t>(f.id)];
    if (!ex || ex->model().accesses.empty()) continue;
    const ExactDeps::Summary s = ex->summary();
    os << "  " << f.name << ": " << s.classes[0] << " static-exact, "
       << s.classes[1] << " weakly-dynamic, " << s.classes[2]
       << " dynamic-required; " << s.pairs << " store pair(s): "
       << s.independent << " independent, " << s.dependent << " dependent, "
       << s.unknown << " undecided\n";
  }
  return os.str();
}

}  // namespace pp::verify::exact
