#include "poly/polyhedron.hpp"

#include <sstream>

namespace pp::poly {

Polyhedron Polyhedron::box(const std::vector<std::pair<i64, i64>>& bounds) {
  Polyhedron p(bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i)
    p.bound_var(i, bounds[i].first, bounds[i].second);
  return p;
}

void Polyhedron::add(Constraint c) {
  PP_CHECK(c.expr.dim() == dim_, "constraint dimension mismatch");
  constraints_.push_back(std::move(c));
}

void Polyhedron::bound_var(std::size_t i, i64 lo, i64 hi) {
  add_ge0(AffineExpr::var(dim_, i) - lo);           // x_i - lo >= 0
  add_ge0(-(AffineExpr::var(dim_, i)) + hi);        // hi - x_i >= 0
}

bool Polyhedron::contains(std::span<const i64> point) const {
  for (const auto& c : constraints_)
    if (!c.holds(point)) return false;
  return true;
}

std::vector<LpConstraint> Polyhedron::lp_constraints() const {
  std::vector<LpConstraint> out;
  out.reserve(constraints_.size());
  for (const auto& c : constraints_) {
    // expr >= 0  <=>  coeffs·x >= -const
    out.push_back({c.expr.as_rat_vec(), Rat(-c.expr.const_term()),
                   c.equality});
  }
  return out;
}

bool Polyhedron::is_rational_empty() const {
  return minimize(AffineExpr(dim_)).status == LpStatus::kInfeasible;
}

bool Polyhedron::is_integer_empty(u64 enumeration_cap) const {
  if (is_rational_empty()) return true;
  std::optional<u64> n = count_points(enumeration_cap);
  // Unbounded or too large: a rational point in a full-dimensional large
  // region virtually always witnesses an integer point; be conservative
  // and report non-empty.
  if (!n) return false;
  return *n == 0;
}

namespace {

/// Rational bounds of one variable of a box.
struct Interval {
  Rat lo, hi;
  bool has_lo = false, has_hi = false;
};

/// Closed-form minimum over a box — a system in which every constraint
/// mentions at most one variable. Each row bounds its variable (an
/// equality pins it), so the optimum picks, per variable, the bound the
/// objective coefficient's sign points at. Returns exactly what the
/// simplex returns on the same system (status, and the value when
/// optimal); nullopt when some row couples two variables.
std::optional<BoundResult> box_minimize(std::size_t dim,
                                        const std::vector<Constraint>& rows,
                                        const AffineExpr& objective) {
  std::vector<Interval> iv(dim);
  bool infeasible = false;
  for (const auto& c : rows) {
    std::size_t var = dim;
    for (std::size_t i = 0; i < dim; ++i) {
      if (c.expr.coeff(i) == 0) continue;
      if (var != dim) return std::nullopt;  // couples two variables
      var = i;
    }
    const i64 b = c.expr.const_term();
    if (var == dim) {  // constant row: b >= 0 (or b == 0) holds or not
      if (c.equality ? b != 0 : b < 0) infeasible = true;
      continue;
    }
    // a·x + b >= 0 (or == 0) bounds x at -b/a, from below when a > 0.
    const i64 a = c.expr.coeff(var);
    const Rat bound(-static_cast<i128>(b), static_cast<i128>(a));
    Interval& v = iv[var];
    if ((c.equality || a > 0) && (!v.has_lo || bound > v.lo)) {
      v.lo = bound;
      v.has_lo = true;
    }
    if ((c.equality || a < 0) && (!v.has_hi || bound < v.hi)) {
      v.hi = bound;
      v.has_hi = true;
    }
  }
  BoundResult out;
  for (const Interval& v : iv)
    if (v.has_lo && v.has_hi && v.lo > v.hi) infeasible = true;
  if (infeasible) return out;  // kInfeasible, as the simplex reports first
  Rat value(objective.const_term());
  for (std::size_t i = 0; i < dim; ++i) {
    const i64 ci = objective.coeff(i);
    if (ci == 0) continue;
    const Interval& v = iv[i];
    if (ci > 0 ? !v.has_lo : !v.has_hi) {
      out.status = LpStatus::kUnbounded;
      return out;
    }
    value += Rat(ci) * (ci > 0 ? v.lo : v.hi);
  }
  out.status = LpStatus::kOptimal;
  out.value = value;
  return out;
}

}  // namespace

BoundResult Polyhedron::minimize(const AffineExpr& objective) const {
  PP_CHECK(objective.dim() == dim_, "objective dimension mismatch");
  if (std::optional<BoundResult> b = box_minimize(dim_, constraints_, objective))
    return *b;
  LpResult r = lp_minimize(dim_, lp_constraints(), objective.as_rat_vec());
  BoundResult b;
  b.status = r.status;
  if (r.status == LpStatus::kOptimal)
    b.value = r.objective + Rat(objective.const_term());
  return b;
}

BoundResult Polyhedron::maximize(const AffineExpr& objective) const {
  BoundResult b = minimize(-objective);
  if (b.status == LpStatus::kOptimal) b.value = -b.value;
  return b;
}

std::optional<std::pair<i128, i128>> Polyhedron::var_bounds(
    std::size_t i) const {
  BoundResult lo = minimize(AffineExpr::var(dim_, i));
  BoundResult hi = maximize(AffineExpr::var(dim_, i));
  if (lo.status != LpStatus::kOptimal || hi.status != LpStatus::kOptimal)
    return std::nullopt;
  return std::make_pair(lo.value.ceil(), hi.value.floor());
}

void Polyhedron::enumerate_rec(std::vector<i64>& prefix, u64 cap, u64& count,
                               std::vector<std::vector<i64>>* out,
                               bool& overflow) const {
  if (overflow) return;
  std::size_t k = prefix.size();
  if (k == dim_) {
    if (contains(prefix)) {
      ++count;
      if (count > cap) {
        overflow = true;
        return;
      }
      if (out) out->push_back(prefix);
    }
    return;
  }
  // Bounds of dimension k given the fixed prefix. Fast path: constraints
  // whose only unfixed variable is x_k yield direct bounds (exact for the
  // box/octagon templates folding emits, where inner dimensions are bounded
  // by outer ones). Missing direction falls back to an LP on the prefix-
  // restricted polyhedron. Loose direct bounds are harmless for
  // correctness: deeper levels re-check every constraint.
  bool have_lo = false, have_hi = false;
  i128 from = 0, to = 0;
  for (const auto& c : constraints_) {
    i64 ck = c.expr.coeff(k);
    bool only_k = true;
    for (std::size_t j = k + 1; j < dim_ && only_k; ++j)
      if (c.expr.coeff(j) != 0) only_k = false;
    if (!only_k) continue;
    // Residual value of the constraint with prefix substituted, minus the
    // x_k term: r + ck*x_k >= 0 (or == 0).
    i128 r = c.expr.const_term();
    for (std::size_t j = 0; j < k; ++j)
      r = add_checked(r, mul_checked(c.expr.coeff(j), prefix[j]));
    if (ck == 0) {
      bool sat = c.equality ? (r == 0) : (r >= 0);
      if (!sat) return;  // prefix already infeasible
      continue;
    }
    auto tighten_lo = [&](i128 v) {
      if (!have_lo || v > from) from = v;
      have_lo = true;
    };
    auto tighten_hi = [&](i128 v) {
      if (!have_hi || v < to) to = v;
      have_hi = true;
    };
    if (c.equality) {
      // ck*x_k == -r: empty range when -r is not divisible by ck.
      tighten_lo(ceil_div(-r, ck));
      tighten_hi(floor_div(-r, ck));
    } else if (ck > 0) {
      tighten_lo(ceil_div(-r, ck));  // x_k >= -r/ck
    } else {
      tighten_hi(floor_div(r, -ck));  // x_k <= r/(-ck)
    }
  }
  if (!have_lo || !have_hi) {
    Polyhedron fixed = *this;
    for (std::size_t j = 0; j < k; ++j)
      fixed.add_eq0(AffineExpr::var(dim_, j) - prefix[j]);
    if (!have_lo) {
      BoundResult lo = fixed.minimize(AffineExpr::var(dim_, k));
      if (lo.status == LpStatus::kInfeasible) return;
      if (lo.status != LpStatus::kOptimal) {
        overflow = true;  // unbounded direction
        return;
      }
      from = lo.value.ceil();
    }
    if (!have_hi) {
      BoundResult hi = fixed.maximize(AffineExpr::var(dim_, k));
      if (hi.status == LpStatus::kInfeasible) return;
      if (hi.status != LpStatus::kOptimal) {
        overflow = true;
        return;
      }
      to = hi.value.floor();
    }
  }
  // Innermost level with counting only: every constraint has been folded
  // into [from, to] (no constraint can involve a deeper variable here, and
  // with one free variable the feasible set is an interval), so the leaf
  // contains() check is vacuous — count the whole range at once.
  if (k + 1 == dim_ && out == nullptr) {
    if (to >= from) {
      i128 total = static_cast<i128>(count) + (to - from + 1);
      if (total > static_cast<i128>(cap)) {
        overflow = true;
        return;
      }
      count = static_cast<u64>(total);
    }
    return;
  }
  for (i128 v = from; v <= to && !overflow; ++v) {
    prefix.push_back(narrow_i64(v));
    enumerate_rec(prefix, cap, count, out, overflow);
    prefix.pop_back();
  }
}

std::optional<std::vector<std::vector<i64>>> Polyhedron::enumerate(
    u64 cap) const {
  if (dim_ == 0) {
    // Zero-dimensional: the single point () if consistent.
    std::vector<std::vector<i64>> pts;
    if (!is_rational_empty()) pts.push_back({});
    return pts;
  }
  std::vector<std::vector<i64>> pts;
  std::vector<i64> prefix;
  u64 count = 0;
  bool overflow = false;
  enumerate_rec(prefix, cap, count, &pts, overflow);
  if (overflow) return std::nullopt;
  return pts;
}

std::optional<u64> Polyhedron::count_points(u64 cap) const {
  if (dim_ == 0) return is_rational_empty() ? 0u : 1u;
  std::vector<i64> prefix;
  u64 count = 0;
  bool overflow = false;
  enumerate_rec(prefix, cap, count, nullptr, overflow);
  if (overflow) return std::nullopt;
  return count;
}

Polyhedron Polyhedron::intersect(const Polyhedron& other) const {
  PP_CHECK(dim_ == other.dim_, "intersect: dimension mismatch");
  Polyhedron p = *this;
  for (const auto& c : other.constraints_) p.add(c);
  return p;
}

std::string Polyhedron::str(std::span<const std::string> names) const {
  std::ostringstream os;
  os << "{ ";
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i) os << " and ";
    os << constraints_[i].str(names);
  }
  if (constraints_.empty()) os << "true";
  os << " }";
  return os.str();
}

}  // namespace pp::poly
