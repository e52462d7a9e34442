// Rational polyhedra over integer points. A Polyhedron is a conjunction of
// affine constraints over a fixed-dimension space; polyprof's folding stage
// produces bounded polyhedra describing iteration domains, and the
// scheduler asks LP questions about (products of) them.
//
// Integer questions (membership, point counting/enumeration) are exact for
// bounded polyhedra via LP-guided recursive enumeration; rational
// questions (emptiness, min/max of an affine form) are answered in closed
// form for boxes (every constraint mentions at most one variable — most
// of what folding emits) and by the exact simplex for every other shape.
// Both give the same answer; tests/poly/polyhedron_test.cpp checks them
// against each other.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "poly/affine.hpp"
#include "poly/simplex.hpp"

namespace pp::poly {

/// Result of optimizing an affine form over a polyhedron.
struct BoundResult {
  LpStatus status = LpStatus::kInfeasible;
  Rat value;  ///< valid when status == kOptimal
};

class Polyhedron {
 public:
  Polyhedron() = default;
  explicit Polyhedron(std::size_t dim) : dim_(dim) {}

  /// The unconstrained space Z^dim.
  static Polyhedron universe(std::size_t dim) { return Polyhedron(dim); }

  /// Axis-aligned box {x : lo_i <= x_i <= hi_i}.
  static Polyhedron box(const std::vector<std::pair<i64, i64>>& bounds);

  std::size_t dim() const { return dim_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  std::size_t num_constraints() const { return constraints_.size(); }

  void add(Constraint c);
  /// expr >= 0
  void add_ge0(AffineExpr e) { add(Constraint::ge0(std::move(e))); }
  /// expr == 0
  void add_eq0(AffineExpr e) { add(Constraint::eq0(std::move(e))); }
  /// lo <= x_i <= hi
  void bound_var(std::size_t i, i64 lo, i64 hi);

  bool contains(std::span<const i64> point) const;

  /// Rational emptiness (sound for integer emptiness one way: rationally
  /// empty => integer empty).
  bool is_rational_empty() const;

  /// Exact integer emptiness for bounded polyhedra: falls back to lattice
  /// enumeration when a rational point exists but may not be integral.
  bool is_integer_empty(u64 enumeration_cap = 1u << 20) const;

  /// Minimize / maximize an affine form over the rational relaxation:
  /// closed form on boxes, lp_minimize otherwise (same status and value).
  BoundResult minimize(const AffineExpr& objective) const;
  BoundResult maximize(const AffineExpr& objective) const;

  /// Integer bounds of variable i: [ceil(rational min), floor(rational
  /// max)]; nullopt when the polyhedron is empty or the variable unbounded.
  std::optional<std::pair<i128, i128>> var_bounds(std::size_t i) const;

  /// All integer points, in lexicographic order; nullopt when unbounded or
  /// more than `cap` points.
  std::optional<std::vector<std::vector<i64>>> enumerate(
      u64 cap = 1u << 20) const;

  /// Number of integer points; nullopt when unbounded or above `cap`.
  std::optional<u64> count_points(u64 cap = 1u << 20) const;

  /// Conjunction of both constraint systems (dimensions must match).
  Polyhedron intersect(const Polyhedron& other) const;

  std::string str(std::span<const std::string> names = {}) const;

 private:
  std::vector<LpConstraint> lp_constraints() const;
  void enumerate_rec(std::vector<i64>& prefix, u64 cap, u64& count,
                     std::vector<std::vector<i64>>* out, bool& overflow) const;

  std::size_t dim_ = 0;
  std::vector<Constraint> constraints_;
};

}  // namespace pp::poly
