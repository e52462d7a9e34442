// Exact rational two-phase primal simplex. This is the single LP kernel
// behind every polyhedral question polyprof asks: emptiness of dependence
// polyhedra, variable bounds for lattice-point enumeration, and legality /
// carrying-strength of candidate schedule rows (min of the schedule latency
// difference over a dependence polyhedron).
//
// Problems are stated over *free* variables x with inequality constraints
//   a·x >= b
// and optional equalities a·x == b; the solver minimizes c·x. Internally
// variables are split x = x⁺ - x⁻ and slacks/artificials added; Bland's
// rule guarantees termination. All arithmetic is exact (pp::Rat).
#pragma once

#include <optional>
#include <vector>

#include "support/matrix.hpp"

namespace pp::poly {

enum class LpStatus {
  kOptimal,     ///< finite optimum found
  kInfeasible,  ///< constraint system has no rational solution
  kUnbounded,   ///< objective unbounded below on the feasible region
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  Rat objective;       ///< minimal value of c·x (valid when kOptimal)
  RatVec point;        ///< a minimizer (valid when kOptimal)
};

/// One linear condition over n free variables.
struct LpConstraint {
  RatVec coeffs;   ///< size n
  Rat rhs;         ///< right-hand side b
  bool equality;   ///< true: a·x == b, false: a·x >= b
};

/// Minimize `objective`·x subject to `constraints`. `n` is the number of
/// free variables; every coefficient vector must have size n.
LpResult lp_minimize(std::size_t n, const std::vector<LpConstraint>& constraints,
                     const RatVec& objective);

}  // namespace pp::poly
