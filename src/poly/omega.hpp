// Exact integer feasibility for affine constraint systems — an Omega-test
// style decision procedure (Pugh, CACM '92) layered over the same
// AffineExpr/Constraint vocabulary as the rational Polyhedron machinery.
//
// The rational simplex answers "is there a RATIONAL point"; folding and the
// oracle need the integer question, and enumeration only works for small
// bounded domains. This core decides integer feasibility exactly for the
// systems dependence analysis produces (a handful of variables, modest
// coefficients), unbounded variables included:
//
//   1. normalization: every inequality is tightened to its integer hull
//      along its own normal (divide by the coefficient gcd, floor the
//      constant); an equality whose gcd does not divide its constant is an
//      immediate refutation.
//   2. equality elimination: unit-coefficient substitution when available,
//      otherwise Pugh's symmetric-mod reduction introduces a fresh variable
//      whose defining equality has a unit coefficient (an exact,
//      feasibility-preserving rewrite), shrinking coefficients until a
//      substitution applies.
//   3. Fourier–Motzkin with integer repair: variable elimination is exact
//      when every lower/upper pair has a unit coefficient; otherwise the
//      dark shadow certifies feasibility, the real shadow certifies
//      infeasibility, and the residue is covered exactly by splintering
//      onto the finitely many hyperplanes Pugh's bound names.
//
// Everything runs in 128-bit integers with magnitude caps; blown caps or an
// exhausted step budget return kUnknown (never a wrong verdict), which
// callers treat as "fall back to the conservative rational answer".
#pragma once

#include "poly/polyhedron.hpp"

namespace pp::poly {

/// Three-valued verdict of the exact integer test.
enum class Feas : std::uint8_t {
  kInfeasible,  ///< proven: no integer point satisfies the system
  kFeasible,    ///< proven: at least one integer point exists
  kUnknown,     ///< effort/magnitude cap hit — no verdict (caller falls back)
};

struct OmegaOptions {
  /// Work budget: eliminations + derived rows + splinter probes. The
  /// systems dependence testing builds finish in tens of steps; the cap
  /// exists so adversarial inputs degrade to kUnknown instead of blowing
  /// up.
  u64 max_steps = 50'000;
};

/// Exact integer feasibility of `p` (bounded or not). Never wrong: a
/// definite verdict is a theorem about the integer points of `p`.
Feas integer_feasible(const Polyhedron& p, const OmegaOptions& opts = {});

}  // namespace pp::poly
