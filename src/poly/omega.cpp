#include "poly/omega.hpp"

#include <algorithm>

#include "support/int_math.hpp"

namespace pp::poly {

namespace {

// Coefficient magnitudes are capped well below the i128 range so that any
// product of two in-cap values (plus a few additions) cannot overflow.
constexpr i128 kMagCap = i128{1} << 100;

struct Row {
  std::vector<i128> c;  ///< one coefficient per variable (dead vars stay 0)
  i128 k = 0;           ///< constant term
  bool eq = false;      ///< expr == 0 (else expr >= 0)
};

struct System {
  std::vector<Row> rows;
  std::size_t dim = 0;
};

enum class Norm : std::uint8_t { kOk, kInfeasible, kOverflow };

/// Symmetric residue of `a` modulo `m` in (-m/2, m/2]; m >= 2.
i128 mod_hat(i128 a, i128 m) {
  i128 r = a - floor_div(a, m) * m;  // in [0, m)
  if (2 * r > m) r -= m;
  return r;
}

/// Canonicalize every row: divide by the coefficient gcd (tightening
/// inequalities to the integer hull along their normal), refute equalities
/// the gcd test kills, and drop rows that became trivially true.
Norm normalize(System& sys) {
  std::vector<Row> kept;
  kept.reserve(sys.rows.size());
  for (Row& r : sys.rows) {
    i128 g = 0;
    for (i128 c : r.c) g = gcd(g, c);
    if (g == 0) {
      // Constant row: decide it right here.
      if (r.eq ? r.k != 0 : r.k < 0) return Norm::kInfeasible;
      continue;
    }
    if (g > 1) {
      if (r.eq) {
        if (r.k % g != 0) return Norm::kInfeasible;  // gcd refutation
        r.k /= g;
      } else {
        r.k = floor_div(r.k, g);  // exact integer tightening
      }
      for (i128& c : r.c) c /= g;
    }
    if (r.k >= kMagCap || r.k <= -kMagCap) return Norm::kOverflow;
    for (i128 c : r.c)
      if (c >= kMagCap || c <= -kMagCap) return Norm::kOverflow;
    kept.push_back(std::move(r));
  }
  sys.rows = std::move(kept);
  return Norm::kOk;
}

struct Solver {
  u64 steps_left;

  bool spend(u64 n = 1) {
    if (steps_left < n) {
      steps_left = 0;
      return false;
    }
    steps_left -= n;
    return true;
  }

  /// Substitute variable `k` using the unit-coefficient equality `e`
  /// (|e.c[k]| == 1) into every other row, then drop `e`. Exact.
  static void substitute(System& sys, std::size_t ei, std::size_t k) {
    Row e = std::move(sys.rows[ei]);
    sys.rows.erase(sys.rows.begin() + static_cast<std::ptrdiff_t>(ei));
    // From e:  s*x_k + rest + k0 = 0  with s = +-1  =>  x_k = -s*(rest + k0).
    const i128 s = e.c[k];
    for (Row& r : sys.rows) {
      const i128 a = r.c[k];
      if (a == 0) continue;
      r.c[k] = 0;
      for (std::size_t j = 0; j < sys.dim; ++j) {
        if (j == k) continue;
        r.c[j] -= a * s * e.c[j];
      }
      r.k -= a * s * e.k;
    }
  }

  Feas solve(System sys) {
    for (;;) {
      if (!spend()) return Feas::kUnknown;
      switch (normalize(sys)) {
        case Norm::kInfeasible: return Feas::kInfeasible;
        case Norm::kOverflow: return Feas::kUnknown;
        case Norm::kOk: break;
      }

      // --- equality elimination ---
      // Prefer any equality with a unit coefficient (exact substitution);
      // the fresh row a mod-reduction appends is exactly such an equality,
      // so scanning ALL rows here is what makes the reduction terminate.
      std::size_t ei = sys.rows.size();
      std::size_t unit = sys.dim;
      std::size_t small_row = sys.rows.size();
      std::size_t small = sys.dim;
      i128 small_abs = 0;
      for (std::size_t i = 0; i < sys.rows.size() && unit == sys.dim; ++i) {
        if (!sys.rows[i].eq) continue;
        if (ei == sys.rows.size()) ei = i;
        for (std::size_t j = 0; j < sys.dim; ++j) {
          i128 a = sys.rows[i].c[j] < 0 ? -sys.rows[i].c[j] : sys.rows[i].c[j];
          if (a == 0) continue;
          if (a == 1) {
            ei = i;
            unit = j;
            break;
          }
          if (small == sys.dim || a < small_abs) {
            small_row = i;
            small = j;
            small_abs = a;
          }
        }
      }
      if (ei < sys.rows.size()) {
        if (unit < sys.dim) {
          substitute(sys, ei, unit);
          continue;
        }
        const Row& e = sys.rows[small_row];
        // No unit coefficient: Pugh's symmetric-mod reduction. Let
        // m = |a_small| + 1 and introduce sigma defined by
        //   sum_j mod_hat(a_j, m) x_j - m*sigma + mod_hat(k, m) = 0.
        // mod_hat(t, m) == t (mod m), so whenever the original equality
        // holds the left side is divisible by m and an integer sigma
        // exists; conversely sigma is unconstrained elsewhere. The new
        // equality carries coefficient -sign(a_small) at x_small — a unit
        // — so the substitution path fires next and strictly shrinks the
        // original equality's coefficients.
        const i128 m = small_abs + 1;
        Row fresh;
        fresh.eq = true;
        fresh.c.assign(sys.dim + 1, 0);
        for (std::size_t j = 0; j < sys.dim; ++j)
          fresh.c[j] = mod_hat(e.c[j], m);
        fresh.c[sys.dim] = -m;
        fresh.k = mod_hat(e.k, m);
        for (Row& r : sys.rows) r.c.push_back(0);
        ++sys.dim;
        sys.rows.push_back(std::move(fresh));
        continue;
      }

      // --- pick an elimination variable (fewest lower*upper combos) ---
      std::size_t pick = sys.dim;
      std::size_t pick_cost = 0;
      for (std::size_t j = 0; j < sys.dim; ++j) {
        std::size_t lo = 0, hi = 0;
        for (const Row& r : sys.rows) {
          if (r.c[j] > 0) ++lo;
          if (r.c[j] < 0) ++hi;
        }
        if (lo + hi == 0) continue;
        if (lo == 0 || hi == 0) {
          // One-sided variable: every row mentioning it is satisfiable by
          // pushing it far enough — drop those rows and restart.
          pick = j;
          pick_cost = 0;
          break;
        }
        const std::size_t cost = lo * hi;
        if (pick == sys.dim || cost < pick_cost) {
          pick = j;
          pick_cost = cost;
        }
      }
      if (pick == sys.dim) return Feas::kFeasible;  // only satisfied rows left

      std::vector<Row> lowers, uppers, rest;
      for (Row& r : sys.rows) {
        if (r.c[pick] > 0)
          lowers.push_back(std::move(r));
        else if (r.c[pick] < 0)
          uppers.push_back(std::move(r));
        else
          rest.push_back(std::move(r));
      }
      if (lowers.empty() || uppers.empty()) {
        sys.rows = std::move(rest);
        continue;
      }

      i128 max_a = 0, max_b = 0;
      for (const Row& l : lowers) max_a = std::max(max_a, l.c[pick]);
      for (const Row& u : uppers) max_b = std::max(max_b, -u.c[pick]);
      const bool exact = max_a == 1 || max_b == 1;

      // combine(tighten=false): real shadow; tighten=true: dark shadow,
      // whose combined rows subtract (a-1)(b-1) — any rational point of the
      // dark shadow lifts to an integer x_pick.
      auto combine = [&](bool tighten) {
        System out;
        out.dim = sys.dim;
        out.rows = rest;  // copy: both shadows share the untouched rows
        for (const Row& l : lowers) {
          for (const Row& u : uppers) {
            const i128 a = l.c[pick];
            const i128 b = -u.c[pick];
            Row r;
            r.eq = false;
            r.c.assign(sys.dim, 0);
            for (std::size_t j = 0; j < sys.dim; ++j)
              r.c[j] = b * l.c[j] + a * u.c[j];
            r.k = b * l.k + a * u.k;
            if (tighten) r.k -= (a - 1) * (b - 1);
            out.rows.push_back(std::move(r));
          }
        }
        return out;
      };
      if (!spend(lowers.size() * uppers.size())) return Feas::kUnknown;

      if (exact) {
        sys = combine(false);
        continue;
      }

      // Inexact elimination: fork. Dark feasible => feasible; real
      // infeasible => infeasible; otherwise only the splinter hyperplanes
      // can hold an integer point (Pugh's bound).
      const Feas dark = solve(combine(true));
      if (dark == Feas::kFeasible) return Feas::kFeasible;
      const Feas real = solve(combine(false));
      if (real == Feas::kInfeasible) return Feas::kInfeasible;

      bool unknown = dark == Feas::kUnknown || real == Feas::kUnknown;
      for (const Row& l : lowers) {
        const i128 a = l.c[pick];
        const i128 imax = floor_div(a * max_b - a - max_b, max_b);
        for (i128 i = 0; i <= imax; ++i) {
          if (!spend()) return Feas::kUnknown;
          System sp;
          sp.dim = sys.dim;
          sp.rows = rest;
          for (const Row& r : lowers) sp.rows.push_back(r);
          for (const Row& r : uppers) sp.rows.push_back(r);
          Row plane = l;  // a*x_pick + rest_l - i == 0
          plane.eq = true;
          plane.k -= i;
          sp.rows.push_back(std::move(plane));
          const Feas fs = solve(std::move(sp));
          if (fs == Feas::kFeasible) return Feas::kFeasible;
          if (fs == Feas::kUnknown) unknown = true;
        }
      }
      return unknown ? Feas::kUnknown : Feas::kInfeasible;
    }
  }
};

}  // namespace

Feas integer_feasible(const Polyhedron& p, const OmegaOptions& opts) {
  System sys;
  sys.dim = p.dim();
  sys.rows.reserve(p.num_constraints());
  for (const Constraint& c : p.constraints()) {
    Row r;
    r.eq = c.equality;
    r.k = c.expr.const_term();
    r.c.resize(sys.dim);
    for (std::size_t j = 0; j < sys.dim; ++j) r.c[j] = c.expr.coeff(j);
    sys.rows.push_back(std::move(r));
  }
  Solver solver{opts.max_steps};
  return solver.solve(std::move(sys));
}

}  // namespace pp::poly
