#include "poly/simplex.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace pp::poly {

namespace {

// Dense simplex tableau in standard equality form
//   M y = d,  y >= 0,  minimize obj·y
// with rows indexed by basic variables. The tableau stores, per row,
// the coefficients of all structural columns plus the rhs.
class Tableau {
 public:
  Tableau(std::size_t num_cols) : num_cols_(num_cols) {}

  void add_row(RatVec coeffs, Rat rhs) {
    PP_CHECK(coeffs.size() == num_cols_, "tableau row width mismatch");
    if (rhs < Rat(0)) {  // keep rhs non-negative for phase 1
      for (auto& c : coeffs) c = -c;
      rhs = -rhs;
    }
    rows_.push_back(std::move(coeffs));
    rhs_.push_back(rhs);
  }

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return num_cols_; }

  // Extend every row with `extra` zero columns; returns index of the first
  // new column.
  std::size_t add_cols(std::size_t extra) {
    std::size_t first = num_cols_;
    num_cols_ += extra;
    for (auto& r : rows_) r.resize(num_cols_, Rat(0));
    return first;
  }

  Rat& at(std::size_t r, std::size_t c) { return rows_[r][c]; }
  Rat& rhs(std::size_t r) { return rhs_[r]; }

  // Run simplex on the given objective (over all current columns) starting
  // from the basis in `basis` (basis[r] = column basic in row r). Only
  // columns < max_enter_col may enter the basis (used to lock phase-1
  // artificials out of phase 2). Returns false when unbounded; `optimum`
  // receives the minimal objective value.
  bool minimize(RatVec obj, Rat obj_const, std::vector<std::size_t>& basis,
                Rat* optimum, std::size_t max_enter_col) {
    PP_CHECK(obj.size() == num_cols_, "objective width mismatch");
    // Price out the basic variables: reduced costs must be zero on basis.
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      Rat f = obj[basis[r]];
      if (f.is_zero()) continue;
      // Keep the invariant orig(y) == obj·y + obj_const on the feasible set:
      // subtracting f×(row equation) requires adding f×rhs to the constant.
      for (std::size_t c = 0; c < num_cols_; ++c) obj[c] -= f * rows_[r][c];
      obj_const += f * rhs_[r];
    }
    for (;;) {
      // Bland's rule: entering column = lowest index with negative reduced
      // cost.
      std::size_t enter = num_cols_;
      for (std::size_t c = 0; c < max_enter_col; ++c) {
        if (obj[c] < Rat(0)) {
          enter = c;
          break;
        }
      }
      if (enter == num_cols_) {
        // Optimal. Invariant: orig(y) == obj·y + obj_const on the feasible
        // set, and after pricing the basic columns have zero reduced cost,
        // so at the current basic solution orig == obj_const.
        if (optimum) *optimum = obj_const;
        return true;
      }
      // Ratio test, Bland tie-break on leaving variable.
      std::size_t leave = rows_.size();
      Rat best;
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (rows_[r][enter] > Rat(0)) {
          Rat ratio = rhs_[r] / rows_[r][enter];
          if (leave == rows_.size() || ratio < best ||
              (ratio == best && basis[r] < basis[leave])) {
            leave = r;
            best = ratio;
          }
        }
      }
      if (leave == rows_.size()) return false;  // unbounded
      pivot(leave, enter, obj, obj_const, basis);
    }
  }

  const std::vector<RatVec>& rows() const { return rows_; }
  const RatVec& rhs_vec() const { return rhs_; }

 private:
  void pivot(std::size_t pr, std::size_t pc, RatVec& obj, Rat& obj_const,
             std::vector<std::size_t>& basis) {
    Rat inv = Rat(1) / rows_[pr][pc];
    for (std::size_t c = 0; c < num_cols_; ++c) rows_[pr][c] *= inv;
    rhs_[pr] *= inv;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r == pr || rows_[r][pc].is_zero()) continue;
      Rat f = rows_[r][pc];
      for (std::size_t c = 0; c < num_cols_; ++c)
        rows_[r][c] -= f * rows_[pr][c];
      rhs_[r] -= f * rhs_[pr];
    }
    if (!obj[pc].is_zero()) {
      Rat f = obj[pc];
      for (std::size_t c = 0; c < num_cols_; ++c) obj[c] -= f * rows_[pr][c];
      obj_const += f * rhs_[pr];
    }
    basis[pr] = pc;
  }

  std::size_t num_cols_;
  std::vector<RatVec> rows_;
  RatVec rhs_;
};

}  // namespace

LpResult lp_minimize(std::size_t n,
                     const std::vector<LpConstraint>& constraints,
                     const RatVec& objective) {
  PP_CHECK(objective.size() == n, "objective size mismatch");
  // Columns: x⁺ (n), x⁻ (n), one surplus per inequality, one artificial per
  // row. Count inequalities first.
  std::size_t num_ineq = 0;
  for (const auto& c : constraints) {
    PP_CHECK(c.coeffs.size() == n, "constraint size mismatch");
    if (!c.equality) ++num_ineq;
  }
  std::size_t m = constraints.size();
  std::size_t cols_struct = 2 * n + num_ineq;
  Tableau tab(cols_struct);

  // Build rows: a·x - s = b for inequalities (s >= 0), a·x = b for
  // equalities. add_row flips signs when b < 0 so artificials stay valid.
  std::size_t surplus_idx = 2 * n;
  for (const auto& c : constraints) {
    RatVec row(cols_struct, Rat(0));
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = c.coeffs[j];
      row[n + j] = -c.coeffs[j];
    }
    if (!c.equality) row[surplus_idx++] = Rat(-1);
    tab.add_row(std::move(row), c.rhs);
  }

  // Phase 1: artificial basis, minimize sum of artificials.
  std::size_t art0 = tab.add_cols(m);
  std::vector<std::size_t> basis(m);
  for (std::size_t r = 0; r < m; ++r) {
    tab.at(r, art0 + r) = Rat(1);
    basis[r] = art0 + r;
  }
  RatVec phase1_obj(tab.num_cols(), Rat(0));
  for (std::size_t r = 0; r < m; ++r) phase1_obj[art0 + r] = Rat(1);
  Rat opt;
  bool ok = tab.minimize(phase1_obj, Rat(0), basis, &opt, tab.num_cols());
  PP_CHECK(ok, "phase-1 simplex cannot be unbounded");
  LpResult res;
  if (opt > Rat(0)) {
    res.status = LpStatus::kInfeasible;
    return res;
  }
  // Drive any artificial still basic out of the basis (degenerate rows).
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < art0) continue;
    // Find a structural column with nonzero coefficient to pivot in.
    std::size_t pc = cols_struct;
    for (std::size_t c = 0; c < cols_struct; ++c) {
      if (!tab.at(r, c).is_zero()) {
        pc = c;
        break;
      }
    }
    if (pc == cols_struct) continue;  // redundant row; harmless to keep
    // Manual pivot (no objective row to maintain here).
    Rat inv = Rat(1) / tab.at(r, pc);
    for (std::size_t c = 0; c < tab.num_cols(); ++c) tab.at(r, c) *= inv;
    tab.rhs(r) *= inv;
    for (std::size_t rr = 0; rr < m; ++rr) {
      if (rr == r || tab.at(rr, pc).is_zero()) continue;
      Rat f = tab.at(rr, pc);
      for (std::size_t c = 0; c < tab.num_cols(); ++c)
        tab.at(rr, c) -= f * tab.at(r, c);
      tab.rhs(rr) -= f * tab.rhs(r);
    }
    basis[r] = pc;
  }

  // Phase 2: original objective over structural columns. Artificials are
  // locked out of the basis (max_enter_col = art0); any artificial still
  // basic sits at value 0 in a redundant all-zero row, so it cannot affect
  // the optimum.
  RatVec phase2_obj(tab.num_cols(), Rat(0));
  for (std::size_t j = 0; j < n; ++j) {
    phase2_obj[j] = objective[j];
    phase2_obj[n + j] = -objective[j];
  }

  if (!tab.minimize(phase2_obj, Rat(0), basis, &opt, art0)) {
    res.status = LpStatus::kUnbounded;
    return res;
  }
  res.status = LpStatus::kOptimal;
  res.objective = opt;
  // Recover x = x⁺ - x⁻ from the basic solution.
  RatVec y(tab.num_cols(), Rat(0));
  for (std::size_t r = 0; r < m; ++r) y[basis[r]] = tab.rhs_vec()[r];
  res.point.assign(n, Rat(0));
  for (std::size_t j = 0; j < n; ++j) res.point[j] = y[j] - y[n + j];
  return res;
}

}  // namespace pp::poly
