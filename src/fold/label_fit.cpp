#include "fold/label_fit.hpp"

#include <algorithm>

namespace pp::fold {

namespace {

// The one i128 whose negation overflows.
constexpr i128 kMin = static_cast<i128>(static_cast<unsigned __int128>(1)
                                        << 127);

// acc + a·b on i128; false on overflow.
bool mul_add(i128& acc, i128 a, i128 b) {
  i128 t;
  return !__builtin_mul_overflow(a, b, &t) &&
         !__builtin_add_overflow(acc, t, &acc);
}

// Whether Σ coeffs[i]·x[i] + constant == den·rhs; nullopt on overflow.
template <class T>
std::optional<bool> scaled_equal(const i128* coeffs, std::span<const T> x,
                                 i128 constant, i128 den, i128 rhs) {
  i128 acc = constant;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (coeffs[i] != 0 && !mul_add(acc, coeffs[i], x[i])) return std::nullopt;
  i128 want;
  if (__builtin_mul_overflow(den, rhs, &want)) return std::nullopt;
  return acc == want;
}

}  // namespace

LabelFit fit_rational(const std::vector<std::vector<i64>>& pts,
                      const std::vector<std::vector<i64>>& labels,
                      std::size_t in_dim, std::size_t label_dim) {
  const std::size_t width = in_dim + 1;
  RatMatrix sys(pts.size(), width);
  for (std::size_t r = 0; r < pts.size(); ++r) {
    for (std::size_t i = 0; i < in_dim; ++i) sys.at(r, i) = Rat(pts[r][i]);
    sys.at(r, in_dim) = Rat(1);
  }
  LabelFit fit(label_dim * width);
  RatVec rhs(pts.size());
  for (std::size_t j = 0; j < label_dim; ++j) {
    for (std::size_t r = 0; r < pts.size(); ++r) rhs[r] = Rat(labels[r][j]);
    auto sol = sys.solve(rhs);
    PP_CHECK(sol.has_value(), "refit on affinely independent basis failed");
    std::copy(sol->begin(), sol->end(), fit.begin() + j * width);
  }
  return fit;
}

std::optional<LabelFit> fit_fraction_free(
    const std::vector<std::vector<i64>>& pts,
    const std::vector<std::vector<i64>>& labels,
    std::span<const std::size_t> pivots, std::size_t in_dim,
    std::size_t label_dim) {
  // Square system over the pivot columns, augmented by every label
  // dimension: [P_piv | labels], k × (k + label_dim). The non-pivot
  // columns are free and get 0, as in RatMatrix::solve.
  const std::size_t k = pts.size();
  PP_CHECK(pivots.size() == k, "fit_fraction_free: pivot count mismatch");
  if (label_dim == 0) return LabelFit{};
  const std::size_t cols = k + label_dim;
  std::vector<i128> m(k * cols);
  auto at = [&](std::size_t r, std::size_t c) -> i128& {
    return m[r * cols + c];
  };
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t t = 0; t < k; ++t)
      at(r, t) = pivots[t] == in_dim ? 1 : pts[r][pivots[t]];
    for (std::size_t j = 0; j < label_dim; ++j) at(r, k + j) = labels[r][j];
  }
  // Bareiss–Jordan (Montante) elimination: after step t every entry is a
  // (t+1)×(t+1) minor, so each division by the previous pivot is exact,
  // and at the end the left block is det·I and the right block det·x.
  // Columns left of t are never read again, so only those right of the
  // pivot are updated.
  i128 prev = 1;
  for (std::size_t t = 0; t < k; ++t) {
    std::size_t sel = t;
    while (sel < k && at(sel, t) == 0) ++sel;
    if (sel == k) return std::nullopt;  // singular: not a valid basis
    if (sel != t)
      for (std::size_t c = t; c < cols; ++c) std::swap(at(sel, c), at(t, c));
    const i128 p = at(t, t);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == t) continue;
      const i128 f = at(r, t);
      for (std::size_t c = t + 1; c < cols; ++c) {
        i128 a, b;
        if (__builtin_mul_overflow(p, at(r, c), &a) ||
            __builtin_mul_overflow(f, at(t, c), &b) ||
            __builtin_sub_overflow(a, b, &a))
          return std::nullopt;
        at(r, c) = a / prev;
      }
    }
    prev = p;
  }
  // Rat negates a negative denominator (and with it the numerator):
  // leave the one unrepresentable negation to the rational path.
  if (prev == kMin) return std::nullopt;
  const std::size_t width = in_dim + 1;
  LabelFit fit(label_dim * width);
  for (std::size_t j = 0; j < label_dim; ++j) {
    for (std::size_t t = 0; t < k; ++t) {
      const i128 n = at(t, k + j);
      if (n == kMin) return std::nullopt;
      fit[j * width + pivots[t]] = Rat(n, prev);
    }
  }
  return fit;
}

bool in_hull_rational(const std::vector<std::vector<i64>>& pts,
                      std::span<const i64> point) {
  const std::size_t width = point.size() + 1;
  RatMatrix rows(0, width);
  RatVec r(width, Rat(1));
  for (const auto& p : pts) {
    for (std::size_t i = 0; i + 1 < width; ++i) r[i] = Rat(p[i]);
    rows.push_row(r);
  }
  for (std::size_t i = 0; i + 1 < width; ++i) r[i] = Rat(point[i]);
  return rows.rows() > 0 && rows.row_space_contains(r);
}

bool EchelonHull::reduce(std::span<const i64> point, bool whole) const {
  v_.resize(width_);
  for (std::size_t i = 0; i + 1 < width_; ++i) v_[i] = point[i];
  v_[width_ - 1] = 1;
  for (std::size_t r = 0; r < piv_.size(); ++r) {
    const std::size_t p = piv_[r];
    const i128 f = v_[p];
    if (f == 0) continue;
    const i128* row = rows_.data() + r * width_;
    const i128 s = row[p];
    for (std::size_t k = whole ? 0 : p; k < width_; ++k) {
      i128 a, b;
      if (__builtin_mul_overflow(s, v_[k], &a) ||
          __builtin_mul_overflow(f, row[k], &b) ||
          __builtin_sub_overflow(a, b, &v_[k]))
        return false;
    }
  }
  return true;
}

std::optional<bool> EchelonHull::contains(std::span<const i64> point) const {
  if (width_ == 0) return false;  // empty hull
  if (!reduce(point, /*whole=*/false)) return std::nullopt;
  for (const i128& x : v_)
    if (x != 0) return false;
  return true;
}

bool EchelonHull::extend(std::span<const i64> point) {
  width_ = point.size() + 1;
  if (!reduce(point, /*whole=*/true)) return false;
  // Divide out the content so rows stay primitive (and small); gcd
  // negates its operands.
  i128 g = 0;
  std::size_t p = width_;
  for (std::size_t k = 0; k < width_; ++k) {
    if (v_[k] == kMin) return false;
    if (v_[k] != 0 && p == width_) p = k;
    g = gcd(g, v_[k]);
  }
  PP_CHECK(p < width_, "extend: point already in hull");
  for (i128& x : v_) x /= g;
  const std::size_t at = static_cast<std::size_t>(
      std::upper_bound(piv_.begin(), piv_.end(), p) - piv_.begin());
  piv_.insert(piv_.begin() + static_cast<std::ptrdiff_t>(at), p);
  rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(at * width_),
               v_.begin(), v_.end());
  return true;
}

bool predicts_rational(const LabelFit& fit, std::span<const i64> point,
                       std::span<const i64> label) {
  const std::size_t in_dim = point.size();
  const std::size_t width = in_dim + 1;
  for (std::size_t j = 0; j < label.size(); ++j) {
    const Rat* row = fit.data() + j * width;
    Rat acc = row[in_dim];
    for (std::size_t i = 0; i < in_dim; ++i)
      if (!row[i].is_zero()) acc += row[i] * Rat(point[i]);
    if (acc != Rat(label[j])) return false;
  }
  return true;
}

bool maps_stride_rational(const LabelFit& fit, std::span<const i128> pstride,
                          std::span<const i128> lstride) {
  const std::size_t width = pstride.size() + 1;
  for (std::size_t j = 0; j < lstride.size(); ++j) {
    const Rat* row = fit.data() + j * width;
    Rat acc(0);
    for (std::size_t i = 0; i < pstride.size(); ++i)
      if (!row[i].is_zero()) acc += row[i] * Rat(pstride[i]);
    if (acc != Rat(lstride[j])) return false;
  }
  return true;
}

std::optional<ScaledFit> ScaledFit::from(const LabelFit& fit,
                                         std::size_t in_dim,
                                         std::size_t label_dim) {
  ScaledFit s;
  s.width_ = in_dim + 1;
  s.num_.resize(label_dim * s.width_);
  s.den_.resize(label_dim);
  for (std::size_t j = 0; j < label_dim; ++j) {
    const Rat* row = fit.data() + j * s.width_;
    i128 l = 1;
    for (std::size_t i = 0; i < s.width_; ++i) {
      // lcm(l, den) without the throwing helper: overflow is expected
      // for wild fits and only means "use the rational verdict".
      const i128 d = row[i].den();
      if (d == 1) continue;
      if (__builtin_mul_overflow(l / gcd(l, d), d, &l)) return std::nullopt;
    }
    s.den_[j] = l;
    for (std::size_t i = 0; i < s.width_; ++i)
      if (__builtin_mul_overflow(row[i].num(), l / row[i].den(),
                                 &s.num_[j * s.width_ + i]))
        return std::nullopt;
  }
  return s;
}

std::optional<bool> ScaledFit::predicts(std::span<const i64> point,
                                        std::span<const i64> label) const {
  const std::size_t in_dim = width_ - 1;
  for (std::size_t j = 0; j < den_.size(); ++j) {
    const i128* row = num_.data() + j * width_;
    std::optional<bool> eq =
        scaled_equal<i64>(row, point, row[in_dim], den_[j], label[j]);
    if (!eq || !*eq) return eq;
  }
  return true;
}

std::optional<bool> ScaledFit::maps_stride(
    std::span<const i128> pstride, std::span<const i128> lstride) const {
  for (std::size_t j = 0; j < den_.size(); ++j) {
    std::optional<bool> eq = scaled_equal<i128>(
        num_.data() + j * width_, pstride, 0, den_[j], lstride[j]);
    if (!eq || !*eq) return eq;
  }
  return true;
}

}  // namespace pp::fold
