// Exact label-fit kernels of the folder (see folder.hpp and DESIGN.md,
// "Affine label fitting"). A piece's label function is the affine map
// interpolating its basis points; these kernels keep the basis's affine
// hull, compute the map and test it against new points on integers first,
// and fall back to pp::Rat only when a 128-bit intermediate overflows.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "support/matrix.hpp"

namespace pp::fold {

/// A label fit: per label dimension, the coefficients of the iteration
/// vector followed by the constant, as one row-major
/// label_dim × (in_dim + 1) vector.
using LabelFit = RatVec;

/// Reference fit: RatMatrix::solve of [P 1]·x = labels per label
/// dimension, with free columns set to 0. `pts` must be affinely
/// independent (then the system is consistent). Throws pp::Error when a
/// rational intermediate overflows.
LabelFit fit_rational(const std::vector<std::vector<i64>>& pts,
                      const std::vector<std::vector<i64>>& labels,
                      std::size_t in_dim, std::size_t label_dim);

/// The same fit by one fraction-free Bareiss–Jordan elimination on i128
/// over the pivot columns of the basis rows' reduced row echelon form
/// (`pivots`, in any order, e.g. EchelonHull::pivots(); column in_dim is
/// the constant), shared by all label dimensions. Each coefficient is then one normalized
/// Rat(numerator, determinant). The RREF is unique, so these are the
/// pivots RatMatrix::solve picks and the result equals fit_rational().
/// nullopt when an i128 intermediate overflows (or when the pivot columns
/// do not give a nonsingular system, which an RREF's never do).
std::optional<LabelFit> fit_fraction_free(
    const std::vector<std::vector<i64>>& pts,
    const std::vector<std::vector<i64>>& labels,
    std::span<const std::size_t> pivots, std::size_t in_dim,
    std::size_t label_dim);

/// Reference membership test: [point 1] lies in the row space of the
/// [p 1] rows of `pts`, by RatMatrix::row_space_contains. Throws pp::Error
/// when a rational intermediate overflows.
bool in_hull_rational(const std::vector<std::vector<i64>>& pts,
                      std::span<const i64> point);

/// The affine hull of a point set as a fraction-free echelon basis of its
/// [p 1] rows: primitive i128 rows with distinct pivots (first nonzero
/// columns), sorted by pivot. Echelon pivots equal the RREF's, so
/// pivots() is what fit_fraction_free() takes.
class EchelonHull {
 public:
  std::span<const std::size_t> pivots() const { return piv_; }

  /// Whether [point 1] lies in the hull; nullopt on i128 overflow.
  std::optional<bool> contains(std::span<const i64> point) const;
  /// Add [point 1], which must lie off the hull. false on i128 overflow;
  /// the hull is then unusable.
  bool extend(std::span<const i64> point);

 private:
  /// Reduce v_ = [point 1] by every row in pivot order (false on
  /// overflow): R[p]·v − v[p]·R over v[p..], where the scale stays uniform
  /// (enough for a zero test), or over all of v when `whole`.
  bool reduce(std::span<const i64> point, bool whole) const;

  std::size_t width_ = 0;        ///< in_dim + 1, set by the first extend
  std::vector<i128> rows_;       ///< rank × width_, row-major
  std::vector<std::size_t> piv_;
  mutable std::vector<i128> v_;  ///< reduction scratch
};

/// Rational verdict: fit(point) == label in every label dimension.
bool predicts_rational(const LabelFit& fit, std::span<const i64> point,
                       std::span<const i64> label);

/// Rational verdict: the fit's linear part maps `pstride` to `lstride`.
bool maps_stride_rational(const LabelFit& fit, std::span<const i128> pstride,
                          std::span<const i128> lstride);

/// A fit as integer numerators over one positive common denominator per
/// label dimension (the lcm of that dimension's reduced denominators):
/// fit[j][i] == num[j][i] / den[j]. Its tests run on i128 without a gcd
/// and return nullopt on overflow, where the caller asks the rational
/// verdict instead.
class ScaledFit {
 public:
  /// nullopt when scaling `fit` to a common denominator overflows.
  static std::optional<ScaledFit> from(const LabelFit& fit,
                                       std::size_t in_dim,
                                       std::size_t label_dim);

  std::optional<bool> predicts(std::span<const i64> point,
                               std::span<const i64> label) const;
  std::optional<bool> maps_stride(std::span<const i128> pstride,
                                  std::span<const i128> lstride) const;

 private:
  std::size_t width_ = 1;  ///< in_dim + 1
  std::vector<i128> num_;  ///< label_dim × width_, row-major
  std::vector<i128> den_;  ///< per label dimension, > 0
};

}  // namespace pp::fold
