// Dense exact-rational matrices and the linear-algebra kernels used by the
// folding stage (affine-function interpolation, hull membership) and the
// scheduler (linear independence of schedule rows).
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "support/rational.hpp"

namespace pp {

/// Dense rational vector.
using RatVec = std::vector<Rat>;

/// Dense row-major rational matrix with exact Gaussian elimination.
class RatMatrix {
 public:
  RatMatrix() = default;
  RatMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}
  RatMatrix(std::initializer_list<std::initializer_list<Rat>> init);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Rat& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const Rat& at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Append a row (must match the column count; sets it on first row).
  void push_row(const RatVec& row);

  RatVec row(std::size_t r) const;

  /// Rank via fraction-free-ish Gaussian elimination (on a copy).
  std::size_t rank() const;

  /// Solve A·x = b exactly. Returns nullopt when inconsistent; when the
  /// system is under-determined an arbitrary solution (free vars = 0) is
  /// returned.
  std::optional<RatVec> solve(const RatVec& b) const;

  /// True if `v` lies in the row space of this matrix (used to force new
  /// schedule rows to be linearly independent of the band built so far).
  bool row_space_contains(const RatVec& v) const;

  std::string str() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Rat> data_;
};

/// Dot product of two equally-sized rational vectors.
Rat dot(const RatVec& a, const RatVec& b);

}  // namespace pp
