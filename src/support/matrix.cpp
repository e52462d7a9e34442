#include "support/matrix.hpp"

#include <sstream>

namespace pp {

RatMatrix::RatMatrix(std::initializer_list<std::initializer_list<Rat>> init) {
  for (const auto& r : init) push_row(RatVec(r));
}

void RatMatrix::push_row(const RatVec& row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  PP_CHECK(row.size() == cols_, "push_row: column count mismatch");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

RatVec RatMatrix::row(std::size_t r) const {
  PP_CHECK(r < rows_, "row index out of range");
  return RatVec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

namespace {

// In-place row echelon reduction; returns the pivot columns.
std::vector<std::size_t> echelon(std::vector<RatVec>& m) {
  std::vector<std::size_t> pivots;
  std::size_t rows = m.size();
  if (rows == 0) return pivots;
  std::size_t cols = m[0].size();
  std::size_t pr = 0;  // current pivot row
  for (std::size_t pc = 0; pc < cols && pr < rows; ++pc) {
    // Find a pivot in column pc at or below row pr.
    std::size_t sel = pr;
    while (sel < rows && m[sel][pc].is_zero()) ++sel;
    if (sel == rows) continue;
    std::swap(m[sel], m[pr]);
    // Normalize pivot row.
    Rat inv = Rat(1) / m[pr][pc];
    for (std::size_t c = pc; c < cols; ++c) m[pr][c] *= inv;
    // Eliminate all other rows.
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pr || m[r][pc].is_zero()) continue;
      Rat f = m[r][pc];
      for (std::size_t c = pc; c < cols; ++c) m[r][c] -= f * m[pr][c];
    }
    pivots.push_back(pc);
    ++pr;
  }
  return pivots;
}

}  // namespace

std::size_t RatMatrix::rank() const {
  std::vector<RatVec> m;
  m.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) m.push_back(row(r));
  return echelon(m).size();
}

std::optional<RatVec> RatMatrix::solve(const RatVec& b) const {
  PP_CHECK(b.size() == rows_, "solve: rhs size mismatch");
  // Augmented matrix [A | b].
  std::vector<RatVec> m;
  m.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    RatVec rv = row(r);
    rv.push_back(b[r]);
    m.push_back(std::move(rv));
  }
  std::vector<std::size_t> pivots = echelon(m);
  // Inconsistent iff a pivot landed in the augmented column.
  if (!pivots.empty() && pivots.back() == cols_) return std::nullopt;
  RatVec x(cols_, Rat(0));
  for (std::size_t i = 0; i < pivots.size(); ++i) x[pivots[i]] = m[i][cols_];
  return x;
}

bool RatMatrix::row_space_contains(const RatVec& v) const {
  PP_CHECK(v.size() == cols_, "row_space_contains: size mismatch");
  std::vector<RatVec> m;
  m.reserve(rows_ + 1);
  for (std::size_t r = 0; r < rows_; ++r) m.push_back(row(r));
  std::size_t base_rank = [&] {
    std::vector<RatVec> copy = m;
    return echelon(copy).size();
  }();
  m.push_back(v);
  return echelon(m).size() == base_rank;
}

std::string RatMatrix::str() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << "[ ";
    for (std::size_t c = 0; c < cols_; ++c) os << at(r, c).str() << " ";
    os << "]\n";
  }
  return os.str();
}

Rat dot(const RatVec& a, const RatVec& b) {
  PP_CHECK(a.size() == b.size(), "dot: size mismatch");
  Rat s(0);
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace pp
