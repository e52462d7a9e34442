// Unions of polyhedra with per-piece exactness accounting — the output
// shape of the folding stage ("a union of polyhedra that represent the set
// of all iteration vectors", paper §5), where some pieces may be
// over-approximations of the true (hole-y) integer set.
#pragma once

#include <string>
#include <vector>

#include "poly/affine.hpp"
#include "poly/polyhedron.hpp"

namespace pp::poly {

/// One piece of a folded set: a polyhedral domain plus the affine function
/// giving the piece's labels (paper §5 "for each polyhedron P, an affine
/// function A such that for all I in P, A(I) = a(I)"). A folded dependence
/// src -> dst is a union of these with the domain over the *destination*
/// iteration vector and the labels giving the matching *source* iteration
/// vector (paper Tables 1-2: "0<=cj<=15 and 1<=ck<=42 : cj' = cj,
/// ck' = ck - 1"); the scheduler consumes that form as is.
struct Piece {
  Polyhedron domain;
  AffineMap label_fn;      ///< affine reconstruction of the label vector
  bool exact = true;       ///< false when the domain over-approximates the
                           ///< observed points or the labels are not affine
  bool label_exact = true; ///< the labels ARE an integer affine function
                           ///< (the domain may still over-approximate);
                           ///< such pieces remain usable conservatively
  u64 observed_points = 0; ///< distinct iteration vectors folded in
};

/// A union of pieces over a common space.
class PolySet {
 public:
  PolySet() = default;
  explicit PolySet(std::size_t dim) : dim_(dim) {}

  std::size_t dim() const { return dim_; }
  const std::vector<Piece>& pieces() const { return pieces_; }
  std::vector<Piece>& pieces() { return pieces_; }
  bool empty() const { return pieces_.empty(); }

  void add_piece(Piece p) {
    PP_CHECK(p.domain.dim() == dim_, "piece dimension mismatch");
    pieces_.push_back(std::move(p));
  }

  /// True when every piece folded exactly.
  bool all_exact() const {
    for (const auto& p : pieces_)
      if (!p.exact) return false;
    return true;
  }

  /// Total observed dynamic points across pieces.
  u64 total_observed() const {
    u64 n = 0;
    for (const auto& p : pieces_) n += p.observed_points;
    return n;
  }

  bool contains(std::span<const i64> point) const {
    for (const auto& p : pieces_)
      if (p.domain.contains(point)) return true;
    return false;
  }

  std::string str(std::span<const std::string> names = {}) const;

 private:
  std::size_t dim_ = 0;
  std::vector<Piece> pieces_;
};

}  // namespace pp::poly
