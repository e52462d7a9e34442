// Streaming geometric folding (paper §5 and tech report RR-9244, whose
// interface the paper specifies): the input is a stream of
//   (I, a(I))   — iteration vector + integer label vector —
// per context; the output is a union of polyhedra P with affine functions
// A such that A(I) = a(I) for all I in P, plus an exactness verdict used
// for the paper's over-approximation accounting (%Aff).
//
// Design:
//  * Domains are tracked against a box+octagon constraint *template*
//    (±x_i, x_i ± x_j): min/max of each template expression over a piece's
//    points give the tightest template polyhedron containing them.
//    Rectangular, triangular and ±1-skewed loop nests fold exactly;
//    anything else becomes a certified over-approximation.
//  * Labels are fitted by exact interpolation over an affinely
//    independent basis of seen points, integer-first (label_fit.hpp: the
//    basis's affine hull as fraction-free echelon rows, a fraction-free
//    solve over their pivots and scaled-integer tests; pp::Rat, from the
//    basis points, only on i128 overflow). Every point is verified against
//    a fit; points that extend the affine hull extend the basis (a fit
//    restricted to the old hull never changes, so earlier verifications
//    remain valid).
//  * The folder keeps SEVERAL pieces open simultaneously and routes each
//    incoming point to the piece whose affine function predicts its label
//    (piecewise streams — loop-exit compares, boundary statements —
//    interleave their pieces; a single-chunk folder would fragment them).
//    A point no open piece accepts extends the most recent piece's fit
//    when it lies off that piece's affine hull, and otherwise opens a new
//    piece, evicting the least-recently-used one past the budget.
//  * Regular streams never reach the per-point machinery: the folder
//    recognizes arithmetic runs — constant point-stride with constant
//    label-stride — and absorbs a whole run with O(1) chunk updates
//    (endpoint-only template bounds, at most two hull extensions), which
//    is equivalent to routing the run point by point (see DESIGN.md,
//    "Folding"). add() and add_run() share one pending-run state machine
//    (append), which takes n points in O(d). Once the piece cap has
//    collapsed the folder, runs only widen the collapse bounds.
//  * Exactness of a piece = (#lattice points of the domain == #points
//    routed to it) AND the label fit is affine with integer coefficients.
#pragma once

#include <optional>

#include "fold/label_fit.hpp"
#include "poly/poly_set.hpp"

namespace pp::fold {

struct FolderOptions {
  /// Upper bound on finalized pieces; once exceeded, everything collapses
  /// into one over-approximate piece (scalability guard, cf. paper §5).
  std::size_t max_pieces = 64;
  /// Simultaneously open pieces for interleaved piecewise streams.
  /// 1 reproduces a single-chunk folder (the paper's behaviour on
  /// interleaved piecewise patterns — see bench/ablation_folding).
  std::size_t max_open_chunks = 4;
  /// Include the octagon rows (x_i ± x_j) in the domain template. Without
  /// them only boxes fold exactly (triangular/skewed nests become
  /// over-approximations).
  bool use_octagon = true;
  /// Recognize arithmetic runs in the stream and absorb them with O(1)
  /// chunk updates per run. Off reproduces the point-at-a-time folder —
  /// the outputs are identical by construction (ablation/testing knob).
  bool stride_runs = true;
};

/// Folds one (iteration vector, label vector) stream.
class Folder {
 public:
  /// `in_dim` = iteration-vector arity, `label_dim` = label arity.
  Folder(std::size_t in_dim, std::size_t label_dim, FolderOptions opts = {});

  /// Feed one point. `label.size()` must equal label_dim.
  void add(std::span<const i64> point, std::span<const i64> label);

  /// Feed `n` points in one call: the k-th point/label is obtained from
  /// the previous one by adding `pstride`/`lstride` with 64-bit wrapping
  /// (so a caller replaying observed values reproduces them exactly even
  /// across overflow). Equivalent to `n` scalar add() calls by
  /// construction: a run that does not wrap makes the pending-run
  /// transitions of those calls in O(d); a wrapping one replays them.
  void add_run(std::span<const i64> point, std::span<const i64> label,
               std::span<const i64> pstride, std::span<const i64> lstride,
               u64 n);

  /// Close all open chunks and return the accumulated pieces. The folder
  /// can keep streaming afterwards.
  poly::PolySet finish();

  std::size_t in_dim() const { return in_dim_; }
  std::size_t label_dim() const { return label_dim_; }
  u64 points_seen() const { return total_points_; }
  /// Label refits, and exact-kernel calls (refit, fit and hull tests)
  /// answered on pp::Rat because an i128 intermediate overflowed.
  u64 refits() const { return refits_; }
  u64 rat_fallbacks() const { return rat_fallbacks_; }
  /// Pending runs replayed into the chunks, and the points they held.
  u64 run_flushes() const { return run_flushes_; }
  u64 flushed_points() const { return flushed_points_; }

 private:
  /// One template expression, x_i (j < 0) or x_i + cj·x_j (cj = ±1) —
  /// memoized per (dim, octagon) in `rows_` instead of materialized as a
  /// coefficient vector in every chunk.
  struct TRow {
    int i = 0;
    int j = -1;
    i64 cj = 0;
  };
  /// Observed min/max of one template row over a chunk's points.
  struct Bnd {
    i128 min = 0;
    i128 max = 0;
  };

  struct Chunk {
    u64 points = 0;
    u64 last_use = 0;   ///< stream sequence number of the last routed point
    u64 created = 0;    ///< creation sequence (stable output ordering)
    std::vector<Bnd> bnd;  ///< per template row, in `rows_` order
    std::vector<std::vector<i64>> basis_pts;
    std::vector<std::vector<i64>> basis_labels;
    EchelonHull hull;   ///< affine hull of `basis_pts`, fraction-free
    /// `hull` overflowed i128: membership and refits run on pp::Rat from
    /// `basis_pts` (in_hull_rational, fit_rational) from then on.
    bool rat_hull = false;
    LabelFit fit;                    ///< label_dim × (coeffs, constant)
    std::optional<ScaledFit> scaled;  ///< integer image of `fit`, if any
  };

  Chunk make_chunk(std::span<const i64> point, std::span<const i64> label,
                   u64 at_seq);
  bool in_hull(const Chunk& c, std::span<const i64> point) const;
  bool predicts(const Chunk& c, std::span<const i64> point,
                std::span<const i64> label) const;
  void absorb(Chunk& c, std::span<const i64> point,
              std::span<const i64> label, bool refit_needed, u64 at_seq);
  void extend_basis(Chunk& c, std::span<const i64> point,
                    std::span<const i64> label);
  void refit(Chunk& c);
  void close_chunk(Chunk& c);

  /// The point-at-a-time routing steps (predict → MRU refit → new chunk);
  /// returns the index in `open_` of the chunk that got the point.
  std::size_t route_point(std::span<const i64> point,
                          std::span<const i64> label, u64 at_seq);
  /// The pending-run transitions of n scalar add()s of the points
  /// point + k·stride (k < n, no 64-bit wrap): the first point extends,
  /// establishes or breaks the pending run; the rest extend it, or break
  /// it once, at the second point. The strides are unread when n == 1.
  void append(std::span<const i64> point, std::span<const i64> label,
              std::span<const i64> pstride, std::span<const i64> lstride,
              u64 n);
  void start_run(std::span<const i64> point, std::span<const i64> label);
  void set_run_last(std::span<const i64> point, std::span<const i64> label);
  /// point − run_last_ and label − run_llast_ equal the pending strides.
  bool continues_run(std::span<const i64> point,
                     std::span<const i64> label) const;
  /// Replay the pending run; switches to bulk absorption as soon as the
  /// receiving chunk's fit maps the stride.
  void flush_run();
  /// Linear part of the chunk's fit applied to the pending stride equals
  /// the label stride (then the fit predicts every remaining run point).
  bool fit_maps_stride(const Chunk& c) const;
  void bulk_absorb(Chunk& c, std::span<const i64> first,
                   std::span<const i64> first_label, u64 extra, u64 end_seq);

  i128 eval_row(const TRow& t, std::span<const i64> pt) const;
  /// Widen `bnd` to cover points `a` and `b` (a run's endpoints).
  void merge_bounds(std::vector<Bnd>& bnd, std::span<const i64> a,
                    std::span<const i64> b) const;
  /// Emit the non-implied template constraints of `bnd`; bounds that do
  /// not fit int64 are dropped (sound over-approximation) with `clamped`
  /// set so the caller forfeits exactness.
  poly::Polyhedron emit_domain(const std::vector<Bnd>& bnd, bool& is_box,
                               bool& clamped) const;
  /// Lattice count of the chunk's template domain, capped like
  /// enumeration: closed forms for boxes and 2-D octagons, enumeration
  /// (bounded by the observed count) for genuinely irregular pieces.
  std::optional<u64> count_chunk(const Chunk& c, bool is_box,
                                 const poly::Polyhedron& dom) const;
  std::optional<u64> count_octagon_2d(const std::vector<Bnd>& bnd) const;
  poly::Piece build_piece(const Chunk& c) const;

  std::size_t in_dim_;
  std::size_t label_dim_;
  FolderOptions opts_;
  std::vector<TRow> rows_;  ///< memoized template rows (dim + octagon)

  std::vector<Chunk> open_;
  std::vector<std::size_t> route_order_;  ///< routing scratch (recency sort)
  u64 seq_ = 0;
  bool lex_ok_ = true;

  // Pending arithmetic run. Points are buffered until the stride breaks
  // (or finish()), then replayed — point by point until a chunk's fit maps
  // the stride, in bulk from there on. `run_last_` doubles as the
  // previous-point reference for the lexicographic check (no per-point
  // allocation or copy beyond maintaining it).
  u64 run_len_ = 0;
  u64 run_start_seq_ = 0;
  bool run_stride_viol_ = false;  ///< stride not lex-positive (dup/backstep)
  bool have_prev_ = false;        ///< stride_runs=false: lex reference valid
  std::vector<i64> run_base_, run_last_;
  std::vector<i64> run_lbase_, run_llast_;
  std::vector<i128> pstride_, lstride_;
  std::vector<i64> cur_pt_, cur_lab_;  ///< flush_run scratch
  std::vector<i64> arun_pt_, arun_lab_;  ///< add_run's wrapping replay

  poly::PolySet result_{0};
  u64 total_points_ = 0;
  u64 refits_ = 0;
  mutable u64 rat_fallbacks_ = 0;
  u64 run_flushes_ = 0;
  u64 flushed_points_ = 0;
  bool collapsed_ = false;  ///< max_pieces exceeded

  // Running template bounds over every closed chunk: once the piece cap
  // trips, finish() builds the collapsed over-approximation from these in
  // O(d²) instead of an LP sweep over all accumulated pieces.
  std::vector<Bnd> collapse_bnd_;
  u64 collapse_observed_ = 0;
};

}  // namespace pp::fold
