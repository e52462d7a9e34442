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
//  * Labels are fitted by exact rational interpolation over an affinely
//    independent basis of seen points. Every point is verified against a
//    fit; points that extend the affine hull extend the basis (a fit
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
//    (endpoint-only template bounds, at most one hull extension), which
//    is equivalent to routing the run point by point (see DESIGN.md,
//    "Folding").
//  * Exactness of a piece = (#lattice points of the domain == #points
//    routed to it) AND the label fit is affine with integer coefficients.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "poly/poly_set.hpp"

namespace pp::fold {

class FoldCache;

struct FolderOptions {
  /// Lattice-point budget for the exactness check; domains bigger than
  /// this are conservatively marked over-approximate.
  u64 count_cap = 1u << 22;
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
  /// Optional fold-wide canonical-piece cache shared by many folders
  /// (cross-statement interning); may be null. The cache key captures
  /// every input of piece construction, so a hit is byte-identical to a
  /// recomputation.
  FoldCache* cache = nullptr;
};

/// Fold-wide canonical-piece cache: a closed chunk's piece is a pure
/// function of its canonical form — template bounds in fixed row order,
/// the rational label fit, the observed count and the exactness inputs —
/// so identical pieces across statements and dependence groups are built
/// once and shared. Hit/miss totals are timing-class observability only:
/// they describe how pieces were built, not what they are.
class FoldCache {
 public:
  using Key = std::vector<u64>;

  /// Returns the cached piece for `key`, or null on a miss.
  std::shared_ptr<const poly::Piece> find(const Key& key) const;
  /// Inserts (first writer wins); no-op once the entry cap is reached.
  void insert(Key key, std::shared_ptr<const poly::Piece> piece);

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  std::size_t size() const { return map_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  /// Growth bound; beyond it the cache stops learning (still serves hits).
  static constexpr std::size_t kMaxEntries = 1u << 16;

  std::unordered_map<Key, std::shared_ptr<const poly::Piece>, KeyHash> map_;
  mutable u64 hits_ = 0;
  mutable u64 misses_ = 0;
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
  /// construction: the call falls back to scalar routing until the
  /// pending-run state can absorb the remainder as a single O(1) stride
  /// extension (constant strides matching the pending run, no wrap left).
  void add_run(std::span<const i64> point, std::span<const i64> label,
               std::span<const i64> pstride, std::span<const i64> lstride,
               u64 n);

  /// Close all open chunks and return the accumulated pieces. The folder
  /// can keep streaming afterwards.
  poly::PolySet finish();

  std::size_t in_dim() const { return in_dim_; }
  std::size_t label_dim() const { return label_dim_; }
  u64 points_seen() const { return total_points_; }

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
    u64 id = 0;         ///< stable identity (open_ indices shift on evict)
    u64 points = 0;
    u64 last_use = 0;   ///< stream sequence number of the last routed point
    u64 created = 0;    ///< creation sequence (stable output ordering)
    std::vector<Bnd> bnd;  ///< per template row, in `rows_` order
    std::vector<std::vector<i64>> basis_pts;
    std::vector<std::vector<i64>> basis_labels;
    RatMatrix hull;     ///< RREF rows of [I 1] over the basis
    /// Integer image of `hull` (each row scaled by its denominators' lcm,
    /// pivot column first): lets the hot in_hull membership test run
    /// fraction-free on i128 instead of allocating rationals. Rebuilt on
    /// every basis extension; empty = scaling overflowed, use `hull`.
    std::vector<std::vector<i128>> hull_int;
    std::vector<std::size_t> hull_piv;        ///< pivot column per int row
    std::vector<RatVec> fit;                  ///< per label dim: coeffs+const
    std::vector<std::vector<i128>> fit_int;   ///< integer fast path
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
  void start_run(std::span<const i64> point, std::span<const i64> label);
  void set_run_last(std::span<const i64> point, std::span<const i64> label);
  /// Replay the pending run; switches to bulk absorption as soon as the
  /// receiving chunk's fit maps the stride.
  void flush_run();
  /// Linear part of the chunk's fit applied to the pending stride equals
  /// the label stride (then the fit predicts every remaining run point).
  bool fit_maps_stride(const Chunk& c) const;
  bool fit_maps(const Chunk& c, std::span<const i128> ps,
                std::span<const i128> ls) const;
  void bulk_absorb(Chunk& c, std::span<const i64> first,
                   std::span<const i64> first_label, u64 extra, u64 end_seq);

  i128 eval_row(const TRow& t, std::span<const i64> pt) const;
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
  FoldCache::Key cache_key(const Chunk& c) const;

  std::size_t in_dim_;
  std::size_t label_dim_;
  FolderOptions opts_;
  std::vector<TRow> rows_;  ///< memoized template rows (dim + octagon)

  std::vector<Chunk> open_;
  std::vector<std::size_t> route_order_;  ///< routing scratch (recency sort)
  mutable std::vector<i128> hullv_;       ///< in_hull reduction scratch
  void rebuild_hull_int(Chunk& c) const;
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
  std::vector<i64> arun_pt_, arun_lab_;  ///< add_run scratch (add() may
                                         ///< trigger flush_run, which owns
                                         ///< cur_pt_/cur_lab_)

  // Chained runs ("runs of runs", levels 2 and 3): loop nests flush one
  // arithmetic run per innermost-loop entry; consecutive entries produce
  // runs of identical length and stride whose bases advance by a constant
  // second-level stride o1, and consecutive middle-loop entries produce
  // GROUPS of runs whose group bases advance by a constant third-level
  // stride o2 (the group size R is learned from the first group). Once a
  // chunk's fit maps every stride and the chain's generators lie in its
  // affine hull, every further matching run is absorbed with O(d)
  // bookkeeping — the template bounds are applied once, at the chain's
  // lattice corners (at most 12 points), when the chain breaks.
  // chain_defer() states the exact conditions under which this is
  // equivalent to flushing each run through the generic path.
  enum class ChainState : std::uint8_t { kNone, kSeeded, kArmed };
  ChainState chain_state_ = ChainState::kNone;
  u64 chain_chunk_id_ = 0;  ///< chunk absorbing the chain
  u64 chain_T_ = 0;         ///< per-run length (fixed across the chain)
  u64 chain_R_ = 0;         ///< runs per complete group (0 = unlearned)
  u64 chain_M_ = 0;         ///< current group ordinal (1-based)
  u64 chain_B_ = 0;         ///< runs in the current group
  u64 chain_points_ = 0;    ///< total deferred points
  u64 chain_end_seq_ = 0;   ///< seq of the last deferred point
  std::vector<i128> chain_s_, chain_ls_;    ///< level-1 (within-run) stride
  std::vector<i128> chain_o1_, chain_lo1_;  ///< level-2 (run-to-run) stride
  std::vector<i128> chain_o2_, chain_lo2_;  ///< level-3 (group-to-group)
  std::vector<i64> chain_base0_, chain_lbase0_;  ///< first deferred run base
  std::vector<i64> chain_group_base_, chain_group_lbase_;
  std::vector<i64> chain_last_base_, chain_last_lbase_;
  std::vector<i64> chain_seed_base_, chain_seed_lbase_;
  std::vector<i64> chain_tmp_;  ///< hull-probe / corner scratch
  u64 next_chunk_id_ = 0;
  Chunk* chunk_by_id(u64 id);
  /// Absorb the just-ended pending run into the active chain (or arm a
  /// seeded one); true = fully handled, skip the generic flush path.
  bool chain_defer(u64 n);
  /// Apply the deferred chain effects (corner bounds, point count) to its
  /// chunk and reset the chain. Must run before any routing or close.
  void chain_finalize();
  /// Remember a cleanly absorbed run as a chain candidate.
  void chain_seed(u64 n, u64 chunk_id, bool clean);

  poly::PolySet result_{0};
  u64 total_points_ = 0;
  bool collapsed_ = false;  ///< max_pieces exceeded

  // Running template bounds over every closed chunk: once the piece cap
  // trips, finish() builds the collapsed over-approximation from these in
  // O(d²) instead of an LP sweep over all accumulated pieces.
  std::vector<Bnd> collapse_bnd_;
  u64 collapse_observed_ = 0;
};

}  // namespace pp::fold
