// Pluto-style affine scheduler over the folded DDG (paper §6). Produces,
// per fused statement group, a sequence of schedule levels (rows) with
// permutable-band structure, per-level parallelism, tilability and skewing
// information — the raw material for POLY-PROF's transformation feedback
// (interchange / skew / tile / parallelize / vectorize suggestions and the
// %||ops, %simdops, TileD, Comp. columns of Table 5).
//
// Dependences arrive in the folder's own piece type (poly::Piece, from
// poly/poly_set.hpp), so feedback::make_problem copies folded relations
// whole.
//
// Differences from PluTo proper, by design (see DESIGN.md):
//  * legality of a candidate row is decided by *minimizing* the schedule
//    latency difference over each (bounded) dependence piece with
//    Polyhedron::minimize — closed form on box pieces, the exact rational
//    simplex on every other shape — min >= 0 is weak legality, min > 0
//    carries the dependence (sound for integer points since rational min
//    <= integer min);
//  * candidate rows are drawn from the Pluto cone with small coefficients:
//    unit vectors first (permutations), then ±1/±2 skews — the paper's
//    "we tend to avoid skewing unless it really provides improvements";
//  * dynamic flow dependences always point backward in time, so identity
//    rows are always weakly legal and the search cannot get stuck.
#pragma once

#include "obs/obs.hpp"
#include "poly/poly_set.hpp"
#include "support/cancel.hpp"

namespace pp::scheduler {

/// One statement to schedule. `domain_pieces` is the folded union.
struct SchedStatement {
  int id = -1;
  std::size_t depth = 0;
  u64 ops = 1;  ///< dynamic operation count (weights fusion metrics)
  std::vector<poly::Polyhedron> domain_pieces;
  /// Identities of the enclosing loops, outermost first (size == depth).
  /// Dependences between two statements are enforced only on their
  /// *shared* loop prefix — beyond it, distributed statement order
  /// satisfies them. When left empty, min(src, dst depth) is assumed
  /// (statements presumed co-nested).
  std::vector<int> loop_path;
};

/// A dependence relation dst <- src in the folder's piece form: each
/// piece's `domain` is over dst coordinates, its `label_fn` maps dst
/// coordinates to src coordinates, and `label_exact == false` marks an
/// opaque (non-affine) dependence. The other Piece fields are not read.
struct SchedDep {
  int src = -1;
  int dst = -1;
  std::vector<poly::Piece> pieces;
};

struct Problem {
  std::vector<SchedStatement> statements;
  std::vector<SchedDep> deps;
};

enum class FusionHeuristic {
  kMaxFuse,    ///< "M": fuse everything into one group
  kSmartFuse,  ///< "S": one group per dependence-connected component
};

struct Options {
  FusionHeuristic fusion = FusionHeuristic::kSmartFuse;
  bool allow_skew = true;
  i64 max_skew_coeff = 2;
  /// Approximate (non-optimal) scheduling — the paper's §10 future-work
  /// scalability lever: skip the candidate search entirely and evaluate
  /// only the identity rows (dependence distances, parallelism, band
  /// structure of the ORIGINAL loop order). Much cheaper, never proposes
  /// interchange/skew.
  bool identity_only = false;
  /// Observability session (may be null): schedule() wraps its group
  /// loop in a span and counts groups/levels solved.
  obs::Session* obs = nullptr;
  /// Cancellation token (may be null): polled at entry and before each
  /// group's candidate search. A fired token makes schedule() throw
  /// pp::Error("job cancelled during scheduling"), which the region
  /// analyzer catches into an UNANALYZABLE region — the schedule is
  /// all-or-nothing, so there is no partial result to degrade to.
  support::CancelToken* cancel = nullptr;
};

/// One schedule level (a row of the schedule matrix, aligned dimensions).
struct Level {
  std::vector<i64> row;        ///< coefficients, size = group max depth
  bool parallel = false;       ///< zero dependence distance at this level
  bool carries = false;        ///< strictly satisfies some dependence
  bool new_band = false;       ///< starts a new permutable band
  bool skew = false;           ///< row is a skew (not a unit vector)
};

/// Schedule for one fused group of statements.
struct GroupSchedule {
  std::vector<int> stmts;      ///< statement ids, original order
  std::vector<Level> levels;
  bool schedulable = true;     ///< false: opaque deps forced identity
  u64 ops = 0;

  /// Depth of the longest permutable band (the tilable depth).
  int tile_depth() const;
  /// All levels in a single permutable band?
  bool fully_permutable() const;
  bool uses_skew() const;

  /// Levels `from`..`to` (inclusive) sit inside one permutable band and
  /// are plain unit-vector rows — i.e. the dimensions they scan may be
  /// reordered freely. This is the legality question pp::transform asks
  /// before interchanging or tiling a loop pair.
  bool band_spans(std::size_t from, std::size_t to) const;
};

struct ScheduleResult {
  std::vector<GroupSchedule> groups;  ///< in execution order

  /// Paper Table 5 "Comp.": groups holding more than `min_fraction` of
  /// `total_ops` count as components.
  int num_components(double min_fraction, u64 total_ops) const;
};

ScheduleResult schedule(const Problem& problem, const Options& opts = {});

/// §6 parameterization: replace large constants by parameters, reusing one
/// parameter for every constant within ±window of the parameter's anchor
/// value (the paper uses window s = 20). Returns one assignment per input
/// constant: its parameter index and offset from the anchor.
struct ParamAssignment {
  i128 value;
  int param = -1;   ///< -1: small constant, left alone
  i128 offset = 0;  ///< value = anchor(param) + offset
};
std::vector<ParamAssignment> parameterize_constants(
    const std::vector<i128>& constants, i128 threshold = 512,
    i128 window = 20);

}  // namespace pp::scheduler
