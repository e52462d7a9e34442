// Assembly of the compact polyhedral DDG: a DdgSink that feeds every
// statement / dependence stream through a Folder, then finalizes into a
// FoldedProgram — folded iteration domains, affine value functions (SCEV
// recognition), affine access functions, and folded dependence relations
// with SCEV chains pruned (paper §5).
#pragma once

#include <map>
#include <memory>
#include <set>

#include "ddg/ddg_builder.hpp"
#include "fold/folder.hpp"
#include "obs/obs.hpp"
#include "poly/dep_relation.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"

namespace pp::fold {

/// One statement of the compact polyhedral DDG.
struct FoldedStatement {
  ddg::Statement meta;          ///< identity + dynamic counters
  poly::PolySet domain;         ///< folded iteration domain
  poly::PolySet values;         ///< produced values as labels (may be empty)
  poly::PolySet addresses;      ///< effective addresses as labels (mem ops)
  bool is_scev = false;         ///< recognized scalar-evolution instruction
  bool domain_exact = false;    ///< no over-approximation in the domain
  /// Degraded by a budget cap or a per-stream fold fault: the streamed
  /// instance set is incomplete, so every fold for this statement is
  /// forced over-approximate (domain_exact=false, all pieces inexact,
  /// never SCEV) regardless of how affine the partial points looked.
  bool degraded = false;

  /// The access function of a memory statement, when it folded into a
  /// single exact affine piece; nullptr otherwise.
  const poly::AffineMap* affine_access() const;
  /// Stride (in bytes) of the access function along coordinate `dim`.
  std::optional<i64> stride_along(std::size_t dim) const;
};

/// One folded dependence edge.
struct FoldedDep {
  int src = -1;
  int dst = -1;
  ddg::DepKind kind{};
  poly::PolySet relation;  ///< domain over dst coords; labels = src coords

  /// View as poly::DepRelation for the scheduler.
  poly::DepRelation as_relation() const;

  /// Under-approximation (the paper's §10 future work, "development of
  /// under-approximation schemes in the DDG"): the exact pieces only —
  /// every instance they describe is a *must*-dependence that provably
  /// occurred, with its source instance exactly known. Inexact
  /// (over-approximate) pieces are dropped.
  poly::PolySet must_relation() const;

  /// Fraction of observed dependence instances covered by must pieces.
  double must_coverage() const;
};

/// The compact polyhedral DDG for one profiled execution.
struct FoldedProgram {
  std::vector<FoldedStatement> statements;  ///< indexed by statement id
  std::vector<FoldedDep> deps;              ///< SCEV-pruned
  u64 pruned_dep_edges = 0;   ///< edges removed by SCEV pruning
  u64 pruned_dep_instances = 0;
  u64 total_dynamic_ops = 0;
  u64 degraded_statements = 0;  ///< statements demoted to over-approximation

  /// Per-statement affinity verdict: true when the statement's domain and
  /// (for memory ops) access function folded exactly AND every incident
  /// non-pruned dependence folded exactly. Indexed by statement id.
  ///
  /// `strict` additionally requires every fold to be a SINGLE piece —
  /// matching the paper's folding, which "does not support lattices at
  /// folding time" and thus never recognizes the piecewise patterns
  /// (modulo indexing, boundary splits) our multi-chunk folder handles.
  /// Table 5's %Aff uses strict mode for comparability.
  std::vector<bool> affine_flags(bool strict = true) const;

  /// %Aff numerator: dynamic ops in statements whose domain and (for
  /// memory ops) access function folded exactly, with all incident
  /// non-pruned dependences exact.
  u64 fully_affine_ops() const;

  const FoldedStatement& stmt(int id) const {
    return statements[static_cast<std::size_t>(id)];
  }
};

/// Streaming sink: plug into DdgBuilder, then call finalize() once.
class FoldingSink : public ddg::DdgSink {
 public:
  explicit FoldingSink(FolderOptions opts = {});

  void on_instruction(const ddg::Statement& s, std::span<const i64> coords,
                      bool has_value, i64 value, bool has_address,
                      i64 address) override;
  void on_dependence(ddg::DepKind kind, int src_stmt,
                     std::span<const i64> src_coords, int dst_stmt,
                     std::span<const i64> dst_coords, int slot) override;
  /// Bulk entry points for compressed trace runs: one Folder::add_run per
  /// stream instead of n scalar calls — bit-identical output either way.
  void on_instruction_run(const InstrRun& r) override;
  void on_dependence_run(const DepRun& r) override;

  /// Declare statements whose streams are incomplete (builder budget
  /// exhaustion). finalize() demotes them to over-approximations BEFORE
  /// SCEV recognition and pruning — a truncated stream can look affine.
  void mark_degraded(const std::set<int>& stmt_ids);
  /// Destination for per-stream fold-fault diagnostics (may be null).
  void set_diagnostics(support::DiagnosticLog* diag) { diag_ = diag; }
  /// Budget for the folder-piece cap (may be null). Charged in statement
  /// table order at finalize().
  void set_budget(support::RunBudget* budget) { budget_ = budget; }
  /// Observability session (may be null). finalize() runs in a span and
  /// publishes stream/piece counters; nothing touches the streaming hot
  /// path.
  void set_obs(obs::Session* obs) { obs_ = obs; }
  /// Cancellation token (may be null). finalize() polls it before each
  /// statement and dependence key, so a cancel observed mid-fold degrades
  /// a contiguous suffix of statements/edges. The already-finished prefix
  /// keeps its certified folds; the rest become over-approximations,
  /// exactly like budget exhaustion.
  void set_cancel(support::CancelToken* cancel) { cancel_ = cancel; }
  /// Chaos hook (ServiceFault::kDeadlineMidFold): fire the token as an
  /// expired deadline when finalize() reaches position `pos` (0 disables).
  /// Positions are structural, so the injected deadline always lands on
  /// the same statement.
  void set_chaos_deadline_at(std::size_t pos) { chaos_deadline_at_ = pos; }

  /// The sink-wide canonical-piece cache shared by every folder this sink
  /// creates (unless FolderOptions carried an external one).
  const FoldCache& cache() const { return cache_; }

  /// Fold everything and build the program. `table` must be the
  /// DdgBuilder's statement table from the same run. A pp::Error thrown by
  /// one statement's (or edge's) folder degrades that statement (or edge)
  /// to an over-approximate placeholder instead of escaping.
  FoldedProgram finalize(const ddg::StatementTable& table);

 private:
  struct StmtStreams {
    std::unique_ptr<Folder> domain;
    std::unique_ptr<Folder> value;
    std::unique_ptr<Folder> address;
  };
  using DepKey = std::tuple<int, int, ddg::DepKind, int>;  // src,dst,kind,slot
  struct DepKeyHash {
    std::size_t operator()(const DepKey& k) const {
      return static_cast<std::size_t>(std::get<0>(k)) * 0x9e3779b97f4a7c15ull ^
             static_cast<std::size_t>(std::get<1>(k)) * 0xc2b2ae3d27d4eb4full ^
             (static_cast<std::size_t>(std::get<2>(k)) << 8) ^
             static_cast<std::size_t>(std::get<3>(k));
    }
  };

  FolderOptions opts_;
  /// Cross-statement piece interning: folders of every statement and
  /// dependence key share it, so identical closed chunks (same canonical
  /// form) fold once.
  FoldCache cache_;
  std::map<int, StmtStreams> stmts_;
  std::unordered_map<DepKey, std::unique_ptr<Folder>, DepKeyHash> deps_;
  std::set<int> degraded_;
  support::DiagnosticLog* diag_ = nullptr;
  support::RunBudget* budget_ = nullptr;
  obs::Session* obs_ = nullptr;
  support::CancelToken* cancel_ = nullptr;
  std::size_t chaos_deadline_at_ = 0;
};

/// True when `op` is a scalar-evolution candidate: integer register
/// arithmetic whose folded values being affine identifies it as loop
/// bookkeeping (induction updates, address computation, trip-count
/// compares). Memory and FP instructions are never SCEV — their values are
/// genuine data flow.
bool scev_candidate(ir::Op op);

}  // namespace pp::fold
