// Layer 3 of pp::verify: the differential soundness oracle (DESIGN.md,
// "Exp. II contrast"). Two independent dependence analyses look at the same
// program — the dynamic DDG (ground truth for ONE execution) and the static
// may-dependence tester (sound for ALL executions). Their results must
// nest:
//
//   (a) dynamic ⊆ static: every folded DDG edge whose endpoints statican
//       models must be covered by the static may-dependence set. A dynamic
//       dependence the static tester proved impossible means one of the two
//       analyses is wrong — the profiler's strongest self-check.
//   (b) claims vs. evidence: every parallel / permutable level the
//       scheduler announced is re-validated against the folded
//       dependences (the must-pieces — provably-occurred instances): a
//       rational level walk first tries to prove a piece witness-free;
//       pieces it cannot clear are walked instance by instance, so every
//       witness names a real instance. A dependence carried by a level
//       claimed parallel contradicts the claim; contradicted levels are
//       downgraded and the region metrics refreshed.
//   (c) precision tier: the two static analyses must nest too —
//       dynamic ⊆ exact ⊆ may-dep. Over every modeled store-involved site
//       pair, a pair the may-tester proves address-disjoint can never be
//       found dependent by the exact Omega test (and a dynamic edge on a
//       pair the exact test proves independent is a coverage violation).
//       Pairs where exact strictly improves on may are counted as refined.
#pragma once

#include <string>
#include <vector>

#include "feedback/metrics.hpp"
#include "fold/folded_ddg.hpp"
#include "obs/obs.hpp"
#include "support/cancel.hpp"
#include "verify/static_deps.hpp"

namespace pp::verify {

/// One dynamic dependence edge the static tester claims cannot exist.
struct CoverageViolation {
  int dep_index = -1;  ///< index into FoldedProgram::deps
  int src_stmt = -1;
  int dst_stmt = -1;
  ddg::DepKind kind{};
  std::string message;
};

/// Part (a): dynamic-⊆-static containment over the folded DDG.
struct CoverageReport {
  u64 checked = 0;   ///< edges with both endpoints statically modeled
  u64 skipped = 0;   ///< cross-function or unmodeled edges (no verdict)
  /// Memory edges the may-tester covered that were re-checked against the
  /// exact Omega verdict (dynamic ⊆ exact, the stricter containment).
  u64 exact_checked = 0;
  std::vector<CoverageViolation> violations;

  bool ok() const { return violations.empty(); }
  std::string str() const;
};

CoverageReport check_dynamic_coverage(const ir::Module& m,
                                      const fold::FoldedProgram& prog);

/// One exact-⊆-may nesting failure: the may-tester proved a site pair
/// address-disjoint, yet the exact Omega test found an integer instance
/// pair touching the same word. One of the two analyses is wrong.
struct PrecisionViolation {
  int func = -1;
  int src_block = -1, src_instr = -1;
  int dst_block = -1, dst_instr = -1;
  std::string message;
};

/// Part (c): the static precision tier. Purely static — a function of the
/// module alone, independent of the execution being profiled.
struct PrecisionReport {
  u64 pairs_checked = 0;  ///< modeled store-involved pairs compared
  u64 refined = 0;  ///< may says may-alias, exact proves independent
  std::vector<PrecisionViolation> violations;

  bool ok() const { return violations.empty(); }
  std::string str() const;
};

/// Compare the may-dep tester and the exact tier over every modeled
/// store-involved site pair of every function, in program order.
PrecisionReport check_precision_tier(const ir::Module& m);

/// One contradicted scheduler claim, with the offending dependence.
struct ClaimWitness {
  enum class Kind {
    kParallelContradicted,  ///< nonzero distance at a parallel level
    kIllegalLevel,          ///< negative distance before satisfaction
    kBandViolation,         ///< negative in-band distance (not permutable)
  };
  Kind kind{};
  int group = -1;
  int level = -1;
  int src_stmt = -1;
  int dst_stmt = -1;
  std::string message;
};

/// Part (b): parallel/permutable claims re-validated against the DDG.
struct ClaimReport {
  u64 parallel_levels = 0;    ///< parallel claims examined
  /// Dependence instances covered: walked one by one, or counted when the
  /// rational level walk proved their piece free of witnesses.
  u64 instances_checked = 0;
  /// Pieces over the enumeration cap: decided by the exact integer test
  /// (Omega) per level, with the rational LP bounds as the fallback when a
  /// query hits the effort cap.
  u64 capped_pieces = 0;
  /// Enumerable pieces the rational level walk proved witness-free (their
  /// points are counted, not visited).
  u64 pieces_proved = 0;
  /// Enumerable pieces the proof could not clear: walked per instance.
  u64 pieces_enumerated = 0;
  int downgraded_levels = 0;  ///< parallel flags cleared by the oracle
  std::vector<ClaimWitness> witnesses;

  bool ok() const { return witnesses.empty(); }
  std::string str() const;
};

/// Re-validate every schedule level of `m.sched` against the must-pieces
/// of the folded dependences. With `downgrade` set (the default),
/// contradicted parallel levels lose their flag and the schedule-derived
/// metrics of `m` are recomputed via feedback::refresh_schedule_metrics.
/// Witnesses come in group order.
ClaimReport check_parallel_claims(const fold::FoldedProgram& prog,
                                  feedback::RegionMetrics& m,
                                  bool downgrade = true);

/// All three parts bundled, plus the one-line verdict full_report prints.
struct OracleReport {
  CoverageReport coverage;
  PrecisionReport precision;
  std::vector<ClaimReport> claims;  ///< one per region checked

  bool ok() const;
  std::string verdict_line() const;
};

/// Claim reports come in region order. `obs` (optional) wraps the run in a span and counts regions/claims,
/// enumeration-cap hits (`verify.cap_hits`) and, as kTiming counters, the
/// enumerable pieces proved witness-free vs walked per instance
/// (`oracle.pieces_proved` / `oracle.pieces_enumerated`).
/// `cancel` (optional): a token fired before the run skips the coverage
/// sweep entirely; one fired mid-run leaves the remaining regions'
/// ClaimReports empty (zero claims, no witnesses) — an un-examined claim
/// is never downgraded, so a cancelled oracle can't corrupt metrics.
OracleReport run_oracle(const ir::Module& m, const fold::FoldedProgram& prog,
                        const std::vector<feedback::RegionMetrics*>& regions,
                        bool downgrade = true,
                        obs::Session* obs = nullptr,
                        support::CancelToken* cancel = nullptr);

}  // namespace pp::verify
