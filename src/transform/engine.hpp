// The transformation engine — the paper's "close the loop" payoff. The
// profiler's feedback names schedules (interchange, tile, fuse,
// parallelize); this engine regenerates the corresponding mini-ISA loop
// nests from the scheduler's per-group schedule tree, re-runs the
// transformed module under the VM cost model, and reports the *measured*
// simulated speedup next to the scheduler's prediction.
//
// Hard correctness contract: every applied transformation must leave the
// observable program output byte-identical to the original run (exit value
// plus the full VM memory image). A transformation that breaks identity is
// reported as a soundness violation — never silently dropped — because it
// means either the profiler's dependence information or the engine's
// legality reasoning is wrong, which is exactly what an end-to-end check
// exists to catch.
//
// Legality sources, in order:
//   1. register-level structure: ir::match_counted_loop's side conditions;
//   2. the scheduler's bands (GroupSchedule::band_spans) for interchange
//      and tiling — the dimensions must sit in one permutable band;
//   3. the engine's own polyhedral check over the folded dependence
//      relations for fusion (the scheduler never row-checks dependences
//      between distributed loops);
//   4. the differential oracle (verify::check_parallel_claims): a schedule
//      whose claims the must-evidence contradicts is refused with a
//      diagnostic, not applied.
#pragma once

#include <string>
#include <vector>

#include "cfg/loop_events.hpp"
#include "feedback/metrics.hpp"
#include "fold/folded_ddg.hpp"
#include "ir/ir.hpp"
#include "support/cancel.hpp"

namespace pp::transform {

enum class Kind : std::uint8_t { kInterchange, kTile, kFuse };
const char* kind_name(Kind k);

/// One planned rewrite. Interchange/tile name a perfectly-nestable loop
/// pair by header block; fusion names an adjacent chain of headers in
/// textual order. `mx` carries the schedule backing the plan so the oracle
/// can re-validate the claims right before the rewrite is applied.
struct Plan {
  Kind kind{};
  int func = -1;
  int outer_header = -1;
  int inner_header = -1;
  std::vector<int> chain;
  double predicted = 1.0;
  bool parallel_outer = false;
  std::string site;  ///< "file:line (function)"
  std::string desc;  ///< "interchange loops @7/@9"
  feedback::RegionMetrics mx;
};

/// One transformation that was applied and measured.
struct Applied {
  Kind kind{};
  std::string site;
  std::string desc;
  double predicted = 1.0;
  double measured = 1.0;   ///< baseline cycles / transformed cycles
  bool output_identical = false;
  bool parallel_outer = false;
  u64 cycles_before = 0;
  u64 cycles_after = 0;
};

/// One plan the engine declined to apply, with the diagnostic.
struct Refusal {
  std::string site;
  std::string desc;
  std::string reason;
};

struct EngineReport {
  bool ran = false;
  std::string skipped_reason;  ///< set when the engine could not run at all
  std::vector<Applied> applied;
  std::vector<Refusal> refused;
  /// Output-identity failures — the soundness contract. Non-empty means a
  /// transformation the legality reasoning accepted changed program
  /// output; such a result must never be trusted.
  std::vector<std::string> violations;
  u64 baseline_cycles = 0;
  /// All surviving transformations applied together.
  double combined_speedup = 1.0;
  bool combined_identical = true;
  bool ok() const { return violations.empty(); }
};

/// Apply each plan to its own copy of the module, verify the rewritten
/// module (pp::verify::verify_module), A/B-run original vs transformed
/// under the engine's cost model, and enforce the output-identity contract.
/// A plan whose schedule (`mx`) the differential oracle contradicts is
/// refused before it is applied. A final combined module stacks every
/// surviving plan. `cancel` (may be null) stops the loop between plans.
EngineReport apply_and_measure(const ir::Module& m,
                               const fold::FoldedProgram& prog,
                               const std::vector<Plan>& plans,
                               const std::string& entry,
                               const std::vector<i64>& args,
                               support::CancelToken* cancel);

/// Plan every transformation the profile justifies — per-nest interchange /
/// tiling candidates gated by the scheduler's bands, and fusion chains
/// gated by the engine's polyhedral dependence check — then
/// apply_and_measure() them. Planning-time refusals lead the report's
/// refusal list. Requires a profile folded with anti/output tracking
/// (DdgOptions::track_anti_output): without WAR/WAW edges the legality
/// checks would be unsound.
EngineReport run(const ir::Module& m, const fold::FoldedProgram& prog,
                 const cfg::ControlStructure& cs, const std::string& entry,
                 const std::vector<i64>& args, support::CancelToken* cancel);

/// Deterministic body of the report's `-- transformation --` section.
std::string render_section(const EngineReport& r);

}  // namespace pp::transform
