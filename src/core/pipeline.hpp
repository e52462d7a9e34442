// polyprof public API: the end-to-end POLY-PROF pipeline (paper Fig. 1).
//
//   ir::Module  --stage 1-->  ControlStructure (dynamic CFGs, loop forests,
//                             call graph, recursive-component-set)
//               --stage 2-->  DDG event stream (dynamic IIVs, shadow memory)
//               --stage 3-->  FoldedProgram (compact polyhedral DDG)
//               --stage 4-->  feedback (scheduling, metrics, flame graphs)
//
// Typical use:
//   pp::core::Pipeline pipe(module);
//   pp::core::ProfileResult r = pipe.run();
//   for (auto& region : r.hot_regions())
//     std::cout << pp::feedback::summarize(r.analyze(region));
#pragma once

#include <memory>

#include "feedback/metrics.hpp"
#include "feedback/report.hpp"
#include "iiv/cct.hpp"
#include "iiv/schedule_tree.hpp"
#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "transform/engine.hpp"
#include "vm/chaos.hpp"

namespace pp::core {

struct PipelineOptions {
  std::string entry = "main";
  std::vector<i64> args;
  u64 max_steps = 500'000'000;
  ddg::DdgOptions ddg;
  fold::FolderOptions fold;
  /// Resource caps for the whole run (0 = unlimited). `vm_steps` tightens
  /// `max_steps`; the shadow/pool/wall caps degrade stage 2 mid-replay.
  /// Exhaustion never aborts: the result is flagged `truncated` and the
  /// affected statements fold as over-approximations.
  support::RunBudget budget;
  /// Fault injection into the stage-2 instrumentation stream (testing the
  /// degrade paths; kNone in production). Stage 1 is never chaos-wrapped,
  /// so the control structure stays intact under injected faults.
  vm::ChaosOptions chaos;
  /// Selective instrumentation: before stage 2, run the exact static
  /// dependence analysis (verify::exact) and skip shadow-memory tracking
  /// for access sites proven dependence-free. Pure optimization — the
  /// full_report is byte-identical to a full run by construction (the
  /// skipped sites could never have produced a dependence edge, and the
  /// shadow page count is reconstructed from recorded store addresses).
  /// Silently ignored when it could be observable: anti/output tracking
  /// on, or a shadow-page budget set (skips would move its trip point).
  bool selective_instrumentation = false;
  /// Hot-path trace compaction (vm::PathCache + bulk DDG replay): loop
  /// iterations re-executing an already-recorded Ball-Larus path with
  /// affine value/address recurrences are swallowed into compressed runs
  /// and replayed in bulk. Pure optimization — full_report is
  /// byte-identical either way; set false for the reference
  /// interpretation. Silently ignored when the configuration makes bulk
  /// replay observable (anti/output tracking, shadow/pool/wall budget
  /// caps).
  bool path_compaction = true;
  /// Run the pp::verify module verifier before any replay (the default).
  /// An ill-formed module is rejected with structured diagnostics instead
  /// of trapping mid-execution. Opt out for deliberately malformed inputs
  /// (e.g. profiling how far a broken module gets).
  bool verify_module = true;
  /// Ignored: every run is serial (DESIGN.md "Concurrency: jobs, not
  /// stages"). Kept only so existing callers that pin `threads = 1` still
  /// compile; it changes nothing and is not part of any cache key.
  unsigned threads = 1;
  /// Self-observability (pp::obs): stage spans, pipeline counters and the
  /// Chrome-trace / run-manifest exporters. Off by default — when off,
  /// every instrumentation point is a branch on a constant bool (the
  /// overhead is bounded by bench/obs_overhead). The session lives in
  /// ProfileResult::obs.
  bool observe = false;
  /// Cooperative cancellation (may be null; must outlive the run AND the
  /// ProfileResult — full_report consults it too). A fired token stops
  /// the run at the next checkpoint — stage boundary, VM step cadence,
  /// fold position — and yields a diagnosed partial ProfileResult
  /// with `truncated` and `cancelled` set, exactly like budget
  /// exhaustion. pp::service plumbs one per job; library callers can pass
  /// their own for ad-hoc timeouts (CancelToken::set_deadline_in_ms).
  support::CancelToken* cancel = nullptr;
  /// Close the loop: after folding, run the transformation engine
  /// (pp::transform) — apply every schedule the profile justifies to a
  /// copy of the module, A/B-measure under the engine's cost model, and
  /// enforce the output-identity contract. Forces
  /// DdgOptions::track_anti_output (the legality checks need WAR/WAW
  /// edges), which in turn disables selective instrumentation and path
  /// compaction for the run. full_report gains a `-- transformation --`
  /// section.
  bool apply_transforms = false;
  /// Engine knobs (tile size, measurement cost model, oracle gate) used
  /// when `apply_transforms` is set; `cancel` is plumbed from the run.
  transform::Options transform;
};

/// Everything the profiler learned about one execution.
///
/// Holds a non-owning pointer to the profiled module (for function/source
/// name lookups): the ir::Module must outlive the ProfileResult.
struct ProfileResult {
  const ir::Module* module = nullptr;
  cfg::ControlStructure control;
  ddg::StatementTable statements;
  fold::FoldedProgram program;
  iiv::DynScheduleTree schedule_tree;  ///< weights = dynamic ops
  iiv::CallingContextTree cct;
  vm::RunStats stats;
  i64 exit_value = 0;

  /// The profile is partial: a replay trapped, the event stream was
  /// rejected/truncated, a budget cap tripped, or the job was cancelled.
  /// Everything present is still well-formed — stage-1 results survive
  /// stage-2 faults, and degraded statements are certified
  /// over-approximations, never silently wrong.
  bool truncated = false;
  /// The run was stopped by its CancelToken (client cancel or expired
  /// deadline — `cancel->reason()` distinguishes). Always implies
  /// `truncated`.
  bool cancelled = false;
  /// The token the run was handed (null when none). Non-owning;
  /// full_report checks it to skip the oracle and report cancelled
  /// regions deterministically.
  support::CancelToken* cancel = nullptr;
  /// Structured record of every degradation, in pipeline order.
  support::DiagnosticLog diagnostics;

  /// Self-observability session (PipelineOptions::observe). Null when
  /// observation is off. full_report appends a "-- self profile --"
  /// section from it; chrome_trace_json / manifest_json export the run.
  std::shared_ptr<obs::Session> obs;

  /// Transformation-engine results (PipelineOptions::apply_transforms).
  /// `transform.ran` is false when the phase was off or skipped;
  /// full_report renders it as the `-- transformation --` section.
  transform::EngineReport transform;

  /// Stage-2 instrumentation accounting (drives the overhead report):
  /// dynamic dependences streamed, shadow pages materialized, and words
  /// of interned iteration-vector storage.
  u64 ddg_dependences = 0;
  std::size_t shadow_pages = 0;
  std::size_t coord_pool_words = 0;

  /// Mine regions of interest, heaviest first, keeping those above
  /// `min_fraction` of all dynamic ops. A region boundary is a loop /
  /// recursive component or a call site; `depth` controls how many
  /// boundaries to descend before cutting (1 = top-level regions like the
  /// paper's "facetrain.c:25" whole-call region; 2 = one level deeper,
  /// e.g. the individual layerforward/adjust_weights calls inside it).
  std::vector<feedback::Region> hot_regions(double min_fraction = 0.05,
                                            int depth = 1) const;

  /// The whole program as a single region.
  feedback::Region whole_program() const;

  /// Run the polyhedral feedback stage on one region. A fault inside the
  /// feedback stage degrades the region to "unanalyzable" (metrics with
  /// analyzable=false and the fault reason) instead of throwing.
  feedback::RegionMetrics analyze(
      const feedback::Region& region,
      const feedback::AnalyzeOptions& opts = {}) const;

  /// Table 5 %Aff for this execution.
  double percent_affine() const;
};

/// Rendering knobs for full_report.
struct ReportOptions {
  double min_fraction = 0.05;
  /// With the profile observed (r.obs != null), elide wall/CPU times and
  /// timing-dependent counters from the self-profile section so the report
  /// stays byte-identical across runs (the --stable golden contract). Set
  /// false for human consumption of real times.
  bool stable_self_profile = true;
  /// Run the differential soundness oracle (the default). pp::service
  /// disables it for jobs downgraded under overload — the report then
  /// carries a deterministic "skipped" verdict line.
  bool run_oracle = true;
};

/// The full textual feedback bundle the paper ships as its supplementary
/// document: program-level statistics, the decorated schedule tree, and
/// per-region metrics + post-transformation ASTs for every hot region.
/// With r.obs set, ends with a "-- self profile --" section.
std::string full_report(const ProfileResult& r, double min_fraction = 0.05);
std::string full_report(const ProfileResult& r, const ReportOptions& opts);

/// Two-pass profiling driver. The module must outlive the pipeline.
class Pipeline {
 public:
  explicit Pipeline(const ir::Module& m) : module_(m) {}

  /// Runs the program twice (Instrumentation I then II) and folds.
  ///
  /// Degrade-don't-die: run() never lets a pp::Error escape. A VM trap, a
  /// malformed event stream or an exhausted budget truncates the trace at
  /// the last well-formed event and yields a ProfileResult with the
  /// stages completed so far, `truncated` set, and the reasons in
  /// `diagnostics`.
  ProfileResult run(const PipelineOptions& opts = {});

 private:
  const ir::Module& module_;
};

}  // namespace pp::core
