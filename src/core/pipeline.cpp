#include "core/pipeline.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "statican/statican.hpp"
#include "verify/oracle.hpp"
#include "verify/verifier.hpp"
#include "vm/event_validator.hpp"

namespace pp::core {

namespace {

/// Fans VM events out to several observers (stage 1 runs the CFG builder
/// and the CCT side by side).
class TeeObserver : public vm::Observer {
 public:
  explicit TeeObserver(std::vector<vm::Observer*> obs) : obs_(std::move(obs)) {}
  void on_local_jump(int func, int dst_bb) override {
    for (auto* o : obs_) o->on_local_jump(func, dst_bb);
  }
  void on_call(vm::CodeRef site, int callee) override {
    for (auto* o : obs_) o->on_call(site, callee);
  }
  void on_return(int callee, vm::CodeRef into) override {
    for (auto* o : obs_) o->on_return(callee, into);
  }
  void on_instr(const vm::InstrEvent& ev) override {
    for (auto* o : obs_) o->on_instr(ev);
  }

 private:
  std::vector<vm::Observer*> obs_;
};

}  // namespace

ProfileResult Pipeline::run(const PipelineOptions& opts) {
  ProfileResult res;
  res.module = &module_;
  res.cancel = opts.cancel;
  if (opts.observe) res.obs = std::make_shared<obs::Session>(true);
  obs::Session* ob = res.obs.get();

  // Chaos service faults fire the job's CancelToken at a structural point
  // (a stage boundary; the mid-fold one is armed on the sink below), so
  // cancellation paths are exercised deterministically — the partial
  // report is reproducible, unlike a wall-clock cancel. No-ops without a
  // token.
  auto chaos_cancel_at = [&](vm::ServiceFault f) {
    if (opts.chaos.service == f && opts.cancel != nullptr)
      opts.cancel->cancel();
  };
  // Stage-boundary checkpoint: a fired (or deadline-expired) token stops
  // the pipeline here, with everything earlier stages produced kept and
  // the stop diagnosed — the same degrade-don't-die shape as a trap.
  auto cancelled_at = [&](support::Stage stage, const char* boundary) {
    if (opts.cancel == nullptr || !opts.cancel->poll()) return false;
    res.truncated = true;
    res.cancelled = true;
    res.diagnostics.warn(stage,
                         std::string("job cancelled (") +
                             opts.cancel->reason_name() +
                             ") — pipeline stopped at the " + boundary +
                             " boundary");
    return true;
  };

  // IR verification BEFORE any replay: an ill-formed module is rejected
  // with the full structured issue list instead of trapping (or worse,
  // silently misbehaving) somewhere mid-profile. An accepted module keeps
  // the static analysis the verifier built for the report.
  {
    obs::Span verify_span(ob, "stage:verify");
    verify::VerifyReport vr = verify::verify_module(module_);
    if (!vr.ok()) {
      res.truncated = true;
      vr.to_log(res.diagnostics);
      res.diagnostics.error(support::Stage::kVerify,
                            "module rejected by the IR verifier (" +
                                std::to_string(vr.issues.size()) +
                                " issue(s)) — nothing profiled");
      return res;
    }
    res.static_deps = std::make_shared<const verify::exact::ModuleDeps>(
        std::move(vr.deps));
  }

  // Setup validation BEFORE any replay: a bad entry must not cost a full
  // stage-1 run only to throw afterwards.
  const ir::Function* entry = module_.find_function(opts.entry);
  if (entry == nullptr) {
    res.truncated = true;
    res.diagnostics.error(support::Stage::kSetup,
                          "entry function '" + opts.entry +
                              "' not found — nothing profiled");
    return res;
  }
  if (static_cast<int>(opts.args.size()) != entry->num_args) {
    res.truncated = true;
    res.diagnostics.error(support::Stage::kSetup,
                          "entry '" + opts.entry + "' takes " +
                              std::to_string(entry->num_args) +
                              " argument(s), got " +
                              std::to_string(opts.args.size()) +
                              " — nothing profiled");
    return res;
  }

  support::RunBudget budget = opts.budget;
  budget.arm();
  const u64 max_steps =
      budget.vm_steps != 0 ? budget.vm_steps : vm::Machine::kDefaultMaxSteps;

  // Stage-1 boundary: a pre-cancelled job (or the chaos cancel-at-control
  // fault) profiles nothing — the result is just the diagnosis.
  chaos_cancel_at(vm::ServiceFault::kCancelAtControl);
  if (cancelled_at(support::Stage::kControl, "stage-1")) return res;

  // Stage 1 (Instrumentation I): dynamic control structure + CCT. The
  // validator guarantees the builders only ever see a well-formed prefix;
  // a VM trap leaves the prefix collected so far usable.
  cfg::DynamicCfgBuilder dyn;
  obs::Span control_span(ob, "stage:control");
  {
    vm::Machine machine(module_);
    TeeObserver tee({&dyn, &res.cct});
    vm::EventValidator validator(module_, &tee, &res.diagnostics,
                                 support::Stage::kControl);
    try {
      machine.set_observer(&validator);
      machine.set_cancel(opts.cancel);
      vm::RunResult rr = machine.run(opts.entry, opts.args, max_steps);
      if (rr.truncated) {
        res.truncated = true;
        res.diagnostics.warn(support::Stage::kControl,
                             "stage 1 replay truncated: " + rr.truncate_reason);
      }
    } catch (const Error& e) {
      res.truncated = true;
      res.diagnostics.error(
          support::Stage::kControl,
          std::string("stage 1 VM trap: ") + e.what() +
              " — control structure built from the partial trace");
    }
    if (!validator.ok()) res.truncated = true;
  }
  try {
    res.control = cfg::ControlStructure::build(dyn, {entry->id});
  } catch (const Error& e) {
    res.truncated = true;
    res.diagnostics.error(
        support::Stage::kControl,
        std::string("control-structure construction failed: ") + e.what() +
            " — stage 2 skipped, CCT retained");
    return res;
  }
  control_span.end();

  // Stage-2 boundary: a cancel observed here (client, deadline, or the
  // chaos cancel-at-ddg fault) keeps the whole stage-1 result — control
  // structure and CCT — and skips the DDG entirely.
  chaos_cancel_at(vm::ServiceFault::kCancelAtDdg);
  if (cancelled_at(support::Stage::kDdg, "stage-2")) return res;

  // Stage 2+3 (Instrumentation II + folding): DDG streamed into folders.
  // Observer chain: Machine -> chaos (tests only) -> validator -> builder,
  // so injected faults hit the validator exactly like real corruption
  // would, and the builder never sees a malformed event.
  obs::Span ddg_span(ob, "stage:ddg");
  fold::FoldingSink sink(opts.fold);
  sink.set_diagnostics(&res.diagnostics);
  sink.set_budget(&budget);
  sink.set_obs(ob);
  sink.set_cancel(opts.cancel);
  // Deadline-mid-fold chaos: expire the token at a seed-derived fold
  // position — structural, so the degraded suffix is reproducible.
  if (opts.chaos.service == vm::ServiceFault::kDeadlineMidFold)
    sink.set_chaos_deadline_at(1 + opts.chaos.seed % 4);
  ddg::DdgOptions ddg_opts = opts.ddg;
  // The transformation engine's legality checks (fusion distances, sunk
  // loads) need WAR/WAW edges.
  if (opts.apply_transforms) ddg_opts.track_anti_output = true;
  // Trace compaction: the builder keeps it off under per-event budget
  // caps, so the flag can be forwarded unconditionally.
  ddg::DdgBuilder builder(module_, res.control, &sink, ddg_opts, &budget,
                          &res.diagnostics, opts.path_compaction);
  {
    vm::Machine machine(module_);
    vm::EventValidator validator(module_, &builder, &res.diagnostics,
                                 support::Stage::kDdg);
    // The chaos harness always sits directly behind the Machine; its
    // injection point is event-count-seeded. With no event fault
    // configured (every production run) the wrapper is pure pass-through,
    // so it is skipped — one fewer virtual hop per event.
    std::optional<vm::ChaosObserver> chaos;
    bool trapped = false;
    try {
      if (opts.chaos.kind != vm::FaultKind::kNone) {
        chaos.emplace(&validator, opts.chaos);
        machine.set_observer(&*chaos);
      } else {
        machine.set_observer(&validator);
      }
      machine.set_cancel(opts.cancel);
      vm::RunResult rr = machine.run(opts.entry, opts.args, max_steps);
      res.stats = rr.stats;
      res.exit_value = rr.exit_value;
      if (rr.truncated) {
        res.truncated = true;
        res.diagnostics.warn(support::Stage::kDdg,
                             "stage 2 replay truncated: " + rr.truncate_reason);
      }
    } catch (const Error& e) {
      // Partial stats survive the unwind; the DDG holds every event up to
      // the trap.
      res.stats = machine.stats();
      res.truncated = true;
      trapped = true;
      res.diagnostics.error(support::Stage::kDdg,
                            std::string("stage 2 VM trap: ") + e.what() +
                                " — DDG truncated at last well-formed event");
    }
    // Flush any armed compressed run — the stream may have ended (or
    // trapped, or been cancelled) mid-run; the flush bulk-replays the
    // swallowed iterations so the builder state matches the reference
    // interpretation of the same event prefix exactly.
    builder.flush_compaction();
    if (!validator.ok()) {
      res.truncated = true;  // the validator already logged the rejection
    } else if (!trapped && validator.instr_events() < res.stats.instructions) {
      // Silent truncation: the instrumentation layer stopped forwarding
      // without producing a malformed event.
      res.truncated = true;
      res.diagnostics.warn(
          support::Stage::kDdg,
          "instrumentation stream silently truncated: observed " +
              std::to_string(validator.instr_events()) + " of " +
              std::to_string(res.stats.instructions) +
              " retired instructions");
    }
    if (builder.budget_exhausted()) res.truncated = true;
  }
  res.statements = builder.statements();
  res.ddg_dependences = builder.dependences_emitted();
  res.shadow_pages = builder.shadow().pages_live();
  res.coord_pool_words = builder.coord_pool().size_words();
  if (ob != nullptr && ob->enabled()) {
    // Stage-2 finals. All of these are functions of the (deterministic)
    // event stream alone, so they are stable across runs.
    ob->set("vm.instructions", static_cast<i64>(res.stats.instructions));
    ob->set("ddg.instr_events",
            static_cast<i64>(builder.instr_events_seen()));
    ob->set("ddg.dependences", static_cast<i64>(res.ddg_dependences));
    ob->set("ddg.shadow_pages", static_cast<i64>(res.shadow_pages));
    ob->set("ddg.coord_pool_words", static_cast<i64>(res.coord_pool_words));
    if (const vm::PathCacheStats* ps = builder.path_stats()) {
      ob->set("vm.path_hits", static_cast<i64>(ps->path_hits));
      ob->set("vm.path_bailouts", static_cast<i64>(ps->path_bailouts));
      ob->set("vm.events_compressed",
              static_cast<i64>(ps->events_compressed));
    }
  }
  ddg_span.end();
  obs::Span fold_span(ob, "stage:fold");
  sink.mark_degraded(builder.degraded_statements());
  // Fold boundary: no early return here — finalize() itself observes the
  // token before every statement and edge and degrades the unfolded
  // suffix, so firing the chaos fault (or arriving with a fired token)
  // still yields a complete, well-formed FoldedProgram.
  chaos_cancel_at(vm::ServiceFault::kCancelAtFold);
  try {
    res.program = sink.finalize(res.statements);
    if (budget.pieces_exceeded(budget.pieces_charged())) res.truncated = true;
  } catch (const Error& e) {
    res.truncated = true;
    res.diagnostics.error(support::Stage::kFold,
                          std::string("folding failed: ") + e.what() +
                              " — polyhedral DDG unavailable");
    res.program = fold::FoldedProgram{};
    res.program.total_dynamic_ops = res.statements.total_executions();
  }

  // Dynamic schedule tree, weighted by per-statement dynamic ops.
  for (const auto& s : res.statements.all())
    res.schedule_tree.insert(s.context, s.executions);
  fold_span.end();

  // Transformation engine (close the loop): plan the rewrites the profile
  // justifies, apply each to a copy of the module, and A/B-measure under
  // the engine's cost model. A truncated profile plans from incomplete
  // dependences, which would be unsound — skip with a diagnosed reason.
  if (opts.apply_transforms) {
    obs::Span tr_span(ob, "stage:transform");
    if (res.truncated) {
      res.transform.ran = true;
      res.transform.skipped_reason =
          "profile truncated — dependence information incomplete";
    } else {
      try {
        res.transform = transform::run(module_, res.program, res.control,
                                       opts.entry, opts.args, opts.cancel);
      } catch (const Error& e) {
        res.transform = transform::EngineReport{};
        res.transform.ran = true;
        res.transform.skipped_reason =
            std::string("engine fault: ") + e.what();
        res.diagnostics.error(support::Stage::kFeedback,
                              std::string("transformation engine failed: ") +
                                  e.what() + " — section degraded");
      }
    }
    tr_span.end();
  }

  // Feedback boundary: run() is done, but the feedback stage lives in
  // full_report/analyze — record the cancel here so they (and the caller)
  // see a flagged, diagnosed result. Also catches a token that fired
  // mid-fold or mid-replay without hitting an earlier checkpoint.
  chaos_cancel_at(vm::ServiceFault::kCancelAtFeedback);
  if (opts.cancel != nullptr && opts.cancel->poll() && !res.cancelled) {
    res.truncated = true;
    res.cancelled = true;
    res.diagnostics.warn(support::Stage::kFeedback,
                         std::string("job cancelled (") +
                             opts.cancel->reason_name() +
                             ") — feedback stage will degrade: regions "
                             "unanalyzable, oracle skipped");
  }

  return res;
}

std::vector<feedback::Region> ProfileResult::hot_regions(
    double min_fraction, int depth) const {
  // Group statements by the subtree in which their interprocedural context
  // first leaves the entry function's straight-line code: the first
  // context element that is a loop / recursive component, or a block of a
  // *callee* (a call site). The paper's regions are exactly such call
  // sites ("facetrain.c:25" is the whole bpnn_train call) or outermost
  // loop nests. Remaining loop-free entry-function statements group per
  // function.
  struct Group {
    std::vector<int> stmts;
    u64 ops = 0;
    std::set<int> funcs;
    std::string name;
  };
  int entry_func = program.statements.empty()
                       ? -1
                       : program.statements.front().meta.code.func;
  std::map<std::vector<iiv::CtxElem>, Group> groups;
  for (const auto& fs : program.statements) {
    const auto& s = fs.meta;
    std::vector<iiv::CtxElem> key;
    bool found = false;
    bool is_loop_region = false;
    int boundaries = 0;
    int last_func = entry_func;
    for (const auto& part : s.context.parts) {
      for (const auto& e : part) {
        key.push_back(e);
        bool boundary = false;
        if (e.kind != iiv::CtxElem::Kind::kBlock) {
          boundary = true;
          is_loop_region = true;
        } else if (e.func != last_func) {  // crossed into a callee
          boundary = true;
          is_loop_region = false;
          last_func = e.func;
        }
        if (boundary && ++boundaries >= depth) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    // The region is the whole call: normalize the final (cutting) element
    // to the callee identity rather than whichever of its blocks the
    // statement happens to sit in. Intermediate crossing elements stay raw
    // — they ARE the call-site distinction (which caller block invoked the
    // next level).
    if (found && !is_loop_region)
      key.back() = iiv::CtxElem::block(key.back().func, -1);
    if (!found) {
      // Straight-line entry-function code: group per function.
      key.clear();
      key.push_back(iiv::CtxElem::block(s.code.func, -1));
    }
    Group& g = groups[key];
    g.stmts.push_back(s.id);
    g.ops += s.executions;
    g.funcs.insert(s.code.func);
    if (g.name.empty() && module) {
      // Name the region after the function owning the region's root
      // element (the callee for call-site regions, the loop's function
      // for loop regions).
      int name_func = found ? key.back().func : s.code.func;
      if (name_func < 0) name_func = s.code.func;
      const auto& f = module->functions[static_cast<std::size_t>(name_func)];
      std::string file = f.source_file.empty() ? f.name : f.source_file;
      g.name = file;
      if (s.line) g.name += ":" + std::to_string(s.line);
      g.name += " (" + f.name + ")";
      if (is_loop_region) {
        const auto& outer = key.back();
        g.name += outer.kind == iiv::CtxElem::Kind::kComp
                      ? " [recursive]"
                      : " [loop L" + std::to_string(outer.id) + "]";
      } else if (found) {
        g.name += " [call]";
      }
    }
  }

  u64 total = program.total_dynamic_ops;
  std::vector<feedback::Region> out;
  for (auto& [key, g] : groups) {
    if (static_cast<double>(g.ops) <
        min_fraction * static_cast<double>(total))
      continue;
    feedback::Region r;
    r.name = g.name.empty() ? "region" : g.name;
    r.stmts = g.stmts;
    r.interprocedural = g.funcs.size() > 1;
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [&](const feedback::Region& a, const feedback::Region& b) {
              u64 wa = 0, wb = 0;
              for (int id : a.stmts) wa += program.stmt(id).meta.executions;
              for (int id : b.stmts) wb += program.stmt(id).meta.executions;
              return wa > wb;
            });
  return out;
}

feedback::Region ProfileResult::whole_program() const {
  feedback::Region r;
  r.name = "<whole program>";
  std::set<int> funcs;
  for (const auto& s : program.statements) {
    r.stmts.push_back(s.meta.id);
    funcs.insert(s.meta.code.func);
  }
  r.interprocedural = funcs.size() > 1;
  return r;
}

feedback::RegionMetrics ProfileResult::analyze(
    const feedback::Region& region,
    const feedback::AnalyzeOptions& opts) const {
  // Hand the profile's obs session and token to the scheduler unless the
  // caller pinned its own.
  feedback::AnalyzeOptions o = opts;
  if (o.sched.obs == nullptr && obs != nullptr) o.sched.obs = obs.get();
  if (o.sched.cancel == nullptr && cancel != nullptr) o.sched.cancel = cancel;
  // Per-region isolation: one region's feedback fault must not take down
  // the report for every other region. Cancelled jobs degrade every
  // region the same way, deterministically.
  auto degraded = [&](const std::string& reason) {
    feedback::RegionMetrics m;
    m.region = region;
    m.analyzable = false;
    m.schedulable = false;
    m.degrade_reason = reason;
    for (int id : region.stmts) {
      if (id >= 0 && static_cast<std::size_t>(id) < program.statements.size())
        m.ops += program.stmt(id).meta.executions;
    }
    m.suggestions.push_back("region unanalyzable: " + reason);
    return m;
  };
  if (cancel != nullptr && cancel->cancelled())
    return degraded(std::string("job cancelled (") + cancel->reason_name() +
                    ")");
  try {
    return feedback::analyze_region(program, region, o);
  } catch (const Error& e) {
    return degraded(e.what());
  }
}

double ProfileResult::percent_affine() const {
  return feedback::percent_affine(program);
}

std::string full_report(const ProfileResult& r, double min_fraction) {
  ReportOptions opts;
  opts.min_fraction = min_fraction;
  return full_report(r, opts);
}

std::string full_report(const ProfileResult& r, const ReportOptions& ropts) {
  const double min_fraction = ropts.min_fraction;
  obs::Session* ob = r.obs.get();
  // The feedback stage is the report itself: region analysis, oracle and
  // rendering all happen here. The span must close before the self-profile
  // section renders, so the stage appears in its own table.
  obs::Span feedback_span(ob, "stage:feedback");
  std::ostringstream os;
  os << "==== poly-prof feedback report ====\n";
  if (r.truncated) os << "!! PARTIAL PROFILE (trace truncated) !!\n";
  os << "dynamic ops: " << r.program.total_dynamic_ops
     << "  statements: " << r.program.statements.size()
     << "  dependence edges: " << r.program.deps.size()
     << " (SCEV-pruned: " << r.program.pruned_dep_edges << ")\n";
  os << "stage-2 state: " << r.ddg_dependences << " dynamic deps, "
     << r.shadow_pages << " shadow pages, " << r.coord_pool_words
     << " interned coord words\n";
  os << "fully affine (strict): "
     << static_cast<int>(feedback::percent_affine(r.program, true))
     << "%   (extended): "
     << static_cast<int>(feedback::percent_affine(r.program, false))
     << "%\n\n";

  // The static sections and the oracle share the analysis the verify stage
  // built; the span attributes the lazy Omega work they trigger.
  obs::Span static_span(ob, "report:static");
  const verify::exact::ModuleDeps* deps =
      r.module != nullptr ? r.static_deps.get() : nullptr;
  constexpr const char* kNoAnalysis = "no verified module";

  // The Exp. II contrast: what a purely static (Polly-style) analysis can
  // model of each function, next to what the dynamic profile recovered.
  os << "-- static baseline --\n";
  if (deps == nullptr) {
    os << "unavailable (" << kNoAnalysis << ")\n";
  } else {
    for (const auto& f : r.module->functions) {
      const std::optional<verify::exact::ExactDeps>& ex =
          (*deps)[static_cast<std::size_t>(f.id)];
      if (!ex) continue;
      const statican::FunctionModel& fm = ex->model();
      std::size_t modeled = 0;
      for (const auto& a : fm.accesses)
        if (a.modeled) ++modeled;
      os << f.name << ": "
         << (fm.verdict.affine_modeled
                 ? "affine"
                 : statican::reasons_str(fm.verdict.reasons))
         << "  loops " << fm.verdict.num_modeled_loops << "/"
         << fm.verdict.num_loops << "  nest-depth "
         << fm.verdict.max_modeled_nest_depth << "  accesses " << modeled
         << "/" << fm.accesses.size() << "\n";
    }
  }
  os << "\n";

  // The precision tier above the baseline: exact (Omega-test) pairwise
  // verdicts and the three-way statement classification. A pure function
  // of the module.
  os << "-- static precision --\n";
  if (deps == nullptr)
    os << "unavailable (" << kNoAnalysis << ")\n";
  else
    os << verify::exact::precision_section(*r.module, *deps);
  os << "\n";
  static_span.end();
  os << "-- decorated schedule tree (ops share, source refs) --\n";
  os << feedback::render_decorated_tree(r.schedule_tree, r.program, r.module);
  os << "\n-- regions of interest --\n";
  std::vector<feedback::RegionMetrics> metrics;
  for (const feedback::Region& region : r.hot_regions(min_fraction))
    metrics.push_back(r.analyze(region));

  // Differential soundness oracle: run BEFORE rendering so a downgraded
  // parallel claim is reflected in the summaries it contradicts. Skipped
  // — with a deterministic verdict line — when the job's token has fired
  // (nothing left to spend verification effort on).
  std::string oracle_line = std::string("skipped (") + kNoAnalysis + ")";
  if (r.cancel != nullptr && r.cancel->cancelled()) {
    oracle_line = std::string("skipped (job cancelled: ") +
                  r.cancel->reason_name() + ")";
  } else if (deps != nullptr) {
    std::vector<feedback::RegionMetrics*> ptrs;
    ptrs.reserve(metrics.size());
    for (auto& m : metrics) ptrs.push_back(&m);
    verify::OracleReport oracle =
        verify::run_oracle(*r.module, r.program, *deps, ptrs,
                           /*downgrade=*/true, ob, r.cancel);
    oracle_line = oracle.verdict_line();
  }

  for (auto& mx : metrics) {
    os << "\n" << feedback::summarize(mx);
    os << feedback::render_ast(mx, r.program, r.module);
  }

  os << "\n-- soundness oracle --\n" << oracle_line << "\n";

  // Transformation engine results (PipelineOptions::apply_transforms):
  // predicted vs measured speedups plus the output-identity verdict. Only
  // present when the phase ran, so default profiles stay byte-identical
  // with earlier releases.
  if (r.transform.ran)
    os << "\n-- transformation --\n" << transform::render_section(r.transform);

  // Specialization hints (the paper's Fig. 7 annotation "specialize
  // adjustweight (2nd call)"): a function reached from several distinct
  // call-site regions where one dominates should be transformed in a
  // specialized clone, leaving the cold calls untouched.
  {
    std::map<int, std::vector<u64>> per_func_region_ops;
    for (const auto& region : r.hot_regions(0.0, /*depth=*/2)) {
      std::map<int, u64> funcs;
      for (int id : region.stmts) {
        const auto& s = r.program.stmt(id).meta;
        funcs[s.code.func] += s.executions;
      }
      for (const auto& [f, ops] : funcs)
        per_func_region_ops[f].push_back(ops);
    }
    bool header_printed = false;
    for (const auto& [f, ops_list] : per_func_region_ops) {
      if (ops_list.size() < 2) continue;
      u64 hottest = *std::max_element(ops_list.begin(), ops_list.end());
      u64 rest = 0;
      for (u64 o : ops_list) rest += o;
      rest -= hottest;
      if (hottest < 2 * std::max<u64>(rest, 1)) continue;
      if (static_cast<double>(hottest) <
          min_fraction * static_cast<double>(r.program.total_dynamic_ops))
        continue;
      if (!header_printed) {
        os << "\n-- specialization hints --\n";
        header_printed = true;
      }
      std::string name = r.module
                             ? r.module->functions[static_cast<std::size_t>(f)].name
                             : "f" + std::to_string(f);
      os << "specialize " << name << ": one of its " << ops_list.size()
         << " call-site regions dominates (" << hottest
         << " ops vs " << rest
         << " elsewhere); transform the hot clone only\n";
    }
  }

  // Degradation summary — always present and deterministic, so reports
  // from faulty runs stay golden-testable.
  os << "\n-- degradations --\n";
  if (!r.truncated && r.diagnostics.empty() &&
      r.program.degraded_statements == 0) {
    os << "none\n";
  } else {
    if (r.truncated) os << "trace truncated: results are a partial profile\n";
    if (r.program.degraded_statements > 0)
      os << r.program.degraded_statements
         << " statement(s) degraded to over-approximation\n";
    os << r.diagnostics.render();
  }

  // Self profile — rendered last so every stage (including this one) has
  // closed its span. Timing-dependent values are elided or filtered when
  // stable_self_profile is set, keeping the section byte-identical across
  // runs (see DESIGN.md "Observability").
  if (ob != nullptr && ob->enabled()) {
    feedback_span.end();
    os << "\n-- self profile --\n"
       << ob->self_profile_section(ropts.stable_self_profile);
  }
  return os.str();
}

}  // namespace pp::core
