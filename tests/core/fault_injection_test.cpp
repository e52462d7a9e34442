// Fault-injection harness: every fault the ChaosObserver can inject — and
// every budget exhaustion and runtime trap — must yield a *diagnosed
// partial result*, never an uncaught throw. This is the executable form of
// the pipeline's degrade-don't-die contract.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"
#include "workloads/workloads.hpp"

namespace pp::core {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

// Same layerforward shape the pipeline tests use: j/k 2-D nest with loads,
// an FP reduction and a store — enough events to trip any chaos trigger.
Module layerforward_module(i64 n1, i64 n2) {
  Module m;
  i64 conn = m.add_global("conn", n1 * n2 * 8);
  i64 l1 = m.add_global("l1", n1 * 8);
  i64 l2 = m.add_global("l2", n2 * 8);
  Function& f = m.add_function("main", 0, "backprop.c");
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg connr = b.const_(conn);
  Reg l1r = b.const_(l1);
  Reg l2r = b.const_(l2);
  Reg n1r = b.const_(n1);
  Reg n2r = b.const_(n2);
  b.counted_loop(0, n2r, 1, [&](Reg j) {
    Reg sum = b.fconst(0.0);
    b.counted_loop(0, n1r, 1, [&](Reg k) {
      Reg rowoff = b.muli(k, n2 * 8);
      Reg rowptr = b.add(connr, rowoff);
      Reg joff = b.muli(j, 8);
      Reg cellptr = b.add(rowptr, joff);
      Reg tmp2 = b.load(cellptr);
      Reg koff = b.muli(k, 8);
      Reg l1ptr = b.add(l1r, koff);
      Reg tmp3 = b.load(l1ptr);
      Reg prod = b.fmul(tmp2, tmp3);
      b.fadd(sum, prod, sum);
    });
    Reg joff = b.muli(j, 8);
    Reg outptr = b.add(l2r, joff);
    b.store(outptr, sum);
  });
  b.ret();
  return m;
}

// A kernel that works for a while, then traps: sums a[0..n), then loads
// from an address far outside VM memory.
Module trapping_module(i64 n) {
  Module m;
  i64 g = m.add_global("a", n * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg nr = b.const_(n);
  Reg acc = b.const_(0);
  b.counted_loop(0, nr, 1, [&](Reg i) {
    Reg off = b.muli(i, 8);
    Reg p = b.add(base, off);
    Reg v = b.load(p);
    b.add(acc, v, acc);
  });
  Reg bad = b.const_(i64{1} << 40);
  b.load(bad);  // load trap: far beyond VM memory
  b.ret(acc);
  return m;
}

// Reference run: the clean control structure the faulty runs must preserve.
struct ControlShape {
  std::size_t forests;
  std::size_t total_loops;
  int main_max_depth;
};

ControlShape shape_of(const cfg::ControlStructure& cs) {
  ControlShape s{cs.forests.size(), 0, 0};
  for (const auto& [func, forest] : cs.forests) {
    s.total_loops += forest.loops().size();
    s.main_max_depth = std::max(s.main_max_depth, forest.max_depth());
  }
  return s;
}

class FaultMatrix : public ::testing::TestWithParam<
                        std::tuple<vm::FaultKind, u64 /*seed*/>> {};

TEST_P(FaultMatrix, EveryFaultYieldsDiagnosedPartialResult) {
  auto [kind, seed] = GetParam();
  Module m = layerforward_module(8, 4);

  ProfileResult clean = Pipeline(m).run();
  ASSERT_FALSE(clean.truncated);
  ControlShape clean_shape = shape_of(clean.control);

  PipelineOptions opts;
  opts.chaos.kind = kind;
  opts.chaos.seed = seed;
  ProfileResult r;
  // The contract under test: no pp::Error (or anything else) escapes.
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));

  // The fault was diagnosed, not swallowed.
  EXPECT_TRUE(r.truncated) << vm::fault_kind_name(kind) << " seed " << seed;
  EXPECT_FALSE(r.diagnostics.empty());

  // Stage 1 is never chaos-wrapped: the control structure stays intact.
  ControlShape s = shape_of(r.control);
  EXPECT_EQ(s.forests, clean_shape.forests);
  EXPECT_EQ(s.total_loops, clean_shape.total_loops);
  EXPECT_EQ(s.main_max_depth, clean_shape.main_max_depth);

  // The partial result is still a result: report rendering never throws
  // and always carries the degradation section.
  std::string report;
  ASSERT_NO_THROW(report = full_report(r));
  EXPECT_NE(report.find("-- degradations --"), std::string::npos);
  EXPECT_NE(report.find("PARTIAL PROFILE"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultMatrix,
    ::testing::Combine(::testing::Values(vm::FaultKind::kTruncate,
                                         vm::FaultKind::kUnmatchedReturn,
                                         vm::FaultKind::kMisalign,
                                         vm::FaultKind::kBadFunc,
                                         vm::FaultKind::kBadBlock),
                       ::testing::Values(u64{1}, u64{7}, u64{42})),
    [](const auto& info) {
      std::string name = vm::fault_kind_name(std::get<0>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// Service-level fault points: each one fires the run's CancelToken at a
// deterministic structural point (stage boundary / seeded fold merge
// position). Same contract as the event-stream faults — a diagnosed
// partial result, never a throw — plus the cancellation bookkeeping.
class ServiceFaultMatrix
    : public ::testing::TestWithParam<std::tuple<vm::ServiceFault, u64>> {};

TEST_P(ServiceFaultMatrix, EveryServiceFaultYieldsDiagnosedPartialResult) {
  auto [fault, seed] = GetParam();
  Module m = layerforward_module(8, 4);

  support::CancelToken token;
  PipelineOptions opts;
  opts.chaos.service = fault;
  opts.chaos.seed = seed;
  opts.cancel = &token;
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));

  EXPECT_TRUE(r.truncated) << vm::service_fault_name(fault);
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(r.diagnostics.empty());
  EXPECT_NE(r.diagnostics.render().find("cancelled"), std::string::npos);

  // kDeadlineMidFold expires the deadline; the cancel points fire a plain
  // cancel — the reason is preserved for the service's outcome report.
  if (fault == vm::ServiceFault::kDeadlineMidFold)
    EXPECT_EQ(token.reason(), support::CancelReason::kDeadline);
  else
    EXPECT_EQ(token.reason(), support::CancelReason::kCancel);

  std::string report;
  ASSERT_NO_THROW(report = full_report(r));
  EXPECT_NE(report.find("PARTIAL PROFILE"), std::string::npos);
  EXPECT_NE(report.find("cancelled"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllServiceFaults, ServiceFaultMatrix,
    ::testing::Combine(
        ::testing::Values(vm::ServiceFault::kCancelAtControl,
                          vm::ServiceFault::kCancelAtDdg,
                          vm::ServiceFault::kCancelAtFold,
                          vm::ServiceFault::kCancelAtFeedback,
                          vm::ServiceFault::kDeadlineMidFold),
        ::testing::Values(u64{1}, u64{2}, u64{3})),
    [](const auto& info) {
      std::string name = vm::service_fault_name(std::get<0>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(ServiceFault, CancelAtDdgPreservesStageOneStructure) {
  // Cancelling at the stage-2 boundary must not cost the control
  // structure stage 1 already built.
  Module m = layerforward_module(8, 4);
  ProfileResult clean = Pipeline(m).run();
  ControlShape clean_shape = shape_of(clean.control);

  support::CancelToken token;
  PipelineOptions opts;
  opts.chaos.service = vm::ServiceFault::kCancelAtDdg;
  opts.cancel = &token;
  ProfileResult r = Pipeline(m).run(opts);
  ControlShape s = shape_of(r.control);
  EXPECT_EQ(s.forests, clean_shape.forests);
  EXPECT_EQ(s.total_loops, clean_shape.total_loops);
  EXPECT_EQ(s.main_max_depth, clean_shape.main_max_depth);
  EXPECT_EQ(r.statements.size(), 0u);  // stage 2 never ran
}

TEST(ServiceFault, RealDeadlineExpiryDegradesLikeChaosDeadline) {
  // A genuinely expired deadline (not chaos-injected) lands wherever the
  // next checkpoint is; it must still come back diagnosed, with the
  // deadline reason recorded.
  Module m = layerforward_module(16, 16);
  support::CancelToken token;
  token.set_deadline_in_ms(0);  // already expired at the first poll
  PipelineOptions opts;
  opts.cancel = &token;
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));
  EXPECT_TRUE(r.truncated);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(token.reason(), support::CancelReason::kDeadline);
  EXPECT_NE(r.diagnostics.render().find("deadline"), std::string::npos);
  ASSERT_NO_THROW(full_report(r));
}

TEST(FaultInjection, RuntimeTrapYieldsPartialProfile) {
  Module m = trapping_module(16);
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run());
  EXPECT_TRUE(r.truncated);
  // Both replays trap; both degradations are on record.
  EXPECT_TRUE(r.diagnostics.has_errors());
  std::string rendered = r.diagnostics.render();
  EXPECT_NE(rendered.find("VM trap"), std::string::npos);
  // The prefix was profiled: the summation loop's statements exist and the
  // partial stats count its instructions.
  EXPECT_GT(r.statements.size(), 0u);
  EXPECT_GT(r.stats.instructions, 0u);
  EXPECT_GT(r.program.total_dynamic_ops, 0u);
}

TEST(FaultInjection, MissingEntryDiagnosedBeforeAnyReplay) {
  Module m = layerforward_module(4, 4);
  PipelineOptions opts;
  opts.entry = "does_not_exist";
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));
  EXPECT_TRUE(r.truncated);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].stage, support::Stage::kSetup);
  EXPECT_EQ(r.diagnostics.all()[0].severity, support::Severity::kError);
  EXPECT_NE(r.diagnostics.all()[0].reason.find("not found"),
            std::string::npos);
  EXPECT_EQ(r.statements.size(), 0u);
  EXPECT_EQ(r.stats.instructions, 0u);  // no replay was paid for
}

TEST(FaultInjection, ArgCountMismatchDiagnosedBeforeAnyReplay) {
  Module m = layerforward_module(4, 4);
  PipelineOptions opts;
  opts.args = {1, 2, 3};  // main takes none
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));
  EXPECT_TRUE(r.truncated);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].stage, support::Stage::kSetup);
  EXPECT_EQ(r.stats.instructions, 0u);
}

TEST(FaultInjection, StepBudgetTruncatesBothReplays) {
  Module m = layerforward_module(8, 8);
  PipelineOptions opts;
  opts.budget.vm_steps = 200;
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.diagnostics.empty());
  EXPECT_NE(r.diagnostics.render().find("step limit"), std::string::npos);
  // Partial profile: some statements were still collected.
  EXPECT_GT(r.statements.size(), 0u);
  EXPECT_LE(r.stats.instructions, 200u);
}

TEST(FaultInjection, CoordPoolBudgetDegradesToOverApproximation) {
  Module m = layerforward_module(16, 8);
  ProfileResult clean = Pipeline(m).run();
  ASSERT_GT(clean.coord_pool_words, 64u);

  PipelineOptions opts;
  opts.budget.coord_pool_words = 64;  // far below the clean run's usage
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));
  EXPECT_TRUE(r.truncated);
  EXPECT_GT(r.program.degraded_statements, 0u);
  EXPECT_NE(r.diagnostics.render().find("coordinate-pool budget"),
            std::string::npos);

  // %Aff honesty: degraded statements never count as affine, under either
  // strictness, so the degraded run's %Aff cannot exceed the clean run's.
  auto strict = r.program.affine_flags(true);
  auto extended = r.program.affine_flags(false);
  u64 degraded_seen = 0;
  for (const auto& s : r.program.statements) {
    if (!s.degraded) continue;
    ++degraded_seen;
    EXPECT_FALSE(s.domain_exact);
    EXPECT_FALSE(s.is_scev);
    EXPECT_FALSE(strict[static_cast<std::size_t>(s.meta.id)]);
    EXPECT_FALSE(extended[static_cast<std::size_t>(s.meta.id)]);
  }
  EXPECT_EQ(degraded_seen, r.program.degraded_statements);
  EXPECT_LE(r.percent_affine(), clean.percent_affine());

  // Dependences incident to degraded statements are over-approximate:
  // they contribute nothing to the must-dependence view.
  for (const auto& d : r.program.deps) {
    if (r.program.stmt(d.src).degraded || r.program.stmt(d.dst).degraded) {
      EXPECT_TRUE(d.must_relation().empty());
      EXPECT_GT(d.relation.total_observed(), 0u);
    }
  }
}

TEST(FaultInjection, ShadowPageBudgetDegrades) {
  // Touch many distinct 32 KiB shadow spans: a strided walk over a large
  // global, one store per page.
  constexpr i64 kPageSpan = 8 * (i64{1} << 12);  // ShadowMemory page bytes
  constexpr i64 kPages = 8;
  Module m;
  i64 g = m.add_global("big", kPages * kPageSpan);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(kPages);
  b.counted_loop(0, n, 1, [&](Reg i) {
    Reg off = b.muli(i, kPageSpan);
    Reg p = b.add(base, off);
    b.store(p, i);
    Reg v = b.load(p);
    b.addi(v, 1);
  });
  b.ret();

  PipelineOptions opts;
  opts.budget.shadow_pages = 2;
  ProfileResult r;
  ASSERT_NO_THROW(r = Pipeline(m).run(opts));
  EXPECT_TRUE(r.truncated);
  EXPECT_GT(r.program.degraded_statements, 0u);
  EXPECT_NE(r.diagnostics.render().find("shadow-page budget"),
            std::string::npos);
}

// The folder-piece cap is a run-wide total of statement-stream pieces
// (domain + values + addresses), charged in statement-table order at
// finalize; dependence pieces are never charged.
TEST(FaultInjection, PieceBudgetChargesStatementPiecesInTableOrder) {
  workloads::Workload wl = workloads::make_rodinia("srad_v1");
  ProfileResult clean = Pipeline(wl.module).run();
  ASSERT_EQ(clean.program.degraded_statements, 0u);
  std::size_t stmt_pieces = 0, last_with_pieces = 0;
  const auto& stmts = clean.program.statements;
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    std::size_t n = stmts[i].domain.pieces().size() +
                    stmts[i].values.pieces().size() +
                    stmts[i].addresses.pieces().size();
    stmt_pieces += n;
    if (n > 0) last_with_pieces = i;
  }
  std::size_t dep_pieces = 0;
  for (const auto& d : clean.program.deps)
    dep_pieces += d.relation.pieces().size();
  ASSERT_GT(stmt_pieces, 1u);
  ASSERT_GT(dep_pieces, 0u);  // the program total exceeds the first cap

  PipelineOptions opts;
  opts.budget.folder_pieces = stmt_pieces;
  ProfileResult at_cap = Pipeline(wl.module).run(opts);
  EXPECT_EQ(at_cap.program.degraded_statements, 0u);

  opts.budget.folder_pieces = stmt_pieces - 1;
  ProfileResult below = Pipeline(wl.module).run(opts);
  ASSERT_EQ(below.program.statements.size(), stmts.size());
  for (std::size_t i = 0; i < stmts.size(); ++i)
    EXPECT_EQ(below.program.statements[i].degraded, i >= last_with_pieces)
        << "statement " << i;
  EXPECT_EQ(below.program.degraded_statements,
            stmts.size() - last_with_pieces);
}

TEST(FaultInjection, ChaosOnTrappingProgramStillIsolated) {
  // Compound failure: injected stream corruption AND a runtime trap in the
  // same run must still come back as one diagnosed partial result.
  Module m = trapping_module(32);
  for (u64 seed : {u64{1}, u64{2}, u64{3}}) {
    PipelineOptions opts;
    opts.chaos.kind = vm::FaultKind::kUnmatchedReturn;
    opts.chaos.seed = seed;
    ProfileResult r;
    ASSERT_NO_THROW(r = Pipeline(m).run(opts));
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.diagnostics.empty());
    ASSERT_NO_THROW(full_report(r));
  }
}

TEST(FaultInjection, CleanRunStaysClean) {
  // The harness itself must not degrade healthy runs: validator wired in,
  // budget unlimited, chaos off — identical results to the seed pipeline.
  Module m = layerforward_module(8, 4);
  ProfileResult r = Pipeline(m).run();
  EXPECT_FALSE(r.truncated);
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.program.degraded_statements, 0u);
  std::string report = full_report(r);
  EXPECT_NE(report.find("-- degradations --\nnone"), std::string::npos);
  EXPECT_EQ(report.find("PARTIAL"), std::string::npos);
}

}  // namespace
}  // namespace pp::core
