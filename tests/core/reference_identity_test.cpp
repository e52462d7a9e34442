// Reference identity: the pipeline's optional machinery must not change
// what a report says. Path compaction is checked against the reference
// interpretation (compaction off) on every workload, plain and with
// anti/output tracking, including a chaos fault that lands inside a
// compressed run, and observation against an unobserved run. Degraded
// runs — injected faults, an exhausted budget, cancellation at a
// structural point — must be reproducible: a repeat run
// yields the same partial report byte for byte, so a degraded run can be
// compared against a repeat of itself.
#include <string>

#include "core/pipeline.hpp"
#include "gtest/gtest.h"
#include "workloads/workloads.hpp"

namespace pp {
namespace {

std::string report(const ir::Module& m, const core::PipelineOptions& opts = {}) {
  core::ProfileResult r = core::Pipeline(m).run(opts);
  return core::full_report(r);
}

class ReferenceIdentity : public testing::TestWithParam<std::string> {};

// With observe on, the report grows a "-- self profile --" section whose
// stable rendering (times elided, kStable counters only) is reproducible
// run to run — and except for that section, matches the unobserved report.
// The observed counters also show that no workload needs the folder's
// rational fallback.
TEST_P(ReferenceIdentity, ObservedStableReportIsByteIdenticalToo) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  core::PipelineOptions observed;
  observed.observe = true;
  const std::string first = report(wl.module, observed);
  EXPECT_NE(first.find("-- self profile --"), std::string::npos);
  EXPECT_EQ(first, report(wl.module, observed));
  const std::string plain = report(wl.module);
  EXPECT_EQ(first.substr(0, plain.size()), plain);
  // The folder's exact kernels answer every workload on integers: none
  // falls back to pp::Rat, plain or with the transformation engine on.
  for (bool transforms : {false, true}) {
    observed.apply_transforms = transforms;
    core::ProfileResult r = core::Pipeline(wl.module).run(observed);
    EXPECT_EQ(r.obs->counters().at("fold.rat_fallbacks").value, 0)
        << "apply_transforms=" << transforms;
  }
}

// Hot-path trace compaction is a pure optimization: the report with
// path_compaction off (the reference interpretation) must be byte-equal
// to the compacted one — plain, and with the transformation engine on,
// whose anti/output edges the bulk replay must reproduce too.
TEST_P(ReferenceIdentity, CompactionIsByteIdenticalOnOff) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  for (bool transforms : {false, true}) {
    SCOPED_TRACE("apply_transforms=" + std::to_string(transforms));
    core::PipelineOptions off;
    off.apply_transforms = transforms;
    off.path_compaction = false;
    core::PipelineOptions on = off;
    on.path_compaction = true;
    EXPECT_EQ(report(wl.module, off), report(wl.module, on));
  }
}

// Stride runs are the folder's one fast path: with them off every point
// routes one at a time (the reference folder), and the report must not
// change. Compaction stays on, so compressed runs reach Folder::add_run.
TEST_P(ReferenceIdentity, StrideRunsIsByteIdenticalOnOff) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  core::PipelineOptions off;
  off.fold.stride_runs = false;
  EXPECT_EQ(report(wl.module, off), report(wl.module));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ReferenceIdentity,
                         testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

// An injected fault landing INSIDE a compressed run must degrade exactly
// like the reference: the chaos interposer sits upstream of the
// compactor, so the fault fires on the same event ordinal either way and
// the armed run flushes at the same point.
TEST(ReferenceIdentityChaos, FaultInsideCompressedRunMatchesReference) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  for (bool track : {false, true}) {
    for (vm::FaultKind kind :
         {vm::FaultKind::kTruncate, vm::FaultKind::kUnmatchedReturn,
          vm::FaultKind::kMisalign, vm::FaultKind::kBadBlock}) {
      SCOPED_TRACE(std::string("fault=") + vm::fault_kind_name(kind) +
                   " track_anti_output=" + std::to_string(track));
      core::PipelineOptions off;
      off.ddg.track_anti_output = track;
      off.chaos.kind = kind;
      off.chaos.seed = 7;
      off.path_compaction = false;
      core::PipelineOptions on = off;
      on.path_compaction = true;
      EXPECT_EQ(report(wl.module, off), report(wl.module, on));
    }
  }
}

TEST(ReferenceIdentityChaos, DegradedRunsMatchSerialReference) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  for (vm::FaultKind kind :
       {vm::FaultKind::kTruncate, vm::FaultKind::kUnmatchedReturn,
        vm::FaultKind::kMisalign, vm::FaultKind::kBadBlock}) {
    SCOPED_TRACE(std::string("fault=") + vm::fault_kind_name(kind));
    core::PipelineOptions opts;
    opts.chaos.kind = kind;
    opts.chaos.seed = 7;
    const std::string reference = report(wl.module, opts);
    EXPECT_NE(reference.find("PARTIAL PROFILE"), std::string::npos);
    EXPECT_EQ(reference, report(wl.module, opts));
  }
}

// A folder-piece budget degrades statements in statement-table order, so
// the same statement degrades on every run.
TEST(ReferenceIdentityBudget, PieceBudgetDegradesIdentically) {
  workloads::Workload wl = workloads::make_rodinia("srad_v1");
  core::PipelineOptions opts;
  opts.budget.folder_pieces = 24;
  const std::string reference = report(wl.module, opts);
  EXPECT_NE(reference.find("folder piece budget exhausted"),
            std::string::npos);
  EXPECT_EQ(reference, report(wl.module, opts));
}

// Cancellation at a structural point — stage boundary or fold position —
// yields the same partial report on every run. The chaos cancel points
// fire the token at exactly those points. Each run gets a FRESH token
// (tokens are one-shot) that outlives full_report (which consults it).
std::string cancelled_report(const ir::Module& m, vm::CancelPoint fault,
                             u64 seed) {
  support::CancelToken token;
  core::PipelineOptions opts;
  opts.chaos.cancel_at = fault;
  opts.chaos.seed = seed;
  opts.cancel = &token;
  return report(m, opts);
}

TEST(ReferenceIdentityCancel, CancelledRunsMatchSerialReference) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  for (vm::CancelPoint fault :
       {vm::CancelPoint::kCancelAtControl, vm::CancelPoint::kCancelAtDdg,
        vm::CancelPoint::kCancelAtFold, vm::CancelPoint::kCancelAtFeedback,
        vm::CancelPoint::kDeadlineMidFold}) {
    SCOPED_TRACE(std::string("fault=") + vm::cancel_point_name(fault));
    const std::string reference = cancelled_report(wl.module, fault, 3);
    EXPECT_NE(reference.find("PARTIAL PROFILE"), std::string::npos);
    EXPECT_EQ(reference, cancelled_report(wl.module, fault, 3));
  }
}

// The seeded mid-fold deadline lands on different fold positions for
// different seeds; every one of them must be reproducible.
TEST(ReferenceIdentityCancel, MidFoldDeadlineSeedSweep) {
  workloads::Workload wl = workloads::make_rodinia("srad_v1");
  for (u64 seed : {u64{0}, u64{1}, u64{2}, u64{3}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(
        cancelled_report(wl.module, vm::CancelPoint::kDeadlineMidFold, seed),
        cancelled_report(wl.module, vm::CancelPoint::kDeadlineMidFold, seed));
  }
}

}  // namespace
}  // namespace pp
