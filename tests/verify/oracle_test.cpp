// Differential soundness oracle tests: the dynamic-⊆-static containment
// and the parallel-claim race detector, on hand-built modules (with
// deliberate corruption to prove the oracle actually fires) and across the
// whole mini-Rodinia suite (the acceptance bar: the oracle passes on every
// workload).
#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"
#include "workloads/workloads.hpp"

namespace pp::verify {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

/// for (i = 0..10) { a[2i] = i; x = a[2i]; y = a[2i+1]; b[i] = x + y; }
/// Even/odd accesses are GCD-disjoint — the raw material for the
/// corruption tests below.
Module even_odd_module() {
  Module m;
  i64 ga = m.add_global("a", 400);
  i64 gb = m.add_global("b", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg abase = b.const_(ga);
  Reg bbase = b.const_(gb);
  Reg n = b.const_(10);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg p = b.add(abase, b.muli(iv, 16));
    b.store(p, iv);
    Reg x = b.load(p);
    Reg y = b.load(p, 8);
    Reg q = b.add(bbase, b.muli(iv, 8));
    b.store(q, b.add(x, y));
  });
  b.ret();
  return m;
}

/// Statement id of the first statement matching `pred`, or -1.
template <typename Pred>
int find_stmt(const fold::FoldedProgram& prog, Pred pred) {
  for (const auto& s : prog.statements)
    if (pred(s.meta)) return s.meta.id;
  return -1;
}

TEST(Oracle, CleanProgramIsCovered) {
  Module m = even_odd_module();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  CoverageReport rep = check_dynamic_coverage(m, r.program);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GT(rep.checked, 0u);
  // The a[2i] store -> a[2i] load mem-flow edge is may-covered, so the
  // exact tier re-examined it (and agreed).
  EXPECT_GT(rep.exact_checked, 0u);
}

TEST(Oracle, PrecisionTierRefinesEvenOdd) {
  // may_alias is GCD/Banerjee-only: the a[2i] store vs a[2i+1] load pair is
  // proven disjoint by GCD, so refinement isn't guaranteed there — but the
  // exact tier must at least agree with every may verdict (zero mismatches)
  // and examine every modeled store-involved pair.
  Module m = even_odd_module();
  PrecisionReport rep = check_precision_tier(m);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GT(rep.pairs_checked, 0u);
}

TEST(Oracle, DetectsStaticallyImpossibleMemoryEdge) {
  Module m = even_odd_module();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  // Find the statements for the a[2i] store and the a[2i+1] load (the
  // load with imm 8 on the a-array address).
  const Function& f = m.functions[0];
  auto instr_at = [&](const vm::CodeRef& c) -> const ir::Instr& {
    return f.blocks[static_cast<std::size_t>(c.block)]
        .instrs[static_cast<std::size_t>(c.instr)];
  };
  int odd_load = find_stmt(r.program, [&](const ddg::Statement& s) {
    return s.op == Op::kLoad && instr_at(s.code).imm == 8;
  });
  ASSERT_GE(odd_load, 0);
  // Reroute a store->load mem-flow edge onto the odd load: a dependence
  // the GCD test proves impossible.
  fold::FoldedProgram tampered = r.program;
  bool rerouted = false;
  for (auto& d : tampered.deps) {
    if (d.kind != ddg::DepKind::kMemFlow) continue;
    const auto& src = tampered.stmt(d.src).meta;
    if (src.op != Op::kStore || instr_at(src.code).op != Op::kStore) continue;
    d.dst = odd_load;
    rerouted = true;
    break;
  }
  ASSERT_TRUE(rerouted);
  CoverageReport rep = check_dynamic_coverage(m, tampered);
  EXPECT_FALSE(rep.ok());
  ASSERT_FALSE(rep.violations.empty());
  EXPECT_EQ(rep.violations[0].dst_stmt, odd_load);
}

TEST(Oracle, DetectsImpossibleRegisterFlow) {
  Module m = even_odd_module();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  // Retarget a reg-flow edge's producer to a store (which defines no
  // register at all): statically impossible.
  int store_stmt = find_stmt(r.program, [&](const ddg::Statement& s) {
    return s.op == Op::kStore;
  });
  ASSERT_GE(store_stmt, 0);
  fold::FoldedProgram tampered = r.program;
  bool rerouted = false;
  for (auto& d : tampered.deps) {
    if (d.kind != ddg::DepKind::kRegFlow || d.src == store_stmt) continue;
    d.src = store_stmt;
    rerouted = true;
    break;
  }
  ASSERT_TRUE(rerouted);
  CoverageReport rep = check_dynamic_coverage(m, tampered);
  EXPECT_FALSE(rep.ok()) << rep.str();
}

TEST(Oracle, ForcedParallelClaimIsContradictedAndDowngraded) {
  // sum += a[i]: the loop level carries the accumulator dependence, so a
  // parallel claim on it must be contradicted by the folded DDG.
  Module m;
  i64 g = m.add_global("a", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(20);
  b.counted_loop(0, n, 1, [&](Reg iv) {  // a[i] = i
    Reg p = b.add(base, b.muli(iv, 8));
    b.store(p, iv);
  });
  Reg acc = b.const_(0);
  b.counted_loop(0, n, 1, [&](Reg iv) {  // acc += a[i]
    Reg p = b.add(base, b.muli(iv, 8));
    Reg v = b.load(p);
    b.add(acc, v, acc);
  });
  b.ret(acc);

  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);

  // Baseline: the honest schedule raises no witness.
  {
    ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
    EXPECT_TRUE(rep.ok()) << rep.str();
  }

  // Force a parallel claim onto a carried level, then let the oracle
  // downgrade it again.
  int forced_group = -1, forced_level = -1;
  for (std::size_t gi = 0;
       gi < mx.sched.groups.size() && forced_group < 0; ++gi) {
    auto& grp = mx.sched.groups[gi];
    if (!grp.schedulable) continue;
    for (std::size_t li = 0; li < grp.levels.size(); ++li) {
      if (grp.levels[li].carries && !grp.levels[li].parallel) {
        grp.levels[li].parallel = true;
        forced_group = static_cast<int>(gi);
        forced_level = static_cast<int>(li);
        break;
      }
    }
  }
  ASSERT_GE(forced_group, 0) << "no carried level to corrupt";

  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/true);
  EXPECT_FALSE(rep.ok());
  EXPECT_GT(rep.instances_checked, 0u);
  EXPECT_GE(rep.downgraded_levels, 1);
  bool hit = false;
  for (const auto& w : rep.witnesses)
    if (w.kind == ClaimWitness::Kind::kParallelContradicted &&
        w.group == forced_group && w.level == forced_level)
      hit = true;
  EXPECT_TRUE(hit) << rep.str();
  // The downgrade restored the truthful flag.
  EXPECT_FALSE(mx.sched.groups[static_cast<std::size_t>(forced_group)]
                   .levels[static_cast<std::size_t>(forced_level)]
                   .parallel);
}

/// acc += a[i] over `n` iterations: the accumulator chain is a genuine
/// loop-carried dependence whose must-piece has `n` instances.
Module reduction_module(i64 n) {
  Module m;
  i64 g = m.add_global("a", (n + 1) * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg nn = b.const_(n);
  b.counted_loop(0, nn, 1, [&](Reg iv) {  // a[i] = i
    Reg p = b.add(base, b.muli(iv, 8));
    b.store(p, iv);
  });
  Reg acc = b.const_(0);
  b.counted_loop(0, nn, 1, [&](Reg iv) {  // acc += a[i]
    Reg p = b.add(base, b.muli(iv, 8));
    Reg v = b.load(p);
    b.add(acc, v, acc);
  });
  b.ret(acc);
  return m;
}

TEST(Oracle, CappedPiecesAreDecidedExactly) {
  // 6000 iterations blow the 4096-instance enumeration cap: the oracle
  // must route those pieces through the exact integer walk (counted as
  // capped) and still accept the honest schedule with zero witnesses.
  Module m = reduction_module(6000);
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);
  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GE(rep.capped_pieces, 1u);
}

TEST(Oracle, CappedForcedClaimYieldsIntegerWitness) {
  // Same module, but with a parallel claim forced onto a carried level:
  // the exact walk over the capped piece must contradict it (the witness
  // comes from the Omega test, not from enumeration).
  Module m = reduction_module(6000);
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);
  bool forced = false;
  for (auto& grp : mx.sched.groups) {
    if (!grp.schedulable || forced) continue;
    for (auto& lv : grp.levels) {
      if (lv.carries && !lv.parallel) {
        lv.parallel = true;
        forced = true;
        break;
      }
    }
  }
  ASSERT_TRUE(forced) << "no carried level to corrupt";
  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/true);
  EXPECT_FALSE(rep.ok());
  EXPECT_GE(rep.capped_pieces, 1u);
  bool integer_witness = false;
  for (const auto& w : rep.witnesses)
    if (w.kind == ClaimWitness::Kind::kParallelContradicted &&
        w.message.find("integer instance") != std::string::npos)
      integer_witness = true;
  EXPECT_TRUE(integer_witness) << rep.str();
}

/// for (i = 1..n) for (j = 0..n-1) a[i][j] = a[i-1][j+1] + 1: one flow
/// dependence with distance (1, -1). Level 0 (i) carries it; level 1 (j)
/// sees distance -1, so it may only follow level 0 in a NEW band.
Module anti_diagonal_module(i64 n) {
  Module m;
  const i64 row = 8 * (n + 1);
  i64 g = m.add_global("a", (n + 1) * row);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg rows = b.const_(n + 1);
  Reg cols = b.const_(n);
  b.counted_loop(1, rows, 1, [&](Reg i) {
    Reg ri = b.add(base, b.muli(i, row));
    b.counted_loop(0, cols, 1, [&](Reg j) {
      Reg p = b.add(ri, b.muli(j, 8));
      Reg v = b.load(p, 8 - row);  // a[i-1][j+1]
      b.store(p, b.addi(v, 1));
    });
  });
  b.ret();
  return m;
}

/// Replace every two-level schedule by the original (i, j) order in ONE
/// band, i.e. claim each nest permutable (no level claims parallelism, so
/// the band is the only claim a witness can contradict). Returns how many
/// groups were corrupted.
int force_shared_band(feedback::RegionMetrics& mx) {
  int forced = 0;
  for (auto& grp : mx.sched.groups) {
    if (!grp.schedulable || grp.levels.size() != 2) continue;
    grp.levels[0] = {.row = {1, 0}, .carries = true, .new_band = true};
    grp.levels[1] = {.row = {0, 1}};
    ++forced;
  }
  return forced;
}

bool has_band_violation(const ClaimReport& rep) {
  for (const auto& w : rep.witnesses)
    if (w.kind == ClaimWitness::Kind::kBandViolation && w.level == 1)
      return true;
  return false;
}

TEST(Oracle, BandViolationAfterSatisfyingLevelIsReported) {
  // Level 0 satisfies every instance (distance 1), so the unsatisfied
  // region is empty from level 1 on — but the instances are still in the
  // band, and distance -1 there breaks permutability. The rational walk
  // must not stop at the empty region: had it stopped, the proof would
  // clear the piece and enumeration (which does report the violation)
  // would never run.
  Module m = anti_diagonal_module(8);
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);
  {
    ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
    EXPECT_TRUE(rep.ok()) << rep.str();
    EXPECT_GT(rep.pieces_proved, 0u);
  }
  ASSERT_GT(force_shared_band(mx), 0) << "no 2-level group to corrupt";
  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
  EXPECT_TRUE(has_band_violation(rep)) << rep.str();
  EXPECT_GT(rep.pieces_enumerated, 0u) << "the proof cleared the piece";
}

TEST(Oracle, CappedBandViolationAfterSatisfyingLevelIsReported) {
  // The same claim over a piece past the enumeration cap (70x70 > 4096
  // instances): decided by the per-level integer walk instead.
  Module m = anti_diagonal_module(70);
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);
  ASSERT_GT(force_shared_band(mx), 0) << "no 2-level group to corrupt";
  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
  EXPECT_GE(rep.capped_pieces, 1u);
  EXPECT_TRUE(has_band_violation(rep)) << rep.str();
}

TEST(Oracle, ProofFirstCountersAreTimingOnly) {
  // The proof/enumeration split is reported as kTiming counters: visible
  // in the session, absent from stable self-profile reports.
  workloads::Workload w = workloads::make_rodinia("hotspot");
  core::PipelineOptions opts;
  opts.observe = true;
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run(opts);
  ASSERT_NE(r.obs, nullptr);
  const std::string stable_report = core::full_report(r);  // runs the oracle
  const auto counters = r.obs->counters();
  auto it = counters.find("oracle.pieces_proved");
  ASSERT_NE(it, counters.end());
  EXPECT_GT(it->second.value, 0);
  EXPECT_EQ(it->second.stability, obs::Stability::kTiming);
  it = counters.find("oracle.pieces_enumerated");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second.stability, obs::Stability::kTiming);
  EXPECT_EQ(stable_report.find("oracle.pieces_"), std::string::npos);
  core::ReportOptions timed;
  timed.stable_self_profile = false;
  EXPECT_NE(core::full_report(r, timed).find("oracle.pieces_proved"),
            std::string::npos);
}

// The acceptance bar: on every mini-Rodinia workload, every dynamic
// dependence is covered by the static may-dependence set, every
// parallelism claim of the scheduler survives re-validation against the
// folded DDG, and the two static analyses nest (exact ⊆ may-dep, zero
// precision mismatches).
class RodiniaOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(RodiniaOracle, DynamicSubsetOfStaticAndClaimsHold) {
  workloads::Workload w = workloads::make_rodinia(GetParam());
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();

  std::vector<feedback::RegionMetrics> metrics;
  for (const auto& region : r.hot_regions())
    metrics.push_back(r.analyze(region));
  std::vector<feedback::RegionMetrics*> ptrs;
  for (auto& mx : metrics) ptrs.push_back(&mx);

  OracleReport rep = run_oracle(w.module, r.program, ptrs);
  EXPECT_TRUE(rep.coverage.ok()) << rep.coverage.str();
  EXPECT_GT(rep.coverage.checked, 0u);
  EXPECT_TRUE(rep.precision.ok()) << rep.precision.str();
  for (const auto& c : rep.claims) EXPECT_TRUE(c.ok()) << c.str();
  EXPECT_TRUE(rep.ok());
  EXPECT_NE(rep.verdict_line().find("OK"), std::string::npos);
  EXPECT_NE(rep.verdict_line().find("exact precision ok"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RodiniaOracle,
                         ::testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

}  // namespace
}  // namespace pp::verify
