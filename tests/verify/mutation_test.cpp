// The mutation matrix (defect class x workload): a seeded mutator injects
// exactly one defect of a chosen class into a real mini-Rodinia module, and
// the verifier must flag that class. This is the verifier's
// false-NEGATIVE guard, complementing the all-workloads-clean test. The
// same matrix then goes end to end: Pipeline::run must reject the module
// with a diagnosis and full_report must render the rejection, neither of
// them throwing.
#include "verify/mutator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"
#include "verify/exact.hpp"
#include "verify/verifier.hpp"
#include "workloads/workloads.hpp"

namespace pp::verify {
namespace {

TEST(Mutator, DeterministicForSeed) {
  workloads::Workload a = workloads::make_rodinia("backprop");
  workloads::Workload b = workloads::make_rodinia("backprop");
  Mutation ma = mutate(a.module, DefectClass::kDanglingBranch, 42);
  Mutation mb = mutate(b.module, DefectClass::kDanglingBranch, 42);
  EXPECT_EQ(ma.func, mb.func);
  EXPECT_EQ(ma.block, mb.block);
  EXPECT_EQ(ma.instr, mb.instr);
  EXPECT_EQ(ma.description, mb.description);
}

TEST(Mutator, SeedsSpreadAcrossSites) {
  // Not a strict requirement, but 8 seeds picking the identical site would
  // mean the rng plumbing is broken.
  std::set<std::tuple<int, int, int>> sites;
  for (u64 seed = 0; seed < 8; ++seed) {
    workloads::Workload w = workloads::make_rodinia("hotspot");
    Mutation mu = mutate(w.module, DefectClass::kOutOfRangeRegister, seed);
    sites.insert({mu.func, mu.block, mu.instr});
  }
  EXPECT_GT(sites.size(), 1u);
}

class MutationMatrix
    : public ::testing::TestWithParam<std::tuple<DefectClass, std::string>> {};

TEST_P(MutationMatrix, VerifierFlagsInjectedDefect) {
  auto [cls, name] = GetParam();
  for (u64 seed : {u64{1}, u64{7}, u64{42}}) {
    workloads::Workload w = workloads::make_rodinia(name);
    ASSERT_TRUE(verify_module(w.module).ok()) << "baseline not clean";
    Mutation mu = mutate(w.module, cls, seed);
    EXPECT_EQ(mu.cls, cls);
    VerifyReport rep = verify_module(w.module);
    EXPECT_FALSE(rep.ok()) << defect_class_name(cls) << " seed " << seed
                           << ": " << mu.description;
    EXPECT_TRUE(rep.has(expected_issue(cls)))
        << defect_class_name(cls) << " seed " << seed << ": "
        << mu.description << "\nreport:\n"
        << rep.str();
  }
}

// ir::verify (the gate of every VM construction) and verify_module share
// one rule set: the former throws exactly when the latter reports a
// structural issue, and only use-before-def is not structural.
TEST_P(MutationMatrix, IrVerifyThrowsExactlyOnStructuralDefects) {
  auto [cls, name] = GetParam();
  for (u64 seed : {u64{1}, u64{7}, u64{42}}) {
    workloads::Workload w = workloads::make_rodinia(name);
    Mutation mu = mutate(w.module, cls, seed);
    VerifyReport rep = verify_module(w.module);
    bool structural = false;
    for (const Issue& i : rep.issues)
      structural |= i.code != IssueCode::kUseBeforeDef &&
                    i.code != IssueCode::kMisalignedAccess;
    EXPECT_EQ(structural, cls != DefectClass::kUseBeforeDef)
        << defect_class_name(cls) << " seed " << seed << ": "
        << mu.description << "\n" << rep.str();
    if (structural)
      EXPECT_THROW(ir::verify(w.module), Error) << mu.description;
    else
      EXPECT_NO_THROW(ir::verify(w.module)) << mu.description;
  }
}

TEST_P(MutationMatrix, PipelineRejectsAndReportRendersRejection) {
  auto [cls, name] = GetParam();
  for (u64 seed : {u64{1}, u64{7}, u64{42}}) {
    workloads::Workload w = workloads::make_rodinia(name);
    Mutation mu = mutate(w.module, cls, seed);
    const std::string where = std::string(defect_class_name(cls)) +
                              " seed " + std::to_string(seed) + ": " +
                              mu.description;
    core::ProfileResult r;
    EXPECT_NO_THROW(r = core::Pipeline(w.module).run()) << where;
    EXPECT_TRUE(r.truncated) << where;
    EXPECT_EQ(r.stats.instructions, 0u) << where;
    EXPECT_EQ(r.static_deps, nullptr) << where;
    const std::string diag = r.diagnostics.render();
    EXPECT_NE(diag.find("module rejected"), std::string::npos)
        << where << "\n" << diag;
    EXPECT_NE(diag.find(issue_code_name(expected_issue(cls))),
              std::string::npos)
        << where << "\n" << diag;
    std::string report;
    EXPECT_NO_THROW(report = core::full_report(r)) << where;
    for (const char* section :
         {"-- static baseline --\nunavailable (",
          "-- static precision --\nunavailable (",
          "-- soundness oracle --\nskipped ("})
      EXPECT_NE(report.find(section), std::string::npos)
          << where << ": no '" << section << "'\n" << report;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClassesAllBenchmarks, MutationMatrix,
    ::testing::Combine(::testing::ValuesIn(kAllDefectClasses),
                       ::testing::ValuesIn(workloads::rodinia_names())),
    [](const auto& info) {
      std::string n = std::string(defect_class_name(std::get<0>(info.param))) +
                      "_" + std::get<1>(info.param);
      for (char& c : n)
        if (c == '+') c = 'p';
        else if (c == '-') c = '_';
      return n;
    });

// -----------------------------------------------------------------------
// Access-class mutations: the exact analysis's false-negative guard. A
// kStaticExact site flipped down the lattice must (a) keep the module
// verifier-clean (the flips are semantics-preserving) and (b) be
// downgraded by the classifier.

/// a[i] = i*3 over a private global: one static-exact store.
ir::Module static_exact_kernel() {
  ir::Module m;
  i64 g = m.add_global("a", 65 * 8);
  ir::Function& f = m.add_function("main", 0);
  ir::Builder b(m, f);
  b.set_block(b.make_block());
  ir::Reg base = b.const_(g);
  ir::Reg n = b.const_(64);
  b.counted_loop(0, n, 1, [&](ir::Reg iv) {
    b.store(b.add(base, b.muli(iv, 8)), b.muli(iv, 3));
  });
  b.ret();
  return m;
}

class AccessMutationMatrix
    : public ::testing::TestWithParam<AccessMutation> {};

TEST_P(AccessMutationMatrix, FlipsStaticExactSiteAndClassifierDowngrades) {
  const AccessMutation cls = GetParam();
  for (u64 seed : {u64{1}, u64{7}, u64{42}}) {
    ir::Module m = static_exact_kernel();
    {
      // Baseline: the store really is static-exact before the flip.
      const exact::ExactDeps ex(m, m.functions[0]);
      ASSERT_EQ(ex.model().accesses.size(), 1u);
      const statican::AccessInfo& a = ex.model().accesses[0];
      ASSERT_EQ(ex.site_class(a.block, a.instr),
                statican::AccessClass::kStaticExact);
    }
    AccessMutationResult mu = mutate_access(m, cls, seed);
    ASSERT_GE(mu.func, 0) << access_mutation_name(cls);
    ASSERT_TRUE(verify_module(m).ok())
        << access_mutation_name(cls) << ": " << mu.description;
    const ir::Function& f =
        m.functions[static_cast<std::size_t>(mu.func)];
    exact::ExactDeps ex(m, f);
    EXPECT_EQ(ex.site_class(mu.block, mu.instr), expected_access_class(cls))
        << access_mutation_name(cls) << " seed " << seed << ": "
        << mu.description;
  }
}

TEST_P(AccessMutationMatrix, DowngradesAcrossWorkloads) {
  const AccessMutation cls = GetParam();
  int applied = 0;
  for (const std::string& name : workloads::rodinia_names()) {
    for (u64 seed : {u64{1}, u64{7}}) {
      workloads::Workload w = workloads::make_rodinia(name);
      AccessMutationResult mu = mutate_access(w.module, cls, seed);
      if (mu.func < 0) continue;  // no static-exact candidate to flip
      ++applied;
      ASSERT_TRUE(verify_module(w.module).ok())
          << name << ": " << mu.description;
      const ir::Function& f =
          w.module.functions[static_cast<std::size_t>(mu.func)];
      exact::ExactDeps ex(w.module, f);
      EXPECT_EQ(ex.site_class(mu.block, mu.instr),
                expected_access_class(cls))
          << name << " seed " << seed << ": " << mu.description;
    }
  }
  // The matrix must not be vacuous: most workloads have a candidate.
  EXPECT_GT(applied, 0) << access_mutation_name(cls);
}

INSTANTIATE_TEST_SUITE_P(BothClasses, AccessMutationMatrix,
                         ::testing::ValuesIn(kAllAccessMutations),
                         [](const auto& info) {
                           std::string n = access_mutation_name(info.param);
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace pp::verify
