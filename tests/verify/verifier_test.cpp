#include "verify/verifier.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "workloads/workloads.hpp"

namespace pp::verify {
namespace {

using ir::Builder;
using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Op;
using ir::Reg;

Module clean_module() {
  Module m;
  i64 g = m.add_global("a", 80);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(10);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg p = b.add(base, off);
    b.store(p, iv);
  });
  b.ret();
  return m;
}

TEST(Verifier, CleanModuleHasNoErrors) {
  Module m = clean_module();
  VerifyReport rep = verify_module(m);
  EXPECT_TRUE(rep.ok()) << rep.str();
}

TEST(Verifier, DanglingBranchTarget) {
  Module m = clean_module();
  for (auto& bb : m.functions[0].blocks)
    if (bb.instrs.back().op == Op::kBr) bb.instrs.back().imm = 99;
  VerifyReport rep = verify_module(m);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(IssueCode::kBadBranchTarget)) << rep.str();
}

TEST(Verifier, MissingTerminator) {
  Module m = clean_module();
  Instr filler;
  filler.op = Op::kConst;
  filler.dst = 0;
  m.functions[0].blocks.front().instrs.back() = filler;
  VerifyReport rep = verify_module(m);
  EXPECT_TRUE(rep.has(IssueCode::kMissingTerminator)) << rep.str();
}

TEST(Verifier, MidBlockTerminator) {
  Module m = clean_module();
  auto& instrs = m.functions[0].blocks.front().instrs;
  Instr r;
  r.op = Op::kRet;
  instrs.insert(instrs.begin(), r);
  VerifyReport rep = verify_module(m);
  EXPECT_TRUE(rep.has(IssueCode::kMidBlockTerminator)) << rep.str();
}

TEST(Verifier, OutOfRangeRegister) {
  Module m = clean_module();
  m.functions[0].blocks.front().instrs.front().dst =
      m.functions[0].num_regs + 4;
  VerifyReport rep = verify_module(m);
  EXPECT_TRUE(rep.has(IssueCode::kBadRegister)) << rep.str();
}

TEST(Verifier, BadCallTargetAndArity) {
  Module m;
  Function& callee = m.add_function("callee", 2);
  {
    Builder b(m, callee);
    b.set_block(b.make_block());
    b.ret(0);
  }
  Function& f = m.add_function("main", 0);
  {
    Builder b(m, f);
    b.set_block(b.make_block());
    Reg x = b.const_(1);
    b.call(callee, {x});  // one arg, callee wants two
    b.ret();
  }
  VerifyReport rep = verify_module(m);
  EXPECT_TRUE(rep.has(IssueCode::kBadCallArity)) << rep.str();

  // Retarget the call to a nonexistent function.
  for (auto& bb : m.functions[1].blocks)
    for (auto& in : bb.instrs)
      if (in.op == Op::kCall) in.imm = 7;
  rep = verify_module(m);
  EXPECT_TRUE(rep.has(IssueCode::kBadCallTarget)) << rep.str();
}

TEST(Verifier, UseBeforeDefOnOnePath) {
  // Diamond where x is defined on one side only, then read at the join.
  Module m;
  Function& f = m.add_function("f", 1);
  Builder b(m, f);
  int e = b.make_block();
  int t = b.make_block();
  int el = b.make_block();
  int j = b.make_block();
  b.set_block(e);
  Reg x = b.fresh();
  b.br_cond(0, t, el);
  b.set_block(t);
  b.const_(5, x);
  b.br(j);
  b.set_block(el);
  b.br(j);
  b.set_block(j);
  b.mov(x);
  b.ret();
  VerifyReport rep = verify_module(m);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(IssueCode::kUseBeforeDef)) << rep.str();

  // Defining x on the other path too makes the module clean.
  Module m2;
  Function& f2 = m2.add_function("f", 1);
  Builder b2(m2, f2);
  e = b2.make_block();
  t = b2.make_block();
  el = b2.make_block();
  j = b2.make_block();
  b2.set_block(e);
  x = b2.fresh();
  b2.br_cond(0, t, el);
  b2.set_block(t);
  b2.const_(5, x);
  b2.br(j);
  b2.set_block(el);
  b2.const_(6, x);
  b2.br(j);
  b2.set_block(j);
  b2.mov(x);
  b2.ret();
  EXPECT_TRUE(verify_module(m2).ok()) << verify_module(m2).str();
}

TEST(Verifier, ProvablyMisalignedAccessRejected) {
  // a[8i + 4]: every element lands mid-word. statican models the access,
  // so the verifier can prove the misalignment statically.
  Module m;
  i64 g = m.add_global("a", 128);
  ASSERT_EQ(g % 8, 0) << "globals are word-aligned";
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(10);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg off = b.muli(iv, 8);
    Reg p = b.add(base, off);
    b.store(p, iv, 4);  // +4: off the word grid
  });
  b.ret();
  VerifyReport rep = verify_module(m);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(IssueCode::kMisalignedAccess)) << rep.str();
}

TEST(Verifier, IssueLimitRespected) {
  Module m = clean_module();
  // More corrupt destinations than the report keeps.
  auto& entry = m.functions[0].blocks.front().instrs;
  entry.insert(entry.begin(), ir::kMaxIssues + 44,
               Instr{.op = Op::kConst, .dst = 1000});
  VerifyReport rep = verify_module(m);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.issues.size(), ir::kMaxIssues);
}

// Every mini-Rodinia module is accepted — the verifier's false-positive
// guard across all real workloads.
class RodiniaVerify : public ::testing::TestWithParam<std::string> {};

TEST_P(RodiniaVerify, WorkloadVerifiesClean) {
  workloads::Workload w = workloads::make_rodinia(GetParam());
  VerifyReport rep = verify_module(w.module);
  EXPECT_TRUE(rep.ok()) << rep.str();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RodiniaVerify,
                         ::testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

}  // namespace
}  // namespace pp::verify
