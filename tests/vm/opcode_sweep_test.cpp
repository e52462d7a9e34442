// Table-driven opcode semantics sweep: every arithmetic/compare opcode is
// executed in the VM over a grid of operand values and compared against
// host-side reference semantics (two's-complement 64-bit / IEEE double).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ir/builder.hpp"
#include "vm/vm.hpp"

namespace pp::vm {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

i64 run_binop(Op op, i64 a, i64 b) {
  Module m;
  Function& f = m.add_function("main", 2);
  Builder bld(m, f);
  bld.set_block(bld.make_block());
  Reg r = bld.cmp(op, 0, 1);  // cmp() emits any 2-operand opcode given here
  bld.ret(r);
  Machine vm(m);
  return vm.run("main", {a, b}).exit_value;
}

// Reference semantics for integer ops.
i64 host_int(Op op, i64 a, i64 b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl: return a << (b & 63);
    case Op::kShr: return static_cast<i64>(static_cast<u64>(a) >> (b & 63));
    case Op::kCmpEq: return a == b;
    case Op::kCmpNe: return a != b;
    case Op::kCmpLt: return a < b;
    case Op::kCmpLe: return a <= b;
    case Op::kCmpGt: return a > b;
    case Op::kCmpGe: return a >= b;
    case Op::kDiv: return a / b;
    case Op::kRem: return a % b;
    default: return 0;
  }
}

struct IntCase {
  Op op;
  const char* name;
  bool div_like;
};

// gtest would otherwise print the raw bytes of the struct (padding and a
// relocated pointer), which makes the discovered ctest names differ per build.
void PrintTo(const IntCase& c, std::ostream* os) { *os << c.name; }

class IntOpSweep : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntOpSweep, MatchesHostSemantics) {
  const IntCase& c = GetParam();
  const i64 vals[] = {-7, -1, 0, 1, 2, 5, 63, -64, 1000000007};
  for (i64 a : vals) {
    for (i64 b : vals) {
      if (c.div_like && b == 0) continue;
      EXPECT_EQ(run_binop(c.op, a, b), host_int(c.op, a, b))
          << c.name << "(" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntOpSweep,
    ::testing::Values(IntCase{Op::kAdd, "add", false},
                      IntCase{Op::kSub, "sub", false},
                      IntCase{Op::kMul, "mul", false},
                      IntCase{Op::kDiv, "div", true},
                      IntCase{Op::kRem, "rem", true},
                      IntCase{Op::kAnd, "and", false},
                      IntCase{Op::kOr, "or", false},
                      IntCase{Op::kXor, "xor", false},
                      IntCase{Op::kShl, "shl", false},
                      IntCase{Op::kShr, "shr", false},
                      IntCase{Op::kCmpEq, "cmpeq", false},
                      IntCase{Op::kCmpNe, "cmpne", false},
                      IntCase{Op::kCmpLt, "cmplt", false},
                      IntCase{Op::kCmpLe, "cmple", false},
                      IntCase{Op::kCmpGt, "cmpgt", false},
                      IntCase{Op::kCmpGe, "cmpge", false}),
    [](const auto& info) { return info.param.name; });

// FP opcodes run on double bit patterns.
double run_fp(Op op, double a, double b) {
  i64 abits, bbits;
  std::memcpy(&abits, &a, 8);
  std::memcpy(&bbits, &b, 8);
  Module m;
  Function& f = m.add_function("main", 2);
  Builder bld(m, f);
  bld.set_block(bld.make_block());
  Reg r = bld.cmp(op, 0, 1);
  bld.ret(r);
  Machine vm(m);
  i64 out = vm.run("main", {abits, bbits}).exit_value;
  double d;
  std::memcpy(&d, &out, 8);
  return d;
}

TEST(FpOpSweep, MatchesHostDoubles) {
  const double vals[] = {-2.5, -0.0, 0.0, 0.125, 1.0, 3.14159, 1e300};
  for (double a : vals) {
    for (double b : vals) {
      EXPECT_EQ(run_fp(Op::kFAdd, a, b), a + b);
      EXPECT_EQ(run_fp(Op::kFSub, a, b), a - b);
      EXPECT_EQ(run_fp(Op::kFMul, a, b), a * b);
      if (b != 0.0) {
        EXPECT_EQ(run_fp(Op::kFDiv, a, b), a / b);
      }
    }
  }
}

TEST(FpOpSweep, Conversions) {
  Module m;
  Function& f = m.add_function("main", 1);
  Builder bld(m, f);
  bld.set_block(bld.make_block());
  Reg d = bld.i2f(0);
  Reg r = bld.f2i(d);
  bld.ret(r);
  Machine vm(m);
  for (i64 v : {-1000000, -1, 0, 1, 42, 1 << 20})
    EXPECT_EQ(vm.run("main", {v}).exit_value, v);
}

}  // namespace
}  // namespace pp::vm
