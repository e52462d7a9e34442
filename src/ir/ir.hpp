// The polyprof mini-ISA: a low-level three-address IR that plays the role
// of "compiled binary" in this reproduction. The paper instruments real
// x86/ARM binaries through QEMU; every downstream stage, however, consumes
// only the *event stream* (control transfers, memory addresses, produced
// values). Programs in this IR — with explicit address arithmetic,
// unstructured control flow, calls and recursion — produce exactly that
// stream through pp::vm.
//
// Deliberate "binary-like" properties:
//  * no structured loops: only conditional/unconditional branches,
//  * addresses computed with ordinary integer arithmetic (so the profiler
//    must recover strides/SCEVs, they are not given),
//  * unlimited virtual registers but no types beyond 64-bit words
//    (FP ops operate on double bit-patterns, flagged for %FPops metrics),
//  * optional debug info (file/line) that feedback maps regions onto.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "support/diag.hpp"
#include "support/int_math.hpp"

namespace pp::ir {

using Reg = int;               ///< virtual register index within a function
inline constexpr Reg kNoReg = -1;

/// Opcode set. Arithmetic is 64-bit two's complement; *F* variants operate
/// on IEEE doubles stored as bit patterns and are counted as FP operations.
enum class Op : std::uint8_t {
  kConst,   // dst = imm
  kMov,     // dst = a
  kAdd, kSub, kMul, kDiv, kRem,         // dst = a <op> b
  kAddI, kMulI,                         // dst = a <op> imm
  kAnd, kOr, kXor, kShl, kShr,          // dst = a <op> b
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,  // dst = (a <op> b) ? 1:0
  kFAdd, kFSub, kFMul, kFDiv,           // double bit-pattern arithmetic
  kFConst,                              // dst = bit pattern of double imm
  kI2F, kF2I,                           // conversions
  kLoad,    // dst = mem[a + imm]
  kStore,   // mem[a + imm] = b
  kBr,      // goto bb(imm)
  kBrCond,  // if (a != 0) goto bb(imm) else goto bb(imm2)
  kCall,    // dst = call fn(imm) with args regs
  kRet,     // return a (or nothing when a == kNoReg)
};

const char* op_name(Op op);
bool op_is_terminator(Op op);
bool op_is_fp(Op op);
bool op_is_memory(Op op);

/// One instruction. Operand meaning depends on the opcode (see Op).
struct Instr {
  Op op;
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  i64 imm = 0;
  i64 imm2 = 0;
  std::vector<Reg> args;  ///< kCall only
  int line = 0;           ///< debug info: source line (0 = unknown)
};

/// A basic block: straight-line instructions ending in a terminator.
struct BasicBlock {
  int id = -1;
  std::string label;
  std::vector<Instr> instrs;
};

/// A function: blocks + register count. Block 0 is the entry.
struct Function {
  int id = -1;
  std::string name;
  std::string source_file;  ///< debug info
  int num_args = 0;
  int num_regs = 0;
  std::vector<BasicBlock> blocks;

  BasicBlock& block(int id_) {
    PP_CHECK(id_ >= 0 && static_cast<std::size_t>(id_) < blocks.size(),
             "bad block id");
    return blocks[static_cast<std::size_t>(id_)];
  }
  const BasicBlock& block(int id_) const {
    return const_cast<Function*>(this)->block(id_);
  }
};

/// A named byte region in the module's flat data segment.
struct Global {
  std::string name;
  i64 address = 0;      ///< byte address in VM memory
  i64 size_bytes = 0;
  std::vector<i64> init_words;  ///< optional 8-byte-word initializer
};

/// A whole program: functions + globals. Function 0 need not be the entry;
/// the VM takes the entry by name.
struct Module {
  /// deque, not vector: add_function hands out stable references that must
  /// survive later additions (builder code holds Function& across calls).
  std::deque<Function> functions;
  std::vector<Global> globals;
  i64 data_segment_size = 0;

  Function& add_function(const std::string& name, int num_args,
                         const std::string& source_file = "");
  /// Reserve `size_bytes` (8-aligned) in the data segment; returns address.
  i64 add_global(const std::string& name, i64 size_bytes);
  /// Global with word initializers (size = 8 * words).
  i64 add_global_init(const std::string& name, std::vector<i64> words);

  Function* find_function(const std::string& name);
  const Function* find_function(const std::string& name) const;
  const Global* find_global(const std::string& name) const;
};

/// The registers one instruction reads, without allocating: up to two
/// operands held inline, or a view of a call's `args`. Copyable — a copy
/// re-derives its begin from its own storage.
class RegReads {
 public:
  RegReads() = default;
  RegReads(Reg a, Reg b, std::size_t n) : inl_{a, b}, n_(n) {}
  explicit RegReads(const std::vector<Reg>& args)
      : ext_(args.data()), n_(args.size()) {}
  const Reg* begin() const { return ext_ != nullptr ? ext_ : inl_; }
  const Reg* end() const { return begin() + n_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

 private:
  Reg inl_[2] = {kNoReg, kNoReg};
  const Reg* ext_ = nullptr;
  std::size_t n_ = 0;
};

/// Operand roles: the one rule for which registers an instruction touches.
/// read_regs lists the registers it reads, in operand order (a call's
/// arguments count as reads). Required operands are listed even when unset
/// (kNoReg), so the structural rules flag them; `ret`'s optional value is
/// listed only when present. Inline: stage 2 asks per event.
inline RegReads read_regs(const Instr& in) {
  switch (in.op) {
    case Op::kConst:
    case Op::kFConst:
    case Op::kBr:
      return {};
    case Op::kMov:
    case Op::kAddI:
    case Op::kMulI:
    case Op::kI2F:
    case Op::kF2I:
    case Op::kLoad:
    case Op::kBrCond:
      return {in.a, kNoReg, 1};
    case Op::kCall:
      return RegReads(in.args);
    case Op::kRet:
      return {in.a, kNoReg, in.a == kNoReg ? 0u : 1u};
    default:
      // Two-operand arithmetic, compares, FP arithmetic, stores.
      return {in.a, in.b, 2};
  }
}
/// Does the instruction write its `dst`? Always for value-producing ops (an
/// unset dst is then out of range), for `call` only when it has a result,
/// never for stores, branches and returns. Inline: stage 2 asks per event.
inline bool writes_reg(const Instr& in) {
  switch (in.op) {
    case Op::kStore:
    case Op::kBr:
    case Op::kBrCond:
    case Op::kRet:
      return false;
    case Op::kCall:
      return in.dst != kNoReg;
    default:
      return true;
  }
}

/// Throws pp::Error describing the first violation of the module's
/// structural rules (ir/wellformed.hpp). The VM constructor and the parser
/// call it; verify::verify_module reports every violation instead.
void verify(const Module& m);

/// Human-readable disassembly of a function / module.
std::string print(const Function& f);
std::string print(const Module& m);

}  // namespace pp::ir
