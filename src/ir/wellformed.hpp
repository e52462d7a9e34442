// The structural rules of a pp::ir module: the invariants the VM, the
// dataflow framework and every analysis assume before they walk a
// function. One rule set, two front ends: ir::verify (ir.hpp) throws on the
// first violation — the VM constructor and the parser call it — and
// verify::verify_module reports every violation as a typed issue, then
// adds its def-before-use and alignment passes.
//
// The rules: function ids are 0..n-1 in order and function names are
// unique; every function has blocks, with ids 0..n-1 in order; every block
// is non-empty and ends in its only terminator; every register an
// instruction reads or writes (read_regs / writes_reg) is in range; branch
// targets name blocks of the function; calls name an existing function and
// pass exactly its argument count.
#pragma once

#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "support/budget.hpp"

namespace pp::ir {

/// Every defect class a module check reports: the structural rules here,
/// plus the dataflow and alignment passes of verify::verify_module.
enum class IssueCode : std::uint8_t {
  kNoBlocks,           ///< function has no basic blocks
  kBlockIdMismatch,    ///< block ids not 0..n-1 in order
  kEmptyBlock,         ///< block with no instructions
  kMissingTerminator,  ///< block does not end in a terminator
  kMidBlockTerminator, ///< terminator before the last instruction
  kBadBranchTarget,    ///< kBr/kBrCond target out of range
  kBadRegister,        ///< operand or destination register out of range
  kBadCallTarget,      ///< kCall to a nonexistent function
  kBadCallArity,       ///< kCall argument count != callee parameters
  kFunctionIdMismatch, ///< function ids not 0..n-1 in order
  kDuplicateFunctionName,  ///< two functions share a name
  kUseBeforeDef,       ///< register read without a definition on some path
  kMisalignedAccess,   ///< provably misaligned affine memory address
};
const char* issue_code_name(IssueCode c);

struct Issue {
  IssueCode code{};
  support::Severity severity = support::Severity::kError;
  int func = -1;  ///< position in Module::functions (its id when well-formed)
  int block = -1;
  int instr = -1;
  std::string message;  ///< self-contained human-readable description

  /// "[error] use-before-def: main b0 i0: r7 read but never defined"
  std::string str() const;
};

/// Most issues one module check collects; later ones are dropped.
inline constexpr std::size_t kMaxIssues = 256;

/// Checks the structural rules for the function at position `pos` of `m`,
/// its id and the uniqueness of its name included. Appends each violation
/// to `out` while `out` holds fewer than kMaxIssues. Returns whether the
/// function obeys every rule, whether or not `out` had room.
bool check_structure(const Module& m, std::size_t pos,
                     std::vector<Issue>& out);

}  // namespace pp::ir
