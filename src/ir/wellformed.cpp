#include "ir/wellformed.hpp"

#include <sstream>

namespace pp::ir {

const char* issue_code_name(IssueCode c) {
  switch (c) {
    case IssueCode::kNoBlocks: return "no-blocks";
    case IssueCode::kBlockIdMismatch: return "block-id-mismatch";
    case IssueCode::kEmptyBlock: return "empty-block";
    case IssueCode::kMissingTerminator: return "missing-terminator";
    case IssueCode::kMidBlockTerminator: return "mid-block-terminator";
    case IssueCode::kBadBranchTarget: return "dangling-branch-target";
    case IssueCode::kBadRegister: return "register-out-of-range";
    case IssueCode::kBadCallTarget: return "bad-call-target";
    case IssueCode::kBadCallArity: return "call-arity-mismatch";
    case IssueCode::kFunctionIdMismatch: return "function-id-mismatch";
    case IssueCode::kDuplicateFunctionName: return "duplicate-function-name";
    case IssueCode::kUseBeforeDef: return "use-before-def";
    case IssueCode::kMisalignedAccess: return "misaligned-access";
  }
  return "?";
}

std::string Issue::str() const {
  std::ostringstream os;
  os << "[" << support::severity_name(severity) << "] "
     << issue_code_name(code) << ": " << message;
  return os.str();
}

bool check_structure(const Module& m, std::size_t pos,
                     std::vector<Issue>& out) {
  const Function& f = m.functions[pos];
  bool ok = true;
  auto error = [&](IssueCode code, int block, int instr,
                   const std::string& msg) {
    ok = false;
    if (out.size() >= kMaxIssues) return;
    std::ostringstream os;
    os << f.name;
    if (block >= 0) os << " b" << block;
    if (instr >= 0) os << " i" << instr;
    os << ": " << msg;
    out.push_back(Issue{code, support::Severity::kError,
                        static_cast<int>(pos), block, instr, os.str()});
  };

  if (f.id != static_cast<int>(pos))
    error(IssueCode::kFunctionIdMismatch, -1, -1,
          "function id " + std::to_string(f.id) + " at position " +
              std::to_string(pos));
  for (std::size_t j = 0; j < pos; ++j) {
    if (m.functions[j].name != f.name) continue;
    error(IssueCode::kDuplicateFunctionName, -1, -1,
          "name also used by the function at position " + std::to_string(j));
    break;
  }
  if (f.blocks.empty()) {
    error(IssueCode::kNoBlocks, -1, -1, "function has no blocks");
    return false;
  }
  auto regs = [&] {
    return " (" + std::to_string(f.num_regs) + " registers)";
  };
  auto bad_reg = [&](Reg r) { return r < 0 || r >= f.num_regs; };
  for (std::size_t b = 0; b < f.blocks.size(); ++b) {
    const BasicBlock& bb = f.blocks[b];
    if (bb.id != static_cast<int>(b))
      error(IssueCode::kBlockIdMismatch, static_cast<int>(b), -1,
            "block id " + std::to_string(bb.id) + " at position " +
                std::to_string(b));
    if (bb.instrs.empty()) {
      error(IssueCode::kEmptyBlock, bb.id, -1, "block has no instructions");
      continue;
    }
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      const Instr& in = bb.instrs[i];
      const int ii = static_cast<int>(i);
      const bool last = i + 1 == bb.instrs.size();
      if (last && !op_is_terminator(in.op))
        error(IssueCode::kMissingTerminator, bb.id, ii,
              std::string("block ends in ") + op_name(in.op) +
                  ", not a terminator");
      if (!last && op_is_terminator(in.op))
        error(IssueCode::kMidBlockTerminator, bb.id, ii,
              std::string(op_name(in.op)) + " before end of block");
      if (writes_reg(in) && bad_reg(in.dst))
        error(IssueCode::kBadRegister, bb.id, ii,
              "destination r" + std::to_string(in.dst) + " out of range" +
                  regs());
      for (Reg r : read_regs(in))
        if (bad_reg(r))
          error(IssueCode::kBadRegister, bb.id, ii,
                "operand r" + std::to_string(r) + " out of range" + regs());
      auto check_target = [&](i64 t) {
        if (t < 0 || static_cast<std::size_t>(t) >= f.blocks.size())
          error(IssueCode::kBadBranchTarget, bb.id, ii,
                "branch target bb" + std::to_string(t) + " (" +
                    std::to_string(f.blocks.size()) + " blocks)");
      };
      if (in.op == Op::kBr || in.op == Op::kBrCond) check_target(in.imm);
      if (in.op == Op::kBrCond) check_target(in.imm2);
      if (in.op == Op::kCall) {
        if (in.imm < 0 ||
            static_cast<std::size_t>(in.imm) >= m.functions.size()) {
          error(IssueCode::kBadCallTarget, bb.id, ii,
                "call to nonexistent function " + std::to_string(in.imm));
        } else {
          const Function& callee =
              m.functions[static_cast<std::size_t>(in.imm)];
          if (static_cast<int>(in.args.size()) != callee.num_args)
            error(IssueCode::kBadCallArity, bb.id, ii,
                  "call to " + callee.name + " with " +
                      std::to_string(in.args.size()) + " args, expects " +
                      std::to_string(callee.num_args));
        }
      }
    }
  }
  return ok;
}

void verify(const Module& m) {
  std::vector<Issue> issues;
  for (std::size_t pos = 0; pos < m.functions.size(); ++pos)
    if (!check_structure(m, pos, issues))
      fatal("verify: " + issues.front().str());
}

}  // namespace pp::ir
