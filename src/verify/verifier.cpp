#include "verify/verifier.hpp"

#include <sstream>

#include "verify/dataflow.hpp"

namespace pp::verify {

using ir::Function;
using ir::Module;
using ir::Reg;

bool VerifyReport::ok() const {
  for (const auto& i : issues)
    if (i.severity == support::Severity::kError) return false;
  return true;
}

bool VerifyReport::has(IssueCode c) const { return count(c) > 0; }

std::size_t VerifyReport::count(IssueCode c) const {
  std::size_t n = 0;
  for (const auto& i : issues)
    if (i.code == c) ++n;
  return n;
}

std::string VerifyReport::str() const {
  std::string out;
  for (const auto& i : issues) {
    out += i.str();
    out += '\n';
  }
  return out;
}

void VerifyReport::to_log(support::DiagnosticLog& log) const {
  for (const auto& i : issues)
    log.add(i.severity, support::Stage::kVerify,
            std::string(issue_code_name(i.code)) + ": " + i.message);
}

namespace {

class Verifier {
 public:
  explicit Verifier(const Module& m) : m_(m) {}

  VerifyReport run() {
    report_.deps.resize(m_.functions.size());
    for (std::size_t pos = 0; pos < m_.functions.size(); ++pos) {
      // Dataflow and alignment need a well-formed CFG to traverse.
      if (!ir::check_structure(m_, pos, report_.issues)) continue;
      const Function& f = m_.functions[pos];
      check_def_before_use(f);
      check_alignment(f, report_.deps[pos].emplace(m_, f));
    }
    return std::move(report_);
  }

 private:
  bool full() const { return report_.issues.size() >= ir::kMaxIssues; }

  void add(IssueCode code, support::Severity sev, const Function& f, int block,
           int instr, std::string msg) {
    if (full()) return;
    std::ostringstream os;
    os << f.name;
    if (block >= 0) os << " b" << block;
    if (instr >= 0) os << " i" << instr;
    os << ": " << msg;
    report_.issues.push_back(
        Issue{code, sev, f.id, block, instr, os.str()});
  }
  void error(IssueCode code, const Function& f, int block, int instr,
             std::string msg) {
    add(code, support::Severity::kError, f, block, instr, std::move(msg));
  }

  // Def-before-use along ALL paths: must-defined registers at every use.
  void check_def_before_use(const Function& f) {
    BlockGraph g(f);
    MustDefined md(f, g);
    for (const auto& bb : f.blocks) {
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        for (Reg r : ir::read_regs(bb.instrs[i])) {
          if (full()) return;
          if (!md.defined_before(bb.id, static_cast<int>(i), r))
            error(IssueCode::kUseBeforeDef, f, bb.id, static_cast<int>(i),
                  "r" + std::to_string(r) +
                      " read but not defined on every path from entry");
        }
      }
    }
  }

  // Alignment of statically modeled affine accesses: the VM requires every
  // effective address to be 8-byte aligned; when statican recovers the
  // whole access function we can prove (or refute) that statically.
  void check_alignment(const Function& f, const exact::ExactDeps& deps) {
    for (const auto& acc : deps.model().accesses) {
      if (!acc.affine || acc.base_arg >= 0) continue;  // unknown arg alignment
      bool coeffs_aligned = true;
      for (const auto& [loop, c] : acc.coeffs)
        if (c % 8 != 0) coeffs_aligned = false;
      if (full()) return;
      if (coeffs_aligned && acc.offset % 8 != 0) {
        error(IssueCode::kMisalignedAccess, f, acc.block, acc.instr,
              "affine address = " + std::to_string(acc.offset) +
                  " + 8k*IVs is provably not 8-byte aligned");
      } else if (!coeffs_aligned) {
        // Some IV assignment may misalign the address; the VM still checks
        // at runtime, so this is informational.
        add(IssueCode::kMisalignedAccess, support::Severity::kInfo, f,
            acc.block, acc.instr,
            "affine address has a non-multiple-of-8 IV coefficient; "
            "alignment depends on IV values");
      }
    }
  }

  const Module& m_;
  VerifyReport report_;
};

}  // namespace

VerifyReport verify_module(const Module& m) {
  return Verifier(m).run();
}

}  // namespace pp::verify
