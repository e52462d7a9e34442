// Layer 1 of pp::verify: the module verifier. Reports every violation of
// the structural rules every downstream stage assumes (ir/wellformed.hpp:
// function and block ids, terminators, branch targets, registers, call
// sites, unique function names), then — per function, structure
// permitting — the dominance-based def-before-use property via the
// must-defined dataflow, and 8-byte alignment of every load/store whose
// address statican can model as an affine function.
//
// The alignment pass builds the module's static dependence analysis
// (exact::ModuleDeps) and the report keeps it: the pipeline hands it to
// full_report's static sections and the soundness oracle, so each function
// is modeled once per run.
//
// Unlike ir::verify (throw on the first violation of the same structural
// rules), this verifier never throws: it collects typed issues so the
// pipeline can reject an ill-formed module with a structured diagnostic,
// and so the mutation tests can assert the exact defect class detected.
#pragma once

#include <string>
#include <vector>

#include "ir/wellformed.hpp"
#include "verify/exact.hpp"

namespace pp::verify {

using ir::Issue;
using ir::IssueCode;
using ir::issue_code_name;

struct VerifyReport {
  std::vector<Issue> issues;  ///< at most ir::kMaxIssues
  /// The static analysis the alignment pass built: one ExactDeps per
  /// function that obeys the structural rules, by function position
  /// (nullopt for the others). Covers every function when ok().
  exact::ModuleDeps deps;

  /// No error-severity issues (info/warn do not reject a module).
  bool ok() const;
  bool has(IssueCode c) const;
  std::size_t count(IssueCode c) const;
  /// One line per issue, insertion order.
  std::string str() const;
  /// Mirror every issue into a DiagnosticLog under Stage::kVerify.
  void to_log(support::DiagnosticLog& log) const;
};

/// Verify the whole module. Never throws; never executes anything.
VerifyReport verify_module(const ir::Module& m);

}  // namespace pp::verify
