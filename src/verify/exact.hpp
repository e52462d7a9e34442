// pp::verify::exact — exact static dependence analysis over the affine
// access functions pp::statican recovers (the precision tier above the
// GCD/Banerjee may-dep tester in static_deps.hpp).
//
// For a pair of accesses the dependence question is the integer system
//     sum(cx_l * v_l) + off_x  ==  sum(cy_l * w_l) + off_y
//     v, w inside the recovered IV ranges (omitted when unknown)
// over two INDEPENDENT copies of the induction variables. The Omega core
// (poly/omega.hpp) decides it exactly: kIndependent and kDependent are
// theorems; kUnknown means the effort cap tripped or the sites are not
// statically comparable (unmodeled, mixed bases) and callers must stay
// conservative.
//
// On top of the pair test sit
//   * the three-way statement classification (statican::AccessClass): a
//     kStaticExact candidate keeps the class only when EVERY store-involved
//     pair it participates in is decided — otherwise it is downgraded to
//     kWeaklyDynamic, and
//   * the deterministic "-- static precision --" report section.
//
// One run builds one ModuleDeps (one ExactDeps per function): the module
// verifier's alignment pass builds it, and the pipeline hands it to every
// consumer — the report's static sections and both oracle tiers that read
// static verdicts (dynamic ⊆ exact ⊆ may, verify/oracle.hpp). Each
// function is modeled once and each site pair Omega-tested at most once.
// Nothing here changes what stage 2 records: every memory access goes
// through shadow memory.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "poly/omega.hpp"
#include "verify/static_deps.hpp"

namespace pp::verify::exact {

enum class PairVerdict : std::uint8_t {
  /// Proven: no two instances of the sites ever touch the same address.
  kIndependent,
  /// An integer instance pair inside the (soundly over-approximated) IV
  /// ranges touches the same address — a dependence no may-tester can
  /// refute. Not a witness of execution: the ranges include the widened
  /// exit value and loops the model cannot see.
  kDependent,
  /// Not statically comparable (unmodeled site, mixed bases) or the Omega
  /// effort cap tripped.
  kUnknown,
};

/// Exact dependence information for one function. Construction is cheap
/// (one statican model); pair verdicts are Omega tests, memoized per pair.
class ExactDeps {
 public:
  ExactDeps(const ir::Module& m, const ir::Function& f);

  const MayDepSet& may() const { return may_; }
  const statican::FunctionModel& model() const { return may_.model(); }

  /// Exact verdict for two DISTINCT access sites (self pairs answer
  /// kUnknown: instance-distinctness needs enclosing-loop information the
  /// access function does not carry).
  PairVerdict pair_verdict(int src_block, int src_instr, int dst_block,
                           int dst_instr) const;

  /// statican's classification refined by pairwise decidability: a
  /// kStaticExact candidate is downgraded to kWeaklyDynamic unless every
  /// store-involved pair with another memory site in the function is
  /// decided by the exact test.
  statican::AccessClass site_class(int block, int instr) const;

  /// One sweep over the distinct store-involved site pairs, in program
  /// order. The may-tier fields compare the two static analyses on the
  /// pairs whose sites are both modeled (the oracle's precision tier).
  struct Summary {
    int classes[3] = {0, 0, 0};  ///< indexed by statican::AccessClass
    u64 pairs = 0;               ///< distinct store-involved site pairs
    u64 independent = 0;
    u64 dependent = 0;
    u64 unknown = 0;
    u64 modeled_pairs = 0;  ///< pairs with both sites modeled
    u64 refined = 0;  ///< may says may-alias, exact proves independent
    /// Modeled pairs the may-tester proves disjoint but the exact test
    /// finds dependent, as (src, dst) indices into model().accesses.
    std::vector<std::pair<std::size_t, std::size_t>> may_exact_mismatches;
  };
  Summary summary() const;

 private:
  std::size_t index_of(int block, int instr) const;
  PairVerdict verdict_by_index(std::size_t i, std::size_t j) const;

  MayDepSet may_;
  mutable std::vector<PairVerdict> cache_;  ///< n*n matrix, lazily filled
  mutable std::vector<bool> cached_;
};

/// The module's static dependence analysis: one ExactDeps per function,
/// indexed by function id (nullopt for functions the structural rules
/// reject). Built once per run, by verify_module; the verdict caches are
/// filled by whichever consumer asks first, so the answers do not depend
/// on consumer order.
using ModuleDeps = std::vector<std::optional<ExactDeps>>;

/// The deterministic "-- static precision --" report section: one line per
/// function with memory accesses (class counts + pair verdict counts). A
/// pure function of the module.
std::string precision_section(const ir::Module& m, const ModuleDeps& deps);

}  // namespace pp::verify::exact
