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
//   * distance/direction vectors per shared loop (classic '<'/'='/'>'),
//   * the three-way statement classification (statican::AccessClass): a
//     kStaticExact candidate keeps the class only when EVERY store-involved
//     pair it participates in is decided — otherwise it is downgraded to
//     kWeaklyDynamic,
//   * the module-wide selective-instrumentation plan: word-range overlap
//     components in which every (store, load) pair is proven independent
//     (see ddg/selective.hpp for the full byte-identity contract), and
//   * the deterministic "-- static precision --" report section.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ddg/selective.hpp"
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

const char* pair_verdict_name(PairVerdict v);

/// Distance/direction vector of a dependence over the loops shared by the
/// two accesses (ascending loop id — outermost first for builder-shaped
/// nests). dirs[i] is '<', '=', '>' when the sign of (dst IV - src IV) is
/// fixed over every dependent instance pair, '*' otherwise; dist[i] carries
/// the exact distance when it is unique.
struct DepVector {
  std::vector<int> loops;
  std::string dirs;
  std::vector<std::optional<i64>> dist;
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

  /// Distance/direction vector for a dependent (or possibly dependent)
  /// pair; nullopt when the pair is not statically comparable or proven
  /// independent.
  std::optional<DepVector> dep_vector(int src_block, int src_instr,
                                      int dst_block, int dst_instr) const;

  /// statican's classification refined by pairwise decidability: a
  /// kStaticExact candidate is downgraded to kWeaklyDynamic unless every
  /// store-involved pair with another memory site in the function is
  /// decided by the exact test.
  statican::AccessClass site_class(int block, int instr) const;

  struct Summary {
    int classes[3] = {0, 0, 0};  ///< indexed by statican::AccessClass
    u64 pairs = 0;               ///< distinct store-involved site pairs
    u64 independent = 0;
    u64 dependent = 0;
    u64 unknown = 0;
  };
  Summary summary() const;

 private:
  std::size_t index_of(int block, int instr) const;
  PairVerdict verdict_by_index(std::size_t i, std::size_t j) const;

  MayDepSet may_;
  mutable std::vector<PairVerdict> cache_;  ///< n*n matrix, lazily filled
  mutable std::vector<bool> cached_;
};

/// Module-wide selective-instrumentation plan (contract in
/// ddg/selective.hpp): dependence-free word-range overlap components of
/// reach-known accesses. Any access that is not reach-known — non-affine,
/// reasons on its block, argument base, or unknown IV bounds — poisons the
/// whole plan, because it could touch any address.
ddg::SelectivePlan compute_selective_plan(const ir::Module& m);

/// The deterministic "-- static precision --" report section: one line per
/// function with memory accesses (class counts + pair verdict counts) and
/// the selective-plan summary line. A pure function of the module — it
/// renders identically whether or not selective instrumentation ran.
std::string precision_section(const ir::Module& m);

}  // namespace pp::verify::exact
