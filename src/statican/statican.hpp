// The static baseline of the paper's Experiment II: a Polly-like affine
// region modeler that works purely on the static IR (no execution). It
// attempts to prove a function is a static-control affine program and,
// when it fails, reports the paper's reason taxonomy:
//   R  unhandled function call
//   C  complex CFG (multiple returns / multi-exit loops)
//   B  non-affine loop bound or non-affine conditional
//   F  non-affine access function (includes pointer indirection)
//   A  unhandled possible pointer aliasing
//   P  base pointer not loop invariant
// This is what a static polyhedral compiler must reject, exactly the
// contrast POLY-PROF's dynamic analysis is designed to overcome.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cfg/loop_forest.hpp"
#include "ir/ir.hpp"

namespace pp::statican {

struct FunctionVerdict {
  int func = -1;
  bool affine_modeled = false;  ///< whole function modeled as affine SCoP
  std::set<char> reasons;       ///< failure letters (empty when modeled)
  /// Depth of the deepest loop nest whose whole region is free of failure
  /// reasons — the paper's "Polly was able to model some smaller
  /// subregions, 1D or 2D loop nests, in most benchmarks". 0 when no loop
  /// is modelable.
  int max_modeled_nest_depth = 0;
  int num_loops = 0;            ///< loops in the function's static forest
  int num_modeled_loops = 0;    ///< loops whose region carries no reason
};

/// Static (exact) CFG of a function — every edge in the code, executed or
/// not, unlike the dynamic CFGs of stage 1.
cfg::FunctionCfg static_cfg(const ir::Function& f);

/// Three-way classification of a memory access, the lattice pp::verify's
/// exact dependence analysis refines (Klimov's weakly-dynamic programs):
///   kStaticExact     affine access in a reason-free block — a candidate
///                    for provably exact static dependence information
///                    (verify::exact downgrades candidates whose pairwise
///                    dependence questions the integer test cannot decide)
///   kWeaklyDynamic   affine access whose environment is data-dependent
///                    but structurally sound: the block carries only
///                    B (non-affine bound/conditional) or C (complex CFG)
///   kDynamicRequired non-affine address, or a block with R/F/A/P — only
///                    dynamic profiling can see its dependences
enum class AccessClass : std::uint8_t {
  kStaticExact,
  kWeaklyDynamic,
  kDynamicRequired,
};

/// One statically recovered memory access (kLoad / kStore). The address is
/// modeled in *IV-value space*: addr = base + sum(coeffs[l] * iv_l) + offset
/// where iv_l is the runtime VALUE of loop l's canonical induction variable
/// (not its iteration count). For a global base the base address is folded
/// into `offset` (absolute addressing); for an argument base the offset is
/// relative to the unknown argument value.
struct AccessInfo {
  int block = -1;            ///< basic block id
  int instr = -1;            ///< index within the block
  bool is_store = false;
  /// Address fully recovered as base + affine(IVs). Accesses through
  /// non-affine arithmetic (or lost bases) have affine == false.
  bool affine = false;
  /// Affine AND the enclosing block carries no R/C/B/F/A/P reason — the
  /// access participates in static dependence testing.
  bool modeled = false;
  int base_arg = -1;         ///< argument index, or -1 for a global base
  i64 base_addr = 0;         ///< global base address (base_arg < 0)
  std::map<int, i64> coeffs; ///< loop id -> byte coefficient per IV value
  i64 offset = 0;            ///< constant byte term (absolute for globals)
  /// Static classification (see AccessClass). Computed purely from
  /// `affine` and the enclosing block's reasons — the exact dependence
  /// pass may further downgrade kStaticExact to kWeaklyDynamic.
  AccessClass cls = AccessClass::kDynamicRequired;
};

/// Recovered value range of a loop's canonical IV, inclusive. `hi` is
/// widened by one step so uses of the IV *after* the loop (its exit value)
/// stay inside the range; bounds are only a sound over-approximation of the
/// values the IV takes, which is all Banerjee-style testing needs.
struct LoopBounds {
  bool known = false;
  i64 lo = 0;
  i64 hi = 0;
};

/// Full static model of one function: the verdict plus everything a
/// dependence tester needs (access functions, IV ranges, per-block failure
/// attribution).
struct FunctionModel {
  FunctionVerdict verdict;
  std::vector<AccessInfo> accesses;           ///< program order
  std::map<int, LoopBounds> bounds;           ///< loop id -> IV value range
  std::map<int, std::set<char>> block_reasons;
};

/// Try to model one function as an affine program.
FunctionVerdict analyze_function(const ir::Module& m, const ir::Function& f);

/// Like analyze_function, but also exposes the recovered access functions
/// and loop bounds (the raw material for pp::verify's static dependence
/// tester).
FunctionModel model_function(const ir::Module& m, const ir::Function& f);

/// Region verdict: union of the verdicts of all functions in the region
/// (the paper inlines kernels so Polly sees the same region; calls to
/// functions outside the set still count as 'R').
std::set<char> analyze_region(const ir::Module& m,
                              const std::vector<int>& funcs);

/// "RCBF"-style rendering in the paper's canonical letter order.
std::string reasons_str(const std::set<char>& reasons);

}  // namespace pp::statican
