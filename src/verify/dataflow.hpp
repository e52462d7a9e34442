// The analysis framework under pp::verify: a reverse-postorder block graph
// over the *static* CFG of a function and a small forward bit-vector
// dataflow engine with the two instances the verifier and the soundness
// oracle need — reaching definitions (may) and must-defined registers
// (must, the dominance-based def-before-use check).
//
// Everything here assumes the function already obeys the structural rules
// (ir/wellformed.hpp: non-empty blocks, single trailing terminator, branch
// targets and registers in range); run verify_module first on untrusted IR.
// Operand roles come from ir::read_regs / ir::writes_reg.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "ir/ir.hpp"

namespace pp::verify {

/// Dense fixed-size bit vector (the dataflow lattice element).
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n, bool ones = false)
      : n_(n), w_((n + 63) / 64, ones ? ~u64{0} : u64{0}) {
    trim();
  }

  std::size_t size() const { return n_; }
  void set(std::size_t i) { w_[i >> 6] |= u64{1} << (i & 63); }
  void reset(std::size_t i) { w_[i >> 6] &= ~(u64{1} << (i & 63)); }
  bool test(std::size_t i) const { return (w_[i >> 6] >> (i & 63)) & 1; }

  /// this |= o. Returns true when any bit changed.
  bool union_with(const BitVec& o);
  /// this &= o. Returns true when any bit changed.
  bool intersect_with(const BitVec& o);
  /// this = (this & ~kill) | gen (the standard transfer function).
  void transfer(const BitVec& gen, const BitVec& kill);

  bool operator==(const BitVec& o) const = default;

 private:
  void trim() {
    if (n_ % 64 != 0 && !w_.empty()) w_.back() &= (u64{1} << (n_ % 64)) - 1;
  }
  std::size_t n_ = 0;
  std::vector<u64> w_;
};

/// Adjacency of one function's static CFG, by block id, plus a reverse
/// postorder of the blocks reachable from the entry.
struct BlockGraph {
  explicit BlockGraph(const ir::Function& f);

  std::vector<std::vector<int>> succs;
  std::vector<std::vector<int>> preds;
  std::vector<int> rpo;        ///< reachable blocks, reverse postorder
  std::vector<int> rpo_index;  ///< block -> rpo position, -1 if unreachable

  bool reachable(int b) const {
    return b >= 0 && static_cast<std::size_t>(b) < rpo_index.size() &&
           rpo_index[static_cast<std::size_t>(b)] >= 0;
  }
  std::size_t num_blocks() const { return succs.size(); }
};

/// A forward iterative bit-vector dataflow problem over a BlockGraph.
struct DataflowProblem {
  bool intersect = false;  ///< meet: false = union (may), true = must
  std::size_t bits = 0;
  std::vector<BitVec> gen;   ///< per block id
  std::vector<BitVec> kill;  ///< per block id
  BitVec boundary;           ///< IN[entry]
};

struct DataflowResult {
  std::vector<BitVec> in;   ///< value before the block's first instruction
  std::vector<BitVec> out;  ///< value after the block's terminator
};

/// Round-robin iteration over reverse postorder to a fixpoint.
DataflowResult solve_dataflow(const BlockGraph& g, const DataflowProblem& p);

/// One definition site. `instr == -1` marks the entry pseudo-definition of
/// an argument register.
struct DefSite {
  int block = -1;
  int instr = -1;
  ir::Reg reg = ir::kNoReg;
};

/// Reaching definitions (may, forward).
class ReachingDefs {
 public:
  ReachingDefs(const ir::Function& f, const BlockGraph& g);

  const std::vector<DefSite>& defs() const { return defs_; }
  /// May the definition written by instruction (def_block, def_instr)
  /// reach the program point just BEFORE instruction (use_block,
  /// use_instr)? False when that instruction defines nothing.
  bool def_reaches(int def_block, int def_instr, int use_block,
                   int use_instr) const;

 private:
  bool reaches(std::size_t d, int use_block, int use_instr) const;

  const ir::Function& func_;
  std::vector<DefSite> defs_;
  std::map<std::pair<int, int>, std::size_t> by_site_;
  DataflowResult sol_;
};

/// Must-defined registers (must, forward): the dominance-based
/// def-before-use verdict. A register is "defined before" a point when
/// every path from the entry to that point writes it first; arguments
/// count as defined at entry.
class MustDefined {
 public:
  MustDefined(const ir::Function& f, const BlockGraph& g);
  /// Is `r` defined on every path reaching the point just before
  /// instruction `instr` of `block`? Unreachable blocks are vacuously true.
  bool defined_before(int block, int instr, ir::Reg r) const;

 private:
  const ir::Function& func_;
  const BlockGraph& graph_;
  DataflowResult sol_;
};

}  // namespace pp::verify
