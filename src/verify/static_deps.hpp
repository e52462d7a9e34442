// Layer 2 of pp::verify: a conservative static may-dependence tester over
// the access functions pp::statican recovers. Two memory accesses may
// depend when the diophantine equation
//     base_x + sum(cx_l * v_l) + off_x  ==  base_y + sum(cy_l * w_l) + off_y
// (v, w independent copies of the IV values, bounded by the recovered loop
// ranges) may have a solution. Independence is only claimed when the GCD
// test or Banerjee-style interval bounds *prove* there is none; every
// unmodeled situation — any R/C/B/F/A/P reason on the access, unknown
// bases, unknown bounds — conservatively answers "may depend".
#pragma once

#include <map>

#include "statican/statican.hpp"

namespace pp::verify {

class MayDepSet {
 public:
  MayDepSet(const ir::Module& m, const ir::Function& f)
      : MayDepSet(statican::model_function(m, f)) {}
  explicit MayDepSet(statican::FunctionModel model);

  const statican::FunctionModel& model() const { return model_; }

  /// The access at (block, instr); nullptr when that site is not a memory
  /// instruction.
  const statican::AccessInfo* access(int block, int instr) const;
  /// Is (block, instr) a memory access that participates in static
  /// dependence testing (affine + reason-free block)?
  bool modeled(int block, int instr) const;

  /// Conservative aliasing: may `x` and `y` touch the same address?
  bool may_alias(const statican::AccessInfo& x,
                 const statican::AccessInfo& y) const;

  /// May there be a dependence between the two access sites? True unless
  /// both are loads (no dependence by definition) or the tester proves the
  /// addresses never coincide. Unmodeled sites answer true.
  bool may_depend(int src_block, int src_instr, int dst_block,
                  int dst_instr) const;

 private:
  statican::FunctionModel model_;
  std::map<std::pair<int, int>, std::size_t> by_site_;
};

}  // namespace pp::verify
