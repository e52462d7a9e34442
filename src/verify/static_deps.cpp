#include "verify/static_deps.hpp"

#include <cstdlib>
#include <numeric>
#include <vector>

namespace pp::verify {

using statican::AccessInfo;
using statican::LoopBounds;

MayDepSet::MayDepSet(statican::FunctionModel model) : model_(std::move(model)) {
  for (std::size_t i = 0; i < model_.accesses.size(); ++i)
    by_site_[{model_.accesses[i].block, model_.accesses[i].instr}] = i;
}

const AccessInfo* MayDepSet::access(int block, int instr) const {
  auto it = by_site_.find({block, instr});
  return it == by_site_.end() ? nullptr : &model_.accesses[it->second];
}

bool MayDepSet::modeled(int block, int instr) const {
  const AccessInfo* a = access(block, instr);
  return a != nullptr && a->modeled;
}

bool MayDepSet::may_alias(const AccessInfo& x, const AccessInfo& y) const {
  if (!x.modeled || !y.modeled) return true;  // fall back to "may"

  // Bases: both global (absolute addressing, base folded into offset), or
  // the SAME argument (base cancels). Mixed/unrelated bases cannot be
  // compared statically.
  if (x.base_arg >= 0 || y.base_arg >= 0) {
    if (x.base_arg != y.base_arg) return true;
  }

  // Equation sum(cx_l * v_l) - sum(cy_l * w_l) = -(off_x - off_y) over the
  // two independent IV copies.
  i64 konst = x.offset - y.offset;
  struct Term {
    i64 coeff;
    int loop;
  };
  std::vector<Term> terms;
  for (const auto& [l, c] : x.coeffs)
    if (c != 0) terms.push_back({c, l});
  for (const auto& [l, c] : y.coeffs)
    if (c != 0) terms.push_back({-c, l});

  if (terms.empty()) return konst == 0;  // two fixed addresses

  // GCD test: a solution needs gcd(coeffs) | konst.
  i64 g = 0;
  for (const Term& t : terms) g = std::gcd(g, std::abs(t.coeff));
  if (g != 0 && konst % g != 0) return false;

  // Banerjee-style interval test: when every involved IV has a recovered
  // value range, bound sum(c_i * v_i) and check -konst falls inside.
  i64 lo = 0, hi = 0;
  for (const Term& t : terms) {
    auto it = model_.bounds.find(t.loop);
    if (it == model_.bounds.end() || !it->second.known) return true;
    const LoopBounds& b = it->second;
    if (t.coeff > 0) {
      lo += t.coeff * b.lo;
      hi += t.coeff * b.hi;
    } else {
      lo += t.coeff * b.hi;
      hi += t.coeff * b.lo;
    }
  }
  i64 target = -konst;
  if (target < lo || target > hi) return false;

  return true;  // no test proved independence
}

bool MayDepSet::may_depend(int src_block, int src_instr, int dst_block,
                           int dst_instr) const {
  const AccessInfo* x = access(src_block, src_instr);
  const AccessInfo* y = access(dst_block, dst_instr);
  if (x == nullptr || y == nullptr) return true;  // not memory: stay safe
  if (!x->is_store && !y->is_store) return false;  // load-load: no dep
  return may_alias(*x, *y);
}

}  // namespace pp::verify
