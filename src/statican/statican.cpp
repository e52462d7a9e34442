#include "statican/statican.hpp"

#include <functional>
#include <map>
#include <optional>

namespace pp::statican {

namespace {

using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Op;
using ir::Reg;

// Abstract value for the lightweight static dataflow:
//  - kConst: known integer constant;
//  - kAffine: affine in the loop induction variables (coeff per loop id);
//  - kPointer: known base symbol + affine offset. Bases are either a
//    constant address (global) or a function argument.
//  - kOpaque: anything else (loaded values, FP, multi-defined registers).
struct AbsVal {
  enum class Kind { kOpaque, kConst, kAffine } kind = Kind::kOpaque;
  i64 konst = 0;
  std::map<int, i64> coeffs;  ///< loop id -> coefficient (kAffine)
  // Pointer-base attribute, orthogonal to the numeric kind: a value can be
  // simultaneously an affine expression and a valid access base (global
  // address + affine offset, or argument + affine offset).
  bool has_base = false;
  int base_arg = -1;   ///< argument index, or -1 for a global/constant base
  i64 base_addr = 0;

  static AbsVal opaque() { return {}; }
  static AbsVal constant(i64 v) {
    AbsVal a;
    a.kind = Kind::kConst;
    a.konst = v;
    return a;
  }
  bool is_affine_like() const {
    return kind == Kind::kConst || kind == Kind::kAffine;
  }
};

struct Analysis {
  const Module& module;
  const Function& func;
  cfg::FunctionCfg cfg;
  cfg::LoopForest forest;
  std::map<Reg, int> iv_of_reg;        ///< register -> loop id (canonical IV)
  std::map<Reg, std::vector<const Instr*>> defs;
  std::map<int, std::vector<std::pair<int, const Instr*>>> instrs_by_block;
  std::set<char> reasons;
  std::map<int, std::set<char>> block_reasons;  ///< per-block attribution
  std::map<Reg, AbsVal> env;

  void flag(char reason, int bb) {
    reasons.insert(reason);
    block_reasons[bb].insert(reason);
  }

  explicit Analysis(const Module& m, const Function& f)
      : module(m), func(f), cfg(static_cfg(f)), forest(cfg) {}
};

// Which loop (id) contains basic block `bb` innermost; -1 if none.
int innermost_loop(const Analysis& a, int bb) {
  return a.forest.innermost_loop(bb);
}

// Collect definitions of each register.
void collect_defs(Analysis& a) {
  for (const auto& bb : a.func.blocks) {
    for (const auto& in : bb.instrs)
      if (ir::writes_reg(in)) a.defs[in.dst].push_back(&in);
  }
}

// Identify canonical induction variables: a register with exactly one
// self-increment (addi r, c, r) inside loop L and all other defs outside L.
// A register that qualifies for two different loops is ambiguous (its
// abstract value would conflate distinct iteration spaces) and is dropped.
void find_ivs(Analysis& a) {
  std::map<Reg, std::set<int>> candidates;
  for (const auto& bb : a.func.blocks) {
    int loop = innermost_loop(a, bb.id);
    if (loop < 0) continue;
    for (const auto& in : bb.instrs) {
      if (in.op != Op::kAddI || in.dst != in.a) continue;
      // Check the other defs: all outside this loop's region.
      bool ok = true;
      for (const Instr* d : a.defs[in.dst]) {
        if (d == &in) continue;
        // Find the defining block.
        for (const auto& dbb : a.func.blocks) {
          for (const auto& di : dbb.instrs) {
            if (&di == d &&
                a.forest.loop(loop).blocks.count(dbb.id) != 0)
              ok = false;
          }
        }
      }
      if (ok) candidates[in.dst].insert(loop);
    }
  }
  for (const auto& [r, loops] : candidates)
    if (loops.size() == 1) a.iv_of_reg[r] = *loops.begin();
}

AbsVal lookup(Analysis& a, Reg r) {
  auto iv = a.iv_of_reg.find(r);
  if (iv != a.iv_of_reg.end()) {
    AbsVal v;
    v.kind = AbsVal::Kind::kAffine;
    v.coeffs[iv->second] = 1;
    return v;
  }
  auto it = a.env.find(r);
  return it == a.env.end() ? AbsVal::opaque() : it->second;
}

AbsVal add_vals(const AbsVal& x, const AbsVal& y, int sign) {
  if (x.kind == AbsVal::Kind::kOpaque || y.kind == AbsVal::Kind::kOpaque)
    return AbsVal::opaque();
  if (x.has_base && y.has_base) return AbsVal::opaque();  // ptr + ptr
  AbsVal out;
  out.kind = (x.kind == AbsVal::Kind::kConst && y.kind == AbsVal::Kind::kConst)
                 ? AbsVal::Kind::kConst
                 : AbsVal::Kind::kAffine;
  const AbsVal* based = x.has_base ? &x : (y.has_base ? &y : nullptr);
  if (based) {
    out.has_base = true;
    out.base_arg = based->base_arg;
    out.base_addr = based->base_addr;
  }
  out.konst = x.konst + sign * y.konst;
  out.coeffs = x.coeffs;
  for (const auto& [l, c] : y.coeffs) out.coeffs[l] += sign * c;
  return out;
}

AbsVal mul_vals(const AbsVal& x, const AbsVal& y) {
  // Affine x Const or Const x Affine only; scaling a pointer base is not
  // meaningful, so the base attribute is dropped.
  auto scaled = [](const AbsVal& v, i64 s) {
    AbsVal out = v;
    out.konst *= s;
    for (auto& [l, c] : out.coeffs) c *= s;
    out.has_base = false;
    return out;
  };
  // A known constant scales an affine value even if the constant happens
  // to fall inside the data segment (numeric use of a small integer).
  if (x.kind == AbsVal::Kind::kConst && y.is_affine_like())
    return scaled(y, x.konst);
  if (y.kind == AbsVal::Kind::kConst && x.is_affine_like())
    return scaled(x, y.konst);
  return AbsVal::opaque();
}

// Evaluate one instruction into the abstract environment; flag reasons.
void eval_instr(Analysis& a, const ir::BasicBlock& bb, const Instr& in) {
  int loop = innermost_loop(a, bb.id);
  auto set = [&](AbsVal v) {
    // Multi-defined registers that are not IVs collapse to opaque, unless
    // every def is the same constant-ish shape; keep it simple: if this is
    // a second def with a different kind, go opaque.
    if (a.iv_of_reg.count(in.dst)) return;  // IVs handled separately
    if (a.defs[in.dst].size() > 1) {
      a.env[in.dst] = AbsVal::opaque();
      return;
    }
    a.env[in.dst] = std::move(v);
  };
  switch (in.op) {
    case Op::kConst: {
      AbsVal v = AbsVal::constant(in.imm);
      // A constant inside the data segment doubles as a pointer base.
      if (in.imm >= 0 && in.imm < a.module.data_segment_size) {
        v.has_base = true;
        v.base_arg = -1;
        v.base_addr = in.imm;
      }
      set(v);
      break;
    }
    case Op::kMov:
      set(lookup(a, in.a));
      break;
    case Op::kAdd:
      set(add_vals(lookup(a, in.a), lookup(a, in.b), +1));
      break;
    case Op::kSub:
      set(add_vals(lookup(a, in.a), lookup(a, in.b), -1));
      break;
    case Op::kAddI:
      set(add_vals(lookup(a, in.a), AbsVal::constant(in.imm), +1));
      break;
    case Op::kMul:
      set(mul_vals(lookup(a, in.a), lookup(a, in.b)));
      break;
    case Op::kMulI:
      set(mul_vals(lookup(a, in.a), AbsVal::constant(in.imm)));
      break;
    case Op::kLoad: {
      AbsVal addr = lookup(a, in.a);
      if (!addr.has_base) a.flag('F', bb.id);
      if (loop >= 0 && addr.has_base) {
        // Base defined by a multi-def register inside the loop => 'P'.
        if (a.defs[in.a].size() > 1 && !a.iv_of_reg.count(in.a)) {
          bool defined_in_loop = false;
          for (const auto& dbb : a.func.blocks) {
            if (a.forest.loop(loop).blocks.count(dbb.id) == 0) continue;
            for (const auto& di : dbb.instrs)
              if (di.dst == in.a && &di != &in) defined_in_loop = true;
          }
          if (defined_in_loop) a.flag('P', bb.id);
        }
      }
      set(AbsVal::opaque());  // loaded values are unknown statically
      break;
    }
    case Op::kStore: {
      AbsVal addr = lookup(a, in.a);
      if (!addr.has_base) a.flag('F', bb.id);
      break;
    }
    case Op::kCall:
      a.flag('R', bb.id);
      if (in.dst != ir::kNoReg) set(AbsVal::opaque());
      break;
    case Op::kBrCond: {
      // Affine conditions only: both compare operands must be affine. The
      // compare itself produced a boolean; look through it.
      const Instr* cmp = nullptr;
      for (const Instr* d : a.defs[in.a])
        cmp = d;  // last textual def; fine for single-def compares
      if (!cmp || a.defs[in.a].size() != 1) {
        a.flag('B', bb.id);
        break;
      }
      AbsVal l = lookup(a, cmp->a);
      AbsVal r = lookup(a, cmp->b);
      if (!l.is_affine_like() || !r.is_affine_like()) a.flag('B', bb.id);
      break;
    }
    case Op::kDiv:
    case Op::kRem:
    case Op::kShr:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      set(AbsVal::opaque());
      break;
    default:
      if (in.dst != ir::kNoReg && !ir::op_is_terminator(in.op))
        set(AbsVal::opaque());
      break;
  }
}

// Record every kLoad/kStore with whatever affine structure the abstract
// environment recovered for its address. Uses the final environment, which
// is sound because multi-defined non-IV registers have already collapsed to
// opaque.
void collect_accesses(Analysis& a, FunctionModel& out) {
  for (const auto& bb : a.func.blocks) {
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      const Instr& in = bb.instrs[i];
      if (!ir::op_is_memory(in.op)) continue;
      AccessInfo acc;
      acc.block = bb.id;
      acc.instr = static_cast<int>(i);
      acc.is_store = in.op == Op::kStore;
      AbsVal addr = lookup(a, in.a);
      if (addr.has_base && addr.base_arg >= 0) {
        // Direct argument base: numeric value unknown, but the offset
        // relative to the argument is the constant displacement.
        acc.affine = true;
        acc.base_arg = addr.base_arg;
        acc.offset = in.imm;
      } else if (addr.has_base && addr.is_affine_like()) {
        // Global base: konst already contains the absolute base address.
        acc.affine = true;
        acc.base_arg = -1;
        acc.base_addr = addr.base_addr;
        acc.coeffs = addr.coeffs;
        acc.offset = addr.konst + in.imm;
      }
      out.accesses.push_back(std::move(acc));
    }
  }
}

// Recover the IV value range of each canonical counted loop: `lo` from the
// single out-of-loop kConst def, the step from the in-loop self-increment,
// `hi` from a header guard `brcond (cmplt|cmple iv, n)` with a constant
// bound and an exiting target. `hi` is widened by one step so the IV's exit
// value (visible to code after the loop) stays inside the range; the range
// is an over-approximation of the values the IV takes, which is all a
// Banerjee-style test needs.
void recover_bounds(Analysis& a, FunctionModel& out) {
  for (const auto& [reg, loopid] : a.iv_of_reg) {
    const cfg::Loop& loop = a.forest.loop(loopid);
    const Instr* self_inc = nullptr;
    i64 step = 0;
    for (int blk : loop.blocks) {
      for (const auto& in : a.func.block(blk).instrs) {
        if (in.op == Op::kAddI && in.dst == reg && in.a == reg) {
          self_inc = &in;
          step = in.imm;
        }
      }
    }
    if (!self_inc || step <= 0) continue;
    const Instr* init = nullptr;
    int other_defs = 0;
    for (const Instr* d : a.defs[reg]) {
      if (d == self_inc) continue;
      ++other_defs;
      init = d;
    }
    if (other_defs != 1 || init->op != Op::kConst) continue;
    const auto& hdr = a.func.block(loop.header);
    if (hdr.instrs.empty()) continue;
    const Instr& t = hdr.instrs.back();
    if (t.op != Op::kBrCond || a.defs[t.a].size() != 1) continue;
    const Instr* cmp = a.defs[t.a][0];
    if ((cmp->op != Op::kCmpLt && cmp->op != Op::kCmpLe) || cmp->a != reg)
      continue;
    AbsVal bound = lookup(a, cmp->b);
    if (bound.kind != AbsVal::Kind::kConst) continue;
    bool exits = loop.blocks.count(static_cast<int>(t.imm)) == 0 ||
                 loop.blocks.count(static_cast<int>(t.imm2)) == 0;
    if (!exits) continue;
    i64 hi = (cmp->op == Op::kCmpLt ? bound.konst - 1 : bound.konst) + step;
    LoopBounds b;
    b.known = true;
    b.lo = init->imm;
    b.hi = std::max(b.lo, hi);
    out.bounds[loopid] = b;
  }
}

}  // namespace

cfg::FunctionCfg static_cfg(const ir::Function& f) {
  cfg::FunctionCfg out;
  out.func = f.id;
  out.entry = 0;
  for (const auto& bb : f.blocks) {
    out.blocks.add_node(bb.id);
    if (bb.instrs.empty()) continue;
    const Instr& t = bb.instrs.back();
    if (t.op == Op::kBr) {
      out.blocks.add_edge(bb.id, static_cast<int>(t.imm));
    } else if (t.op == Op::kBrCond) {
      out.blocks.add_edge(bb.id, static_cast<int>(t.imm));
      out.blocks.add_edge(bb.id, static_cast<int>(t.imm2));
    }
  }
  return out;
}

FunctionVerdict analyze_function(const ir::Module& m, const ir::Function& f) {
  return model_function(m, f).verdict;
}

FunctionModel model_function(const ir::Module& m, const ir::Function& f) {
  Analysis a(m, f);
  collect_defs(a);
  find_ivs(a);

  // Seed: pointer-valued arguments. Any argument *may* be a pointer; two
  // or more arguments used as access bases cannot be proven distinct.
  for (int arg = 0; arg < f.num_args; ++arg) {
    AbsVal v;
    v.kind = AbsVal::Kind::kOpaque;  // unknown numeric value...
    v.has_base = true;               // ...but usable as an access base
    v.base_arg = arg;
    a.env[arg] = v;
  }

  // CFG complexity: more than one return, or a loop with several distinct
  // exit targets (break-like control).
  int rets = 0;
  for (const auto& bb : f.blocks)
    for (const auto& in : bb.instrs)
      if (in.op == Op::kRet) ++rets;
  if (rets > 1) a.reasons.insert('C');
  for (const auto& loop : a.forest.loops()) {
    // Count exiting EDGES, not distinct targets: two breaks converging on
    // the same join block are still break-like control flow.
    std::set<std::pair<int, int>> exits;
    for (int b : loop.blocks)
      for (int s : a.cfg.blocks.succs(b))
        if (loop.blocks.count(s) == 0) exits.insert({b, s});
    if (exits.size() > 1) a.flag('C', loop.header);
  }

  // Single forward pass (registers are near-SSA in builder output; multi-
  // defined registers other than IVs collapse to opaque conservatively).
  for (const auto& bb : f.blocks)
    for (const auto& in : bb.instrs) eval_instr(a, bb, in);

  // Aliasing: memory accessed through two or more distinct argument bases.
  std::set<int> arg_bases;
  std::set<int> arg_access_blocks;
  for (const auto& bb : f.blocks) {
    for (const auto& in : bb.instrs) {
      if (!ir::op_is_memory(in.op)) continue;
      AbsVal addr = lookup(a, in.a);
      if (addr.has_base && addr.base_arg >= 0) {
        arg_bases.insert(addr.base_arg);
        arg_access_blocks.insert(bb.id);
      }
    }
  }
  if (arg_bases.size() >= 2) {
    a.reasons.insert('A');
    for (int blk : arg_access_blocks) a.block_reasons[blk].insert('A');
  }

  FunctionVerdict v;
  v.func = f.id;
  v.reasons = a.reasons;
  v.affine_modeled = a.reasons.empty();

  // Subregion (per-loop) verdicts: a loop is modelable when no block of
  // its region carries a failure reason. The deepest modelable nest is the
  // tallest loop subtree that is clean all the way down — the paper's
  // "1D or 2D loop nests" Polly still managed.
  v.num_loops = static_cast<int>(a.forest.loops().size());
  auto region_clean = [&](const cfg::Loop& loop) {
    for (int blk : loop.blocks)
      if (a.block_reasons.count(blk) && !a.block_reasons.at(blk).empty())
        return false;
    return true;
  };
  std::function<int(const cfg::Loop&)> height = [&](const cfg::Loop& loop) {
    int best = 0;
    for (int c : loop.children)
      best = std::max(best, height(a.forest.loop(c)));
    return best + 1;
  };
  for (const auto& loop : a.forest.loops()) {
    if (!region_clean(loop)) continue;
    ++v.num_modeled_loops;
    // A clean region implies clean sub-loops, so the subtree height is
    // the modeled nest depth.
    v.max_modeled_nest_depth =
        std::max(v.max_modeled_nest_depth, height(loop));
  }

  FunctionModel out;
  out.verdict = v;
  collect_accesses(a, out);
  recover_bounds(a, out);
  out.block_reasons = a.block_reasons;
  for (auto& acc : out.accesses) {
    auto it = out.block_reasons.find(acc.block);
    bool clean = it == out.block_reasons.end() || it->second.empty();
    acc.modeled = acc.affine && clean;
    // Classification lattice: the block's reason set separates
    // "data-dependent but structurally affine" (B/C only — Klimov's
    // weakly-dynamic shape) from "statically hopeless" (R/F/A/P).
    if (!acc.affine) {
      acc.cls = AccessClass::kDynamicRequired;
    } else if (clean) {
      acc.cls = AccessClass::kStaticExact;
    } else {
      bool soft = true;
      for (char rsn : it->second)
        if (rsn != 'B' && rsn != 'C') soft = false;
      acc.cls = soft ? AccessClass::kWeaklyDynamic
                     : AccessClass::kDynamicRequired;
    }
  }
  return out;
}

std::set<char> analyze_region(const ir::Module& m,
                              const std::vector<int>& funcs) {
  std::set<char> out;
  for (int fid : funcs) {
    FunctionVerdict v =
        analyze_function(m, m.functions[static_cast<std::size_t>(fid)]);
    out.insert(v.reasons.begin(), v.reasons.end());
  }
  return out;
}

std::string reasons_str(const std::set<char>& reasons) {
  // Paper order: R C B F A P.
  static const char kOrder[] = {'R', 'C', 'B', 'F', 'A', 'P'};
  std::string s;
  for (char c : kOrder)
    if (reasons.count(c)) s.push_back(c);
  return s.empty() ? "-" : s;
}

}  // namespace pp::statican
