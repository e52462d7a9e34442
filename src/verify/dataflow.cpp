#include "verify/dataflow.hpp"

#include <algorithm>

namespace pp::verify {

using ir::Instr;
using ir::Op;
using ir::Reg;

bool BitVec::union_with(const BitVec& o) {
  bool changed = false;
  for (std::size_t i = 0; i < w_.size(); ++i) {
    u64 nv = w_[i] | o.w_[i];
    changed |= nv != w_[i];
    w_[i] = nv;
  }
  return changed;
}

bool BitVec::intersect_with(const BitVec& o) {
  bool changed = false;
  for (std::size_t i = 0; i < w_.size(); ++i) {
    u64 nv = w_[i] & o.w_[i];
    changed |= nv != w_[i];
    w_[i] = nv;
  }
  return changed;
}

void BitVec::transfer(const BitVec& gen, const BitVec& kill) {
  for (std::size_t i = 0; i < w_.size(); ++i)
    w_[i] = (w_[i] & ~kill.w_[i]) | gen.w_[i];
}

BlockGraph::BlockGraph(const ir::Function& f) {
  std::size_t n = f.blocks.size();
  succs.resize(n);
  preds.resize(n);
  rpo_index.assign(n, -1);
  auto in_range = [n](i64 t) {
    return t >= 0 && static_cast<std::size_t>(t) < n;
  };
  for (std::size_t b = 0; b < n; ++b) {
    const auto& instrs = f.blocks[b].instrs;
    if (instrs.empty()) continue;
    const Instr& t = instrs.back();
    if (t.op == Op::kBr) {
      if (in_range(t.imm)) succs[b].push_back(static_cast<int>(t.imm));
    } else if (t.op == Op::kBrCond) {
      if (in_range(t.imm)) succs[b].push_back(static_cast<int>(t.imm));
      if (in_range(t.imm2) && t.imm2 != t.imm)
        succs[b].push_back(static_cast<int>(t.imm2));
    }
  }
  for (std::size_t b = 0; b < n; ++b)
    for (int s : succs[b]) preds[static_cast<std::size_t>(s)].push_back(static_cast<int>(b));

  // Iterative postorder DFS from the entry, then reverse.
  if (n == 0) return;
  std::vector<int> post;
  std::vector<char> state(n, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::pair<int, std::size_t>> stack;
  stack.emplace_back(0, 0);
  state[0] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const auto& ss = succs[static_cast<std::size_t>(b)];
    if (next < ss.size()) {
      int s = ss[next++];
      if (state[static_cast<std::size_t>(s)] == 0) {
        state[static_cast<std::size_t>(s)] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[static_cast<std::size_t>(b)] = 2;
      post.push_back(b);
      stack.pop_back();
    }
  }
  rpo.assign(post.rbegin(), post.rend());
  for (std::size_t i = 0; i < rpo.size(); ++i)
    rpo_index[static_cast<std::size_t>(rpo[i])] = static_cast<int>(i);
}

DataflowResult solve_dataflow(const BlockGraph& g, const DataflowProblem& p) {
  std::size_t n = g.num_blocks();
  DataflowResult r;
  // Non-boundary init: top of the lattice (all-ones for intersection,
  // empty for union), so unreachable blocks never perturb the meet.
  r.in.assign(n, BitVec(p.bits, p.intersect));
  r.out.assign(n, BitVec(p.bits, p.intersect));

  bool changed = true;
  while (changed) {
    changed = false;
    for (int b : g.rpo) {
      auto bi = static_cast<std::size_t>(b);
      // The entry starts from the boundary value and still meets any
      // predecessors (the entry block may be a branch target).
      bool entry = g.rpo_index[bi] == 0;
      BitVec in = entry ? p.boundary : BitVec(p.bits, p.intersect);
      for (int q : g.preds[bi]) {
        if (p.intersect)
          in.intersect_with(r.out[static_cast<std::size_t>(q)]);
        else
          in.union_with(r.out[static_cast<std::size_t>(q)]);
      }
      BitVec out = in;
      out.transfer(p.gen[bi], p.kill[bi]);
      if (!(in == r.in[bi]) || !(out == r.out[bi])) {
        r.in[bi] = std::move(in);
        r.out[bi] = std::move(out);
        changed = true;
      }
    }
  }
  return r;
}

ReachingDefs::ReachingDefs(const ir::Function& f, const BlockGraph& g)
    : func_(f) {
  // Entry pseudo-definitions for arguments, then every register write.
  for (int a = 0; a < f.num_args; ++a)
    defs_.push_back(DefSite{0, -1, a});
  for (const auto& bb : f.blocks) {
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      if (!ir::writes_reg(bb.instrs[i])) continue;
      by_site_[{bb.id, static_cast<int>(i)}] = defs_.size();
      defs_.push_back(DefSite{bb.id, static_cast<int>(i), bb.instrs[i].dst});
    }
  }

  std::size_t n = g.num_blocks();
  DataflowProblem p;
  p.intersect = false;
  p.bits = defs_.size();
  p.gen.assign(n, BitVec(p.bits));
  p.kill.assign(n, BitVec(p.bits));
  p.boundary = BitVec(p.bits);

  // Defs of each register, for kill sets.
  std::map<Reg, std::vector<std::size_t>> of_reg;
  for (std::size_t d = 0; d < defs_.size(); ++d)
    of_reg[defs_[d].reg].push_back(d);

  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const DefSite& ds = defs_[d];
    auto bi = static_cast<std::size_t>(ds.block);
    // Is this the last def of its register in its block? (Pseudo-defs sit
    // at position -1, before every real instruction.)
    bool last = true;
    for (std::size_t e : of_reg[ds.reg]) {
      if (e == d || defs_[e].block != ds.block) continue;
      if (defs_[e].instr > ds.instr) last = false;
    }
    if (!last) continue;
    p.gen[bi].set(d);
    for (std::size_t e : of_reg[ds.reg])
      if (e != d) p.kill[bi].set(e);
  }
  // Entry pseudo-defs also reach IN of the entry block.
  for (int a = 0; a < f.num_args; ++a) p.boundary.set(static_cast<std::size_t>(a));

  sol_ = solve_dataflow(g, p);
}

bool ReachingDefs::reaches(std::size_t d, int use_block, int use_instr) const {
  const DefSite& ds = defs_[d];
  const auto& instrs = func_.blocks[static_cast<std::size_t>(use_block)].instrs;
  // Last definition of the register locally before the use point wins.
  // (Argument pseudo-defs sit before instruction 0 of the entry and are
  // part of IN[entry] via the boundary value.)
  for (int i = use_instr - 1; i >= 0; --i) {
    const Instr& in = instrs[static_cast<std::size_t>(i)];
    if (ir::writes_reg(in) && in.dst == ds.reg)
      return ds.block == use_block && ds.instr == i;
  }
  return sol_.in[static_cast<std::size_t>(use_block)].test(d);
}

bool ReachingDefs::def_reaches(int def_block, int def_instr, int use_block,
                               int use_instr) const {
  auto it = by_site_.find({def_block, def_instr});
  if (it == by_site_.end()) return false;
  return reaches(it->second, use_block, use_instr);
}

MustDefined::MustDefined(const ir::Function& f, const BlockGraph& g)
    : func_(f), graph_(g) {
  std::size_t n = g.num_blocks();
  DataflowProblem p;
  p.intersect = true;
  p.bits = static_cast<std::size_t>(std::max(f.num_regs, f.num_args));
  p.gen.assign(n, BitVec(p.bits));
  p.kill.assign(n, BitVec(p.bits));  // nothing un-defines a register
  p.boundary = BitVec(p.bits);
  for (int a = 0; a < f.num_args; ++a) p.boundary.set(static_cast<std::size_t>(a));
  for (const auto& bb : f.blocks) {
    auto bi = static_cast<std::size_t>(bb.id);
    for (const auto& in : bb.instrs)
      if (ir::writes_reg(in)) p.gen[bi].set(static_cast<std::size_t>(in.dst));
  }
  sol_ = solve_dataflow(g, p);
}

bool MustDefined::defined_before(int block, int instr, Reg r) const {
  if (r < 0 || static_cast<std::size_t>(r) >= sol_.in.front().size())
    return false;
  if (!graph_.reachable(block)) return true;  // vacuous: never executed
  const auto& instrs = func_.blocks[static_cast<std::size_t>(block)].instrs;
  for (int i = 0; i < instr; ++i) {
    const Instr& in = instrs[static_cast<std::size_t>(i)];
    if (ir::writes_reg(in) && in.dst == r) return true;
  }
  return sol_.in[static_cast<std::size_t>(block)].test(
      static_cast<std::size_t>(r));
}

}  // namespace pp::verify
