#include "ir/loop_nest.hpp"

#include <algorithm>
#include <set>

namespace pp::ir {

namespace {

bool reads_reg(const Instr& in, Reg r) {
  return std::ranges::count(read_regs(in), r) != 0;
}

// Terminator targets of a block (empty for kRet).
void block_targets(const BasicBlock& bb, std::vector<int>& out) {
  out.clear();
  if (bb.instrs.empty()) return;
  const Instr& t = bb.instrs.back();
  if (t.op == Op::kBr) {
    out.push_back(static_cast<int>(t.imm));
  } else if (t.op == Op::kBrCond) {
    out.push_back(static_cast<int>(t.imm));
    out.push_back(static_cast<int>(t.imm2));
  }
}

// Interior blocks (body..latch), or empty + ok=false when the region has
// a side exit (a path from body that leaves without passing the header).
std::vector<int> interior_blocks(const Function& f, const CountedLoop& l,
                                 bool& ok) {
  ok = true;
  std::vector<int> order;
  std::set<int> seen;
  std::vector<int> work{l.body};
  seen.insert(l.body);
  std::vector<int> targets;
  while (!work.empty()) {
    int id = work.back();
    work.pop_back();
    order.push_back(id);
    const BasicBlock& bb = f.block(id);
    if (!bb.instrs.empty() && bb.instrs.back().op == Op::kRet) {
      ok = false;  // return from inside the loop
      return {};
    }
    block_targets(bb, targets);
    for (int t : targets) {
      if (t == l.header) continue;
      if (t == l.exit) {
        ok = false;  // side exit
        return {};
      }
      if (seen.insert(t).second) work.push_back(t);
    }
  }
  return order;
}

bool is_latch_block(const BasicBlock& bb, Reg iv, int header) {
  if (bb.instrs.size() < 2) return false;
  const Instr& br = bb.instrs.back();
  const Instr& inc = bb.instrs[bb.instrs.size() - 2];
  return br.op == Op::kBr && br.imm == header && inc.op == Op::kAddI &&
         inc.dst == iv && inc.a == iv;
}

}  // namespace

std::optional<CountedLoop> match_counted_loop(const Function& f, int header) {
  if (header < 0 || static_cast<std::size_t>(header) >= f.blocks.size())
    return std::nullopt;
  const BasicBlock& h = f.block(header);
  if (h.instrs.size() != 2) return std::nullopt;
  const Instr& cmp = h.instrs[0];
  const Instr& br = h.instrs[1];
  if (cmp.op != Op::kCmpLt && cmp.op != Op::kCmpLe) return std::nullopt;
  if (br.op != Op::kBrCond || br.a != cmp.dst) return std::nullopt;
  if (br.imm == br.imm2) return std::nullopt;
  CountedLoop l;
  l.header = header;
  l.body = static_cast<int>(br.imm);
  l.exit = static_cast<int>(br.imm2);
  l.iv = cmp.a;
  l.bound = cmp.b;
  l.cmp_dst = cmp.dst;
  l.cmp_op = cmp.op;
  if (l.iv == kNoReg || l.bound == kNoReg || l.iv == l.bound)
    return std::nullopt;

  // Predecessors: exactly one latch (tail [addi iv; br header]) and one
  // preheader (unconditional br, holds the init).
  std::vector<int> preds;
  std::vector<int> targets;
  for (const BasicBlock& bb : f.blocks) {
    block_targets(bb, targets);
    if (std::find(targets.begin(), targets.end(), header) != targets.end())
      preds.push_back(bb.id);
  }
  if (preds.size() != 2) return std::nullopt;
  for (int p : preds) {
    if (is_latch_block(f.block(p), l.iv, header)) {
      if (l.latch != -1) return std::nullopt;  // ambiguous
      l.latch = p;
    } else {
      l.preheader = p;
    }
  }
  if (l.latch == -1 || l.preheader == -1) return std::nullopt;
  const BasicBlock& ph = f.block(l.preheader);
  if (ph.instrs.empty() || ph.instrs.back().op != Op::kBr ||
      ph.instrs.back().imm != header)
    return std::nullopt;
  l.step = f.block(l.latch).instrs[f.block(l.latch).instrs.size() - 2].imm;
  if (l.step == 0) return std::nullopt;

  // The init: last write of iv in the preheader, a constant or a copy.
  for (int i = static_cast<int>(ph.instrs.size()) - 1; i >= 0; --i) {
    if (ph.instrs[static_cast<std::size_t>(i)].dst == l.iv) {
      l.init_index = i;
      break;
    }
  }
  if (l.init_index < 0) return std::nullopt;
  const Instr& init = ph.instrs[static_cast<std::size_t>(l.init_index)];
  if (init.op == Op::kConst) {
    l.init_is_const = true;
    l.begin = init.imm;
  } else if (init.op != Op::kMov) {
    return std::nullopt;
  }

  // Interior: single exit, no side entries, iv written only by the latch
  // increment, bound loop-invariant.
  bool ok = false;
  std::vector<int> interior = interior_blocks(f, l, ok);
  if (!ok) return std::nullopt;
  std::set<int> in_loop(interior.begin(), interior.end());
  if (in_loop.count(l.latch) == 0) return std::nullopt;
  if (in_loop.count(l.header) != 0 || in_loop.count(l.preheader) != 0)
    return std::nullopt;
  for (const BasicBlock& bb : f.blocks) {
    if (in_loop.count(bb.id) != 0 || bb.id == l.header) continue;
    block_targets(bb, targets);
    for (int t : targets)
      if (in_loop.count(t) != 0) return std::nullopt;  // side entry
  }
  for (int id : interior) {
    const BasicBlock& bb = f.block(id);
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      const Instr& in = bb.instrs[i];
      if (in.dst == l.bound) return std::nullopt;
      if (in.dst == l.iv &&
          !(id == l.latch && i == bb.instrs.size() - 2))
        return std::nullopt;
    }
  }
  return l;
}

std::vector<CountedLoop> find_counted_loops(const Function& f) {
  std::vector<CountedLoop> out;
  for (const BasicBlock& bb : f.blocks)
    if (auto l = match_counted_loop(f, bb.id)) out.push_back(*l);
  return out;
}

std::vector<int> loop_blocks(const Function& f, const CountedLoop& l) {
  bool ok = false;
  return interior_blocks(f, l, ok);
}

bool perfectly_nested(const Function& f, const CountedLoop& outer,
                      const CountedLoop& inner) {
  if (outer.header == inner.header) return false;
  if (outer.body != inner.preheader || inner.exit != outer.latch)
    return false;
  return f.block(outer.body).instrs.size() == 2 &&
         f.block(outer.latch).instrs.size() == 2;
}

bool sink_preheader_extras(Function& f, const CountedLoop& outer,
                           CountedLoop& inner) {
  if (outer.body != inner.preheader) return false;
  BasicBlock& b1 = f.block(inner.preheader);
  if (b1.instrs.size() <= 2) return true;  // already just [init, br]
  std::vector<Instr> extras;
  Instr init = b1.instrs[static_cast<std::size_t>(inner.init_index)];
  for (std::size_t i = 0; i + 1 < b1.instrs.size(); ++i) {
    if (static_cast<int>(i) == inner.init_index) continue;
    extras.push_back(b1.instrs[i]);
  }
  // The init must not consume a value that is about to move below it.
  for (const Instr& e : extras)
    if (e.dst != kNoReg && reads_reg(init, e.dst)) return false;
  Instr term = b1.instrs.back();
  b1.instrs = {init, term};
  BasicBlock& body = f.block(inner.body);
  body.instrs.insert(body.instrs.begin(), extras.begin(), extras.end());
  inner.init_index = 0;
  return true;
}

bool interchange(Function& f, const CountedLoop& outer,
                 const CountedLoop& inner) {
  if (!perfectly_nested(f, outer, inner)) return false;
  // Everything the headers and the (relocated) inits consume must be
  // defined before the nest and stay constant across it: a bound or init
  // fed by the other loop's iv (a triangular nest) cannot be interchanged
  // by a register swap.
  std::vector<Reg> invariant{outer.bound, inner.bound};
  const Instr& oinit =
      f.block(outer.preheader).instrs[static_cast<std::size_t>(outer.init_index)];
  const Instr& iinit =
      f.block(inner.preheader).instrs[static_cast<std::size_t>(inner.init_index)];
  for (const Instr* init : {&oinit, &iinit})
    if (init->op == Op::kMov) invariant.push_back(init->a);
  std::vector<int> nest = loop_blocks(f, outer);
  nest.push_back(outer.header);
  for (int bb : nest)
    for (const Instr& in : f.block(bb).instrs)
      for (Reg r : invariant)
        if (in.dst == r) return false;
  // Inits swap whole: each preheader now starts the other loop's variable.
  std::swap(
      f.block(outer.preheader).instrs[static_cast<std::size_t>(outer.init_index)],
      f.block(inner.preheader).instrs[static_cast<std::size_t>(inner.init_index)]);
  // Header comparisons swap their (op, operands) but keep their own dst:
  // each br_cond still reads the compare emitted in its own block.
  Instr& co = f.block(outer.header).instrs[0];
  Instr& ci = f.block(inner.header).instrs[0];
  std::swap(co.op, ci.op);
  std::swap(co.a, ci.a);
  std::swap(co.b, ci.b);
  // Latch increments swap whole.
  BasicBlock& ol = f.block(outer.latch);
  BasicBlock& il = f.block(inner.latch);
  std::swap(ol.instrs[ol.instrs.size() - 2], il.instrs[il.instrs.size() - 2]);
  return true;
}

std::optional<StripResult> strip_mine(Function& f, const CountedLoop& l,
                                      i64 tile) {
  if (l.step < 1 || tile < 2) return std::nullopt;
  if (l.cmp_op != Op::kCmpLt && l.cmp_op != Op::kCmpLe) return std::nullopt;
  BasicBlock& ph = f.block(l.preheader);
  if (ph.instrs.back().op != Op::kBr) return std::nullopt;
  // The preheader must not read iv after the init loses its destination.
  for (const Instr& in : ph.instrs)
    if (reads_reg(in, l.iv)) return std::nullopt;

  const int line = f.block(l.header).instrs[0].line;
  const Reg ivt = f.num_regs++;
  const Reg c0 = f.num_regs++;
  const Reg te_raw = f.num_regs++;
  const Reg cle = f.num_regs++;
  const Reg diff = f.num_regs++;
  const Reg masked = f.num_regs++;
  const Reg te = f.num_regs++;
  // Last tile-local iteration: iv < ivt + tile*step (kCmpLt) or
  // iv <= ivt + (tile-1)*step (kCmpLe).
  const i64 span = (l.cmp_op == Op::kCmpLt ? tile : tile - 1) * l.step;

  StripResult r;
  r.tile_header = static_cast<int>(f.blocks.size());
  r.tile_preheader = r.tile_header + 1;
  r.tile_latch = r.tile_header + 2;

  // Preheader now initializes the tile counter and enters the tile loop.
  ph.instrs[static_cast<std::size_t>(l.init_index)].dst = ivt;
  ph.instrs.back().imm = r.tile_header;

  auto ins = [&](Op op, Reg dst, Reg a, Reg b, i64 imm, i64 imm2) {
    Instr in;
    in.op = op;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.imm = imm;
    in.imm2 = imm2;
    in.line = line;
    return in;
  };

  BasicBlock th;
  th.id = r.tile_header;
  th.label = "tile.header";
  th.instrs.push_back(ins(l.cmp_op, c0, ivt, l.bound, 0, 0));
  th.instrs.push_back(
      ins(Op::kBrCond, kNoReg, c0, kNoReg, r.tile_preheader, l.exit));

  // Branchless te = min(ivt + span, bound):
  //   te = bound + (ivt+span <= bound) * ((ivt+span) - bound).
  BasicBlock tp;
  tp.id = r.tile_preheader;
  tp.label = "tile.preheader";
  tp.instrs.push_back(ins(Op::kAddI, te_raw, ivt, kNoReg, span, 0));
  tp.instrs.push_back(ins(Op::kCmpLe, cle, te_raw, l.bound, 0, 0));
  tp.instrs.push_back(ins(Op::kSub, diff, te_raw, l.bound, 0, 0));
  tp.instrs.push_back(ins(Op::kMul, masked, cle, diff, 0, 0));
  tp.instrs.push_back(ins(Op::kAdd, te, l.bound, masked, 0, 0));
  tp.instrs.push_back(ins(Op::kMov, l.iv, ivt, kNoReg, 0, 0));
  tp.instrs.push_back(ins(Op::kBr, kNoReg, kNoReg, kNoReg, l.header, 0));

  BasicBlock tl;
  tl.id = r.tile_latch;
  tl.label = "tile.latch";
  tl.instrs.push_back(ins(Op::kAddI, ivt, ivt, kNoReg, tile * l.step, 0));
  tl.instrs.push_back(ins(Op::kBr, kNoReg, kNoReg, kNoReg, r.tile_header, 0));

  // The original loop now runs one tile: bound becomes te, exit edge goes
  // to the tile latch.
  BasicBlock& h = f.block(l.header);
  h.instrs[0].b = te;
  Instr& hbr = h.instrs[1];
  if (hbr.imm == l.exit) hbr.imm = r.tile_latch;
  if (hbr.imm2 == l.exit) hbr.imm2 = r.tile_latch;

  f.blocks.push_back(std::move(th));
  f.blocks.push_back(std::move(tp));
  f.blocks.push_back(std::move(tl));
  return r;
}

bool tile2(Function& f, const CountedLoop& outer, const CountedLoop& inner,
           i64 tile) {
  if (!perfectly_nested(f, outer, inner)) return false;
  if (outer.step < 1 || inner.step < 1) return false;
  std::optional<StripResult> so = strip_mine(f, outer, tile);
  if (!so) return false;
  std::optional<StripResult> si = strip_mine(f, inner, tile);
  if (!si) return false;  // outer already stripped; caller rebuilds from copy
  // The middle pair is now (point loop of outer, tile loop of inner) —
  // re-match both (the structs above are stale) and swap them, giving the
  // classic (outer tiles, inner tiles, outer points, inner points) order.
  std::optional<CountedLoop> mo = match_counted_loop(f, outer.header);
  std::optional<CountedLoop> mi = match_counted_loop(f, si->tile_header);
  if (!mo || !mi) return false;
  return interchange(f, *mo, *mi);
}

bool fuse(Function& f, const CountedLoop& a, const CountedLoop& b) {
  if (a.exit != b.preheader) return false;
  if (a.cmp_op != b.cmp_op || a.step != b.step || a.step < 1) return false;
  if (a.bound != b.bound) return false;
  if (!a.init_is_const || !b.init_is_const || a.begin != b.begin)
    return false;

  bool ok_a = false;
  bool ok_b = false;
  CountedLoop amut = a;
  CountedLoop bmut = b;
  std::vector<int> ia = interior_blocks(f, amut, ok_a);
  std::vector<int> ib = interior_blocks(f, bmut, ok_b);
  if (!ok_a || !ok_b) return false;
  std::set<int> a_region(ia.begin(), ia.end());
  a_region.insert(a.header);
  std::set<int> b_inside(ib.begin(), ib.end());
  b_inside.insert(b.header);

  // b's induction variable and compare result die with b's header: their
  // final values change under fusion, so nothing outside b may read them.
  for (const BasicBlock& bb : f.blocks) {
    if (b_inside.count(bb.id) != 0) continue;
    for (const Instr& in : bb.instrs)
      if (reads_reg(in, b.iv) || reads_reg(in, b.cmp_dst)) return false;
  }

  // Hoistable extras in b's preheader: pure ALU ops, operands and results
  // untouched by loop a (they will run before it instead of after).
  BasicBlock& bph = f.block(b.preheader);
  std::vector<Instr> extras;
  for (std::size_t i = 0; i + 1 < bph.instrs.size(); ++i) {
    const Instr& e = bph.instrs[i];
    if (static_cast<int>(i) == b.init_index) continue;
    if (op_is_memory(e.op) || e.op == Op::kCall || op_is_terminator(e.op))
      return false;
    if (e.dst == kNoReg || e.dst == b.iv) return false;
    const RegReads reads = read_regs(e);
    for (Reg r : reads)
      if (r == b.iv) return false;
    for (int id : a_region) {
      for (const Instr& in : f.block(id).instrs) {
        if (in.dst == e.dst || reads_reg(in, e.dst)) return false;
        for (Reg r : reads)
          if (in.dst == r) return false;
      }
    }
    for (const Instr& in : f.block(a.preheader).instrs)
      if (in.dst == e.dst || reads_reg(in, e.dst)) return false;
    extras.push_back(e);
  }

  // Rewrite. Hoist the extras above loop a…
  BasicBlock& aph = f.block(a.preheader);
  aph.instrs.insert(aph.instrs.end() - 1, extras.begin(), extras.end());
  bph.instrs = {bph.instrs.back()};  // b's preheader: dead unconditional br
  // …chain a's latch into b's body (copying the shared position)…
  BasicBlock& al = f.block(a.latch);
  Instr& a_inc = al.instrs[al.instrs.size() - 2];
  a_inc.op = Op::kMov;
  a_inc.dst = b.iv;
  a_inc.a = a.iv;
  a_inc.b = kNoReg;
  a_inc.imm = 0;
  al.instrs.back().imm = b.body;
  // …and b's latch back to a's header with the one increment.
  BasicBlock& bl = f.block(b.latch);
  Instr& b_inc = bl.instrs[bl.instrs.size() - 2];
  b_inc.op = Op::kAddI;
  b_inc.dst = a.iv;
  b_inc.a = a.iv;
  b_inc.b = kNoReg;
  b_inc.imm = a.step;
  bl.instrs.back().imm = a.header;
  // a's exit edge skips straight to b's exit.
  Instr& hbr = f.block(a.header).instrs[1];
  if (hbr.imm == a.exit) hbr.imm = b.exit;
  if (hbr.imm2 == a.exit) hbr.imm2 = b.exit;
  // b's preheader and header are now dead, but they survive until
  // remove_unreachable_blocks runs. Point their edges at b's exit so the
  // dead island keeps no edge into the merged loop — otherwise the merged
  // loop fails match_counted_loop's side-entry check and chain fusion
  // (fuse the merged loop with the next one) stops after one step.
  bph.instrs.back().imm = b.exit;
  Instr& dead_hbr = f.block(b.header).instrs[1];
  dead_hbr.imm = b.exit;
  dead_hbr.imm2 = b.exit;
  return true;
}

int remove_unreachable_blocks(Function& f) {
  if (f.blocks.empty()) return 0;
  std::vector<char> seen(f.blocks.size(), 0);
  std::vector<int> work{0};
  std::vector<int> targets;
  seen[0] = 1;
  while (!work.empty()) {
    int id = work.back();
    work.pop_back();
    block_targets(f.block(id), targets);
    for (int t : targets) {
      if (seen[static_cast<std::size_t>(t)] == 0) {
        seen[static_cast<std::size_t>(t)] = 1;
        work.push_back(t);
      }
    }
  }
  std::vector<int> remap(f.blocks.size(), -1);
  int next = 0;
  for (std::size_t i = 0; i < f.blocks.size(); ++i)
    if (seen[i] != 0) remap[i] = next++;
  if (next == static_cast<int>(f.blocks.size())) return 0;
  std::vector<BasicBlock> kept;
  kept.reserve(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < f.blocks.size(); ++i) {
    if (seen[i] == 0) continue;
    BasicBlock bb = std::move(f.blocks[i]);
    bb.id = remap[i];
    Instr& t = bb.instrs.back();
    if (t.op == Op::kBr) {
      t.imm = remap[static_cast<std::size_t>(t.imm)];
    } else if (t.op == Op::kBrCond) {
      t.imm = remap[static_cast<std::size_t>(t.imm)];
      t.imm2 = remap[static_cast<std::size_t>(t.imm2)];
    }
    kept.push_back(std::move(bb));
  }
  const int removed = static_cast<int>(f.blocks.size()) - next;
  f.blocks = std::move(kept);
  return removed;
}

}  // namespace pp::ir
