#include "verify/mutator.hpp"

namespace pp::verify {

using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Op;
using ir::Reg;

const char* defect_class_name(DefectClass c) {
  switch (c) {
    case DefectClass::kDanglingBranch: return "dangling-branch";
    case DefectClass::kMissingTerminator: return "missing-terminator";
    case DefectClass::kUseBeforeDef: return "use-before-def";
    case DefectClass::kBadCallArity: return "bad-call-arity";
    case DefectClass::kOutOfRangeRegister: return "out-of-range-register";
    case DefectClass::kDuplicateFunctionName: return "duplicate-function-name";
    case DefectClass::kFunctionIdMismatch: return "function-id-mismatch";
    case DefectClass::kEmptyBlock: return "empty-block";
  }
  return "?";
}

IssueCode expected_issue(DefectClass c) {
  switch (c) {
    case DefectClass::kDanglingBranch: return IssueCode::kBadBranchTarget;
    case DefectClass::kMissingTerminator: return IssueCode::kMissingTerminator;
    case DefectClass::kUseBeforeDef: return IssueCode::kUseBeforeDef;
    case DefectClass::kBadCallArity: return IssueCode::kBadCallArity;
    case DefectClass::kOutOfRangeRegister: return IssueCode::kBadRegister;
    case DefectClass::kDuplicateFunctionName:
      return IssueCode::kDuplicateFunctionName;
    case DefectClass::kFunctionIdMismatch: return IssueCode::kFunctionIdMismatch;
    case DefectClass::kEmptyBlock: return IssueCode::kEmptyBlock;
  }
  return IssueCode::kNoBlocks;
}

namespace {

// splitmix64: tiny, seedable, no global state.
struct Rng {
  u64 s;
  u64 next() {
    s += 0x9e3779b97f4a7c15ull;
    u64 z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

// Position of a random function with blocks.
std::size_t pick_position(const Module& m, Rng& rng) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < m.functions.size(); ++i)
    if (!m.functions[i].blocks.empty()) eligible.push_back(i);
  PP_CHECK(!eligible.empty(), "mutate: module has no function with blocks");
  return eligible[rng.below(eligible.size())];
}

Function& pick_function(Module& m, Rng& rng) {
  return m.functions[pick_position(m, rng)];
}

Mutation dangling_branch(Module& m, Rng& rng) {
  // Corrupt an existing branch when one exists, else replace a terminator
  // with an out-of-range kBr.
  struct Site { Function* f; int b; int i; };
  std::vector<Site> branches;
  for (auto& f : m.functions)
    for (auto& bb : f.blocks)
      for (std::size_t i = 0; i < bb.instrs.size(); ++i)
        if (bb.instrs[i].op == Op::kBr || bb.instrs[i].op == Op::kBrCond)
          branches.push_back({&f, bb.id, static_cast<int>(i)});
  Mutation mu;
  mu.cls = DefectClass::kDanglingBranch;
  if (!branches.empty()) {
    Site s = branches[rng.below(branches.size())];
    Instr& in = s.f->blocks[static_cast<std::size_t>(s.b)]
                    .instrs[static_cast<std::size_t>(s.i)];
    i64 bogus = static_cast<i64>(s.f->blocks.size()) +
                static_cast<i64>(rng.below(7));
    in.imm = bogus;
    mu.func = s.f->id;
    mu.block = s.b;
    mu.instr = s.i;
    mu.description = "branch target set to bb" + std::to_string(bogus);
    return mu;
  }
  Function& f = pick_function(m, rng);
  auto& bb = f.blocks[rng.below(f.blocks.size())];
  Instr br;
  br.op = Op::kBr;
  br.imm = static_cast<i64>(f.blocks.size()) + 3;
  bb.instrs.back() = br;
  mu.func = f.id;
  mu.block = bb.id;
  mu.instr = static_cast<int>(bb.instrs.size()) - 1;
  mu.description = "terminator replaced by br to bb" + std::to_string(br.imm);
  return mu;
}

Mutation missing_terminator(Module& m, Rng& rng) {
  Function& f = pick_function(m, rng);
  auto& bb = f.blocks[rng.below(f.blocks.size())];
  if (f.num_regs == 0) f.num_regs = 1;
  Instr filler;
  filler.op = Op::kConst;
  filler.dst = 0;
  filler.imm = 0;
  bb.instrs.back() = filler;  // block now ends in a plain kConst
  Mutation mu;
  mu.cls = DefectClass::kMissingTerminator;
  mu.func = f.id;
  mu.block = bb.id;
  mu.instr = static_cast<int>(bb.instrs.size()) - 1;
  mu.description = "terminator replaced by const";
  return mu;
}

Mutation use_before_def(Module& m, Rng& rng) {
  Function& f = pick_function(m, rng);
  // A fresh register read at the very top of the entry block: no path can
  // define it first.
  Reg fresh = f.num_regs;
  f.num_regs += 1;
  Instr use;
  use.op = Op::kMov;
  use.dst = fresh;
  use.a = fresh;
  auto& entry = f.blocks.front();
  entry.instrs.insert(entry.instrs.begin(), use);
  Mutation mu;
  mu.cls = DefectClass::kUseBeforeDef;
  mu.func = f.id;
  mu.block = entry.id;
  mu.instr = 0;
  mu.description = "mov r" + std::to_string(fresh) + ", r" +
                   std::to_string(fresh) + " inserted at entry";
  return mu;
}

Mutation bad_call_arity(Module& m, Rng& rng) {
  struct Site { Function* f; int b; int i; };
  std::vector<Site> calls;
  for (auto& f : m.functions)
    for (auto& bb : f.blocks)
      for (std::size_t i = 0; i < bb.instrs.size(); ++i)
        if (bb.instrs[i].op == Op::kCall)
          calls.push_back({&f, bb.id, static_cast<int>(i)});
  Mutation mu;
  mu.cls = DefectClass::kBadCallArity;
  if (!calls.empty()) {
    Site s = calls[rng.below(calls.size())];
    Function& f = *s.f;
    if (f.num_regs == 0) f.num_regs = 1;
    Instr& in = f.blocks[static_cast<std::size_t>(s.b)]
                    .instrs[static_cast<std::size_t>(s.i)];
    in.args.push_back(0);  // one extra (in-range) argument
    mu.func = f.id;
    mu.block = s.b;
    mu.instr = s.i;
    mu.description = "extra call argument appended";
    return mu;
  }
  // No call anywhere: inject one with the wrong arity before a terminator.
  Function& f = pick_function(m, rng);
  Function& callee = m.functions[rng.below(m.functions.size())];
  if (f.num_regs == 0) f.num_regs = 1;
  Instr call;
  call.op = Op::kCall;
  call.imm = callee.id;
  call.args.assign(static_cast<std::size_t>(callee.num_args) + 1, 0);
  auto& bb = f.blocks[rng.below(f.blocks.size())];
  bb.instrs.insert(bb.instrs.end() - 1, call);
  Mutation mu2;
  mu2.cls = DefectClass::kBadCallArity;
  mu2.func = f.id;
  mu2.block = bb.id;
  mu2.instr = static_cast<int>(bb.instrs.size()) - 2;
  mu2.description = "call to " + callee.name + " injected with arity+1";
  return mu2;
}

Mutation out_of_range_register(Module& m, Rng& rng) {
  // Corrupt a random register slot (destination or used operand).
  struct Site { Function* f; int b; int i; int slot; };  // slot: -1 dst, 0 a, 1 b
  std::vector<Site> sites;
  for (auto& f : m.functions) {
    for (auto& bb : f.blocks) {
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        const Instr& in = bb.instrs[i];
        if (ir::writes_reg(in))
          sites.push_back({&f, bb.id, static_cast<int>(i), -1});
        const ir::RegReads uses = ir::read_regs(in);
        // Only direct a/b slots are corrupted (call args are handled by the
        // arity class).
        if (in.op != Op::kCall) {
          if (!uses.empty()) sites.push_back({&f, bb.id, static_cast<int>(i), 0});
          if (uses.size() > 1) sites.push_back({&f, bb.id, static_cast<int>(i), 1});
        }
      }
    }
  }
  Mutation mu;
  mu.cls = DefectClass::kOutOfRangeRegister;
  if (!sites.empty()) {
    Site s = sites[rng.below(sites.size())];
    Instr& in = s.f->blocks[static_cast<std::size_t>(s.b)]
                    .instrs[static_cast<std::size_t>(s.i)];
    Reg bogus = s.f->num_regs + static_cast<Reg>(rng.below(5));
    if (s.slot == -1)
      in.dst = bogus;
    else if (s.slot == 0)
      in.a = bogus;
    else
      in.b = bogus;
    mu.func = s.f->id;
    mu.block = s.b;
    mu.instr = s.i;
    mu.description = "register slot set to r" + std::to_string(bogus);
    return mu;
  }
  // Degenerate module (only br/ret with no value): inject a const to an
  // out-of-range destination.
  Function& f = pick_function(m, rng);
  Instr k;
  k.op = Op::kConst;
  k.dst = f.num_regs + 2;
  auto& bb = f.blocks.front();
  bb.instrs.insert(bb.instrs.end() - 1, k);
  mu.func = f.id;
  mu.block = bb.id;
  mu.instr = static_cast<int>(bb.instrs.size()) - 2;
  mu.description = "const to out-of-range register injected";
  return mu;
}

Mutation duplicate_function_name(Module& m, Rng& rng) {
  // Append a copy of a function: well-formed in itself (its calls keep
  // their targets), it only repeats an existing name.
  Function copy = pick_function(m, rng);
  copy.id = static_cast<int>(m.functions.size());
  m.functions.push_back(std::move(copy));
  Mutation mu;
  mu.cls = DefectClass::kDuplicateFunctionName;
  mu.func = m.functions.back().id;
  mu.description = "copy of '" + m.functions.back().name + "' appended";
  return mu;
}

Mutation function_id_mismatch(Module& m, Rng& rng) {
  const int pos = static_cast<int>(pick_position(m, rng));
  Function& f = m.functions[static_cast<std::size_t>(pos)];
  f.id = pos + 1 + static_cast<int>(rng.below(m.functions.size()));
  Mutation mu;
  mu.cls = DefectClass::kFunctionIdMismatch;
  mu.func = pos;
  mu.description = "function at position " + std::to_string(pos) +
                   " given id " + std::to_string(f.id);
  return mu;
}

Mutation empty_block(Module& m, Rng& rng) {
  Function& f = pick_function(m, rng);
  auto& bb = f.blocks[rng.below(f.blocks.size())];
  bb.instrs.clear();
  Mutation mu;
  mu.cls = DefectClass::kEmptyBlock;
  mu.func = f.id;
  mu.block = bb.id;
  mu.description = "block emptied";
  return mu;
}

}  // namespace

Mutation mutate(Module& m, DefectClass cls, u64 seed) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + static_cast<u64>(cls) + 1};
  switch (cls) {
    case DefectClass::kDanglingBranch: return dangling_branch(m, rng);
    case DefectClass::kMissingTerminator: return missing_terminator(m, rng);
    case DefectClass::kUseBeforeDef: return use_before_def(m, rng);
    case DefectClass::kBadCallArity: return bad_call_arity(m, rng);
    case DefectClass::kOutOfRangeRegister: return out_of_range_register(m, rng);
    case DefectClass::kDuplicateFunctionName:
      return duplicate_function_name(m, rng);
    case DefectClass::kFunctionIdMismatch: return function_id_mismatch(m, rng);
    case DefectClass::kEmptyBlock: return empty_block(m, rng);
  }
  fatal("mutate: unknown defect class");
}

const char* access_mutation_name(AccessMutation c) {
  switch (c) {
    case AccessMutation::kWeaklyDynamic: return "weakly-dynamic-flip";
    case AccessMutation::kDynamicRequired: return "dynamic-required-flip";
  }
  return "?";
}

statican::AccessClass expected_access_class(AccessMutation c) {
  return c == AccessMutation::kWeaklyDynamic
             ? statican::AccessClass::kWeaklyDynamic
             : statican::AccessClass::kDynamicRequired;
}

AccessMutationResult mutate_access(Module& m, AccessMutation cls, u64 seed) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0xa5ull + static_cast<u64>(cls)};
  struct Site { Function* f; int b; int i; };
  std::vector<Site> sites;
  for (auto& f : m.functions) {
    if (f.blocks.empty()) continue;
    const statican::FunctionModel fm = statican::model_function(m, f);
    for (const auto& acc : fm.accesses) {
      if (acc.cls != statican::AccessClass::kStaticExact) continue;
      if (cls == AccessMutation::kWeaklyDynamic) {
        // The condition laundering needs a branch to corrupt.
        const Op term = f.block(acc.block).instrs.back().op;
        if (term != Op::kBr && term != Op::kBrCond) continue;
      }
      sites.push_back({&f, acc.block, acc.instr});
    }
  }
  AccessMutationResult mu;
  mu.cls = cls;
  if (sites.empty()) return mu;
  const Site s = sites[rng.below(sites.size())];
  Function& f = *s.f;
  auto& bb = f.block(s.b);
  const std::size_t ai = static_cast<std::size_t>(s.i);
  const Reg addr = bb.instrs[ai].a;
  const i64 imm = bb.instrs[ai].imm;
  const Reg r0 = f.num_regs, r1 = f.num_regs + 1, r2 = f.num_regs + 2;
  f.num_regs += 3;
  Instr ld;
  ld.op = Op::kLoad;
  ld.dst = r0;
  ld.a = addr;
  ld.imm = imm;  // re-reads the access's own word: always a valid address
  mu.func = f.id;
  mu.block = s.b;

  if (cls == AccessMutation::kDynamicRequired) {
    // addr' = addr + (x - x): the same address at runtime, statically
    // opaque (the loaded value has no affine structure).
    Instr sub;
    sub.op = Op::kSub;
    sub.dst = r1;
    sub.a = r0;
    sub.b = r0;
    Instr add;
    add.op = Op::kAdd;
    add.dst = r2;
    add.a = addr;
    add.b = r1;
    bb.instrs.insert(bb.instrs.begin() + static_cast<std::ptrdiff_t>(ai),
                     {ld, sub, add});
    bb.instrs[ai + 3].a = r2;
    mu.instr = s.i + 3;
    mu.description = "access address laundered through loaded data";
    return mu;
  }

  // kWeaklyDynamic: make the block's branch condition data-dependent while
  // leaving the taken edge unchanged. Insertions land before the
  // terminator, so the access keeps its index.
  mu.instr = s.i;
  if (bb.instrs.back().op == Op::kBr) {
    // br T  ->  brcond (x == x), T, T
    Instr cmp;
    cmp.op = Op::kCmpEq;
    cmp.dst = r1;
    cmp.a = r0;
    cmp.b = r0;
    bb.instrs.insert(bb.instrs.end() - 1, {ld, cmp});
    Instr& term = bb.instrs.back();
    term.op = Op::kBrCond;
    term.a = r1;
    term.imm2 = term.imm;
    mu.description = "br laundered into data-dependent brcond (same target)";
  } else {
    // brcond c, T, E  ->  brcond c + (x - x), T, E
    Instr sub;
    sub.op = Op::kSub;
    sub.dst = r1;
    sub.a = r0;
    sub.b = r0;
    Instr add;
    add.op = Op::kAdd;
    add.dst = r2;
    add.a = bb.instrs.back().a;
    add.b = r1;
    bb.instrs.insert(bb.instrs.end() - 1, {ld, sub, add});
    bb.instrs.back().a = r2;
    mu.description = "brcond condition laundered through loaded data";
  }
  return mu;
}

}  // namespace pp::verify
