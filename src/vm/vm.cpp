#include "vm/vm.hpp"

#include <cstring>

namespace pp::vm {

namespace {

double as_double(i64 bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

i64 as_bits(double d) {
  i64 bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// Guest integer arithmetic wraps (two's complement), like the machine
// code the VM stands in for — guest LCGs and hash mixers overflow i64 on
// purpose. Computing in u64 keeps that defined under UBSan.
i64 wrap_add(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}
i64 wrap_sub(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b));
}
i64 wrap_mul(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
}

}  // namespace

Machine::Machine(const ir::Module& m, i64 extra_heap_bytes) : module_(m) {
  ir::verify(m);
  i64 total = m.data_segment_size + extra_heap_bytes;
  memory_.assign(static_cast<std::size_t>((total + 7) / 8), 0);
  for (const auto& g : m.globals) {
    for (std::size_t i = 0; i < g.init_words.size(); ++i)
      memory_[static_cast<std::size_t>(g.address / 8) + i] = g.init_words[i];
  }
  cache_tags_.assign(cost_.cache_lines, ~0ull);
}

i64 Machine::read_word(i64 addr) const {
  PP_CHECK(addr >= 0 && addr % 8 == 0 &&
               static_cast<std::size_t>(addr / 8) < memory_.size(),
           "read_word: bad address " + std::to_string(addr));
  return memory_[static_cast<std::size_t>(addr / 8)];
}

void Machine::write_word(i64 addr, i64 value) {
  PP_CHECK(addr >= 0 && addr % 8 == 0 &&
               static_cast<std::size_t>(addr / 8) < memory_.size(),
           "write_word: bad address " + std::to_string(addr));
  memory_[static_cast<std::size_t>(addr / 8)] = value;
}

i64 Machine::mem_load(i64 addr) {
  if (addr < 0 || addr % 8 != 0 ||
      static_cast<std::size_t>(addr / 8) >= memory_.size())
    fatal("load trap at address " + std::to_string(addr));
  return memory_[static_cast<std::size_t>(addr / 8)];
}

void Machine::mem_store(i64 addr, i64 value) {
  if (addr < 0 || addr % 8 != 0 ||
      static_cast<std::size_t>(addr / 8) >= memory_.size())
    fatal("store trap at address " + std::to_string(addr));
  memory_[static_cast<std::size_t>(addr / 8)] = value;
}

u64 Machine::access_cost(i64 addr) {
  u64 line = static_cast<u64>(addr) / cost_.line_bytes;
  u64 num_sets = cost_.cache_lines / cost_.ways;
  u64 set = (line % num_sets) * cost_.ways;
  // LRU within the set: ways are kept most-recent-first.
  for (u64 w = 0; w < cost_.ways; ++w) {
    if (cache_tags_[set + w] == line) {
      // Move to front.
      for (u64 k = w; k > 0; --k) cache_tags_[set + k] = cache_tags_[set + k - 1];
      cache_tags_[set] = line;
      return 1;
    }
  }
  ++stats_.cache_misses;
  for (u64 k = cost_.ways - 1; k > 0; --k)
    cache_tags_[set + k] = cache_tags_[set + k - 1];
  cache_tags_[set] = line;
  return 1 + cost_.miss_penalty;
}

RunResult Machine::run(const std::string& entry, const std::vector<i64>& args,
                       u64 max_steps) {
  const ir::Function* ef = module_.find_function(entry);
  PP_CHECK(ef != nullptr, "entry function '" + entry + "' not found");
  PP_CHECK(static_cast<int>(args.size()) == ef->num_args,
           "entry argument count mismatch");

  stats_ = RunStats{};
  stats_.per_function_instrs.assign(module_.functions.size(), 0);
  std::fill(cache_tags_.begin(), cache_tags_.end(), ~0ull);

  std::vector<Frame> stack;
  stack.push_back({ef->id, 0, 0, ir::kNoReg, CodeRef{}, {}});
  stack.back().regs.assign(static_cast<std::size_t>(ef->num_regs), 0);
  std::copy(args.begin(), args.end(), stack.back().regs.begin());

  if (observer_) observer_->on_local_jump(ef->id, 0);

  i64 exit_value = 0;
  u64 steps = 0;
  bool truncated = false;
  bool cancelled = false;
  while (!stack.empty()) {
    Frame& fr = stack.back();
    const ir::Function& f = module_.functions[static_cast<std::size_t>(fr.func)];
    const ir::BasicBlock& bb = f.blocks[static_cast<std::size_t>(fr.block)];
    const ir::Instr& in = bb.instrs[static_cast<std::size_t>(fr.instr)];

    if (++steps > max_steps) {
      // Degrade, don't die: a step-capped run yields partial stats and a
      // truncation status instead of discarding everything collected.
      truncated = true;
      break;
    }
    // Cancellation checkpoint: fixed step cadence, so a token fired before
    // the run truncates at the same step ordinal every time.
    if (cancel_ != nullptr && (steps & 2047u) == 0 && cancel_->poll()) {
      truncated = true;
      cancelled = true;
      break;
    }
    ++stats_.instructions;
    ++stats_.per_function_instrs[static_cast<std::size_t>(fr.func)];
    ++stats_.cycles;
    if (ir::op_is_fp(in.op)) ++stats_.fp_ops;

    InstrEvent ev;
    ev.ref = {fr.func, fr.block, fr.instr};
    ev.instr = &in;

    auto& regs = fr.regs;
    auto set = [&](ir::Reg r, i64 v) {
      regs[static_cast<std::size_t>(r)] = v;
      ev.result = v;
      ev.has_result = true;
    };
    auto get = [&](ir::Reg r) { return regs[static_cast<std::size_t>(r)]; };

    int next_block = -1;  // >= 0: jump within function
    bool advanced = false;

    switch (in.op) {
      case ir::Op::kConst:
      case ir::Op::kFConst:
        set(in.dst, in.imm);
        break;
      case ir::Op::kMov:
        set(in.dst, get(in.a));
        break;
      case ir::Op::kAdd: set(in.dst, wrap_add(get(in.a), get(in.b))); break;
      case ir::Op::kSub: set(in.dst, wrap_sub(get(in.a), get(in.b))); break;
      case ir::Op::kMul: set(in.dst, wrap_mul(get(in.a), get(in.b))); break;
      case ir::Op::kDiv: {
        i64 d = get(in.b);
        if (d == 0) fatal("division by zero");
        set(in.dst, get(in.a) / d);
        break;
      }
      case ir::Op::kRem: {
        i64 d = get(in.b);
        if (d == 0) fatal("remainder by zero");
        set(in.dst, get(in.a) % d);
        break;
      }
      case ir::Op::kAddI: set(in.dst, wrap_add(get(in.a), in.imm)); break;
      case ir::Op::kMulI: set(in.dst, wrap_mul(get(in.a), in.imm)); break;
      case ir::Op::kAnd: set(in.dst, get(in.a) & get(in.b)); break;
      case ir::Op::kOr: set(in.dst, get(in.a) | get(in.b)); break;
      case ir::Op::kXor: set(in.dst, get(in.a) ^ get(in.b)); break;
      case ir::Op::kShl:
        set(in.dst, get(in.a) << (get(in.b) & 63));
        break;
      case ir::Op::kShr:
        set(in.dst, static_cast<i64>(static_cast<u64>(get(in.a)) >>
                                     (get(in.b) & 63)));
        break;
      case ir::Op::kCmpEq: set(in.dst, get(in.a) == get(in.b)); break;
      case ir::Op::kCmpNe: set(in.dst, get(in.a) != get(in.b)); break;
      case ir::Op::kCmpLt: set(in.dst, get(in.a) < get(in.b)); break;
      case ir::Op::kCmpLe: set(in.dst, get(in.a) <= get(in.b)); break;
      case ir::Op::kCmpGt: set(in.dst, get(in.a) > get(in.b)); break;
      case ir::Op::kCmpGe: set(in.dst, get(in.a) >= get(in.b)); break;
      case ir::Op::kFAdd:
        set(in.dst, as_bits(as_double(get(in.a)) + as_double(get(in.b))));
        break;
      case ir::Op::kFSub:
        set(in.dst, as_bits(as_double(get(in.a)) - as_double(get(in.b))));
        break;
      case ir::Op::kFMul:
        set(in.dst, as_bits(as_double(get(in.a)) * as_double(get(in.b))));
        break;
      case ir::Op::kFDiv:
        set(in.dst, as_bits(as_double(get(in.a)) / as_double(get(in.b))));
        break;
      case ir::Op::kI2F:
        set(in.dst, as_bits(static_cast<double>(get(in.a))));
        break;
      case ir::Op::kF2I:
        set(in.dst, static_cast<i64>(as_double(get(in.a))));
        break;
      case ir::Op::kLoad: {
        i64 addr = get(in.a) + in.imm;
        ev.address = addr;
        ++stats_.loads;
        stats_.cycles += access_cost(addr) - 1;
        set(in.dst, mem_load(addr));
        break;
      }
      case ir::Op::kStore: {
        i64 addr = get(in.a) + in.imm;
        ev.address = addr;
        ++stats_.stores;
        stats_.cycles += access_cost(addr) - 1;
        mem_store(addr, get(in.b));
        break;
      }
      case ir::Op::kBr:
        next_block = static_cast<int>(in.imm);
        break;
      case ir::Op::kBrCond:
        next_block = static_cast<int>(get(in.a) != 0 ? in.imm : in.imm2);
        break;
      case ir::Op::kCall: {
        ++stats_.calls;
        const ir::Function& callee =
            module_.functions[static_cast<std::size_t>(in.imm)];
        if (observer_) observer_->on_instr(ev);
        if (observer_) observer_->on_call(ev.ref, callee.id);
        Frame nf;
        nf.func = callee.id;
        nf.block = 0;
        nf.instr = 0;
        nf.ret_dst = in.dst;
        nf.callsite = ev.ref;
        nf.regs.assign(static_cast<std::size_t>(callee.num_regs), 0);
        for (std::size_t i = 0; i < in.args.size(); ++i)
          nf.regs[i] = get(in.args[i]);
        ++fr.instr;  // resume after the call upon return
        stack.push_back(std::move(nf));
        advanced = true;
        break;
      }
      case ir::Op::kRet: {
        i64 rv = in.a == ir::kNoReg ? 0 : get(in.a);
        ev.result = rv;
        ev.has_result = in.a != ir::kNoReg;
        if (observer_) observer_->on_instr(ev);
        int callee_id = fr.func;
        CodeRef site = fr.callsite;
        ir::Reg dst = fr.ret_dst;
        stack.pop_back();
        if (stack.empty()) {
          exit_value = rv;
        } else {
          if (observer_) observer_->on_return(callee_id, site);
          if (dst != ir::kNoReg)
            stack.back().regs[static_cast<std::size_t>(dst)] = rv;
        }
        advanced = true;
        break;
      }
    }

    if (in.op != ir::Op::kCall && in.op != ir::Op::kRet) {
      if (observer_) observer_->on_instr(ev);
      if (next_block >= 0) {
        fr.block = next_block;
        fr.instr = 0;
        if (observer_) observer_->on_local_jump(fr.func, next_block);
      } else if (!advanced) {
        ++fr.instr;
      }
    }
  }

  RunResult res;
  res.exit_value = exit_value;
  res.stats = stats_;
  res.truncated = truncated;
  if (cancelled)
    res.truncate_reason =
        std::string("cancelled (") + cancel_->reason_name() + ")";
  else if (truncated)
    res.truncate_reason =
        "VM step limit (" + std::to_string(max_steps) + ") exceeded";
  return res;
}

}  // namespace pp::vm
