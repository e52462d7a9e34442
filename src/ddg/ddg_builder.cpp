#include "ddg/ddg_builder.hpp"

#include <algorithm>

namespace pp::ddg {

const char* dep_kind_name(DepKind k) {
  switch (k) {
    case DepKind::kRegFlow: return "reg-flow";
    case DepKind::kMemFlow: return "mem-flow";
    case DepKind::kAnti: return "anti";
    case DepKind::kOutput: return "output";
  }
  return "?";
}

namespace {

inline i64 wadd(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}

void advance(std::vector<i64>& v, std::span<const i64> stride) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = wadd(v[i], stride[i]);
}

/// The register-operand rule: an instance depends on the producer of each
/// register it reads, operand i feeding slot i. Call arguments and return
/// values are pass-through (on_call / on_return), so calls and returns
/// read nothing here.
ir::RegReads dep_operands(const ir::Instr& in) {
  return in.op == ir::Op::kCall || in.op == ir::Op::kRet ? ir::RegReads{}
                                                          : ir::read_regs(in);
}

/// The producer rule: the instance becomes its `dst` register's producer.
/// A call's result arrives through on_return, and a return writes nothing.
bool updates_producer(const ir::Instr& in) {
  return in.op != ir::Op::kCall && ir::writes_reg(in);
}

}  // namespace

void DdgSink::on_instruction_run(const InstrRun& r) {
  std::vector<i64> coords(r.coords.begin(), r.coords.end());
  i64 value = r.value;
  i64 address = r.address;
  for (u64 t = 0; t < r.n; ++t) {
    if (r.has_value && !r.value_affine) value = r.values[t];
    if (r.has_address && !r.address_affine) address = r.addresses[t];
    on_instruction(*r.stmt, coords, r.has_value, value, r.has_address,
                   address);
    advance(coords, r.coord_stride);
    value = wadd(value, r.value_stride);
    address = wadd(address, r.address_stride);
  }
}

void DdgSink::on_dependence_run(const DepRun& r) {
  std::vector<i64> src(r.src_coords.begin(), r.src_coords.end());
  std::vector<i64> dst(r.dst_coords.begin(), r.dst_coords.end());
  for (u64 t = 0; t < r.n; ++t) {
    on_dependence(r.kind, r.src_stmt, src, r.dst_stmt, dst, r.slot);
    advance(src, r.src_stride);
    advance(dst, r.dst_stride);
  }
}

DdgBuilder::DdgBuilder(const ir::Module& m, const cfg::ControlStructure& cs,
                       DdgSink* sink, DdgOptions opts,
                       const support::RunBudget* budget,
                       support::DiagnosticLog* diag, bool path_compaction)
    : module_(m),
      cs_(cs),
      lem_(cs,
           [this](const cfg::LoopEvent& ev) {
             diiv_.apply(ev);
             if (pc_ != nullptr) tee(ev);
           }),
      sink_(sink),
      opts_(opts),
      budget_(budget),
      diag_(diag) {
  // Compaction replays whole runs in bulk, which is only transparent when
  // no per-event budget check could have tripped mid-run.
  const bool budget_ok = budget == nullptr ||
                         (budget->wall_ms == 0 && budget->shadow_pages == 0 &&
                          budget->coord_pool_words == 0);
  if (path_compaction && budget_ok) {
    vm::PathHost& host = *this;  // private base: convert in member scope
    pc_ = std::make_unique<vm::PathCache>(host);
  }
}

void DdgBuilder::tee(const cfg::LoopEvent& ev) {
  using K = cfg::LoopEvent::Kind;
  if (pc_->armed()) {
    // While a run is armed the only structural events that can reach the
    // loop-event machine are the compressed back-edge (kIterate) and
    // intra-path blocks — everything else mismatches the template in
    // consume()/consume_jump() and disarms first.
    PP_CHECK(ev.kind == K::kIterate || ev.kind == K::kBlock,
             "path cache armed across a structural loop event");
    return;
  }
  switch (ev.kind) {
    case K::kEnter:
      pc_->loop_enter(ev.func, ev.loop, ev.block);
      break;
    case K::kIterate:
      pc_->loop_iterate(ev.func, ev.loop);
      break;
    case K::kExit:
      pc_->loop_exit();
      break;
    case K::kBlock:
      pc_->block_event(ev.func, ev.block);
      break;
    default:  // calls, returns, recursive-component events
      pc_->impure();
      break;
  }
}

bool DdgBuilder::path_loop_usable(int func, int loop) {
  return loop_paths(func, loop).usable;
}

bool DdgBuilder::path_edge_increment(int func, int loop, int from, int to,
                                     u64* inc) {
  const cfg::LoopPaths& p = loop_paths(func, loop);
  return p.usable && p.increment(from, to, inc);
}

const cfg::LoopPaths& DdgBuilder::loop_paths(int func, int loop) {
  auto key = std::make_pair(func, loop);
  auto it = paths_.find(key);
  if (it != paths_.end()) return it->second;
  cfg::LoopPaths p;
  auto fit = cs_.forests.find(func);
  if (fit != cs_.forests.end())
    p = cfg::number_loop_paths(
        module_.functions[static_cast<std::size_t>(func)], fit->second, loop);
  return paths_.emplace(key, std::move(p)).first->second;
}

void DdgBuilder::on_local_jump(int func, int dst_bb) {
  if (depth_ == 0) {
    // First event of the run: materialize the entry frame.
    const ir::Function& f = module_.functions[static_cast<std::size_t>(func)];
    frames_.emplace_back();
    frames_.back().shadow.reset(static_cast<std::size_t>(f.num_regs));
    frames_.back().ret_dst = ir::kNoReg;
    depth_ = 1;
  }
  // Armed consumption first: a mismatching jump must flush the run before
  // the loop-event machine (and the IIV state) advances past it.
  if (pc_ != nullptr && pc_->armed()) pc_->consume_jump(func, dst_bb);
  lem_.on_jump(func, dst_bb);
}

void DdgBuilder::on_call(vm::CodeRef callsite, int callee) {
  const ir::Function& cf = module_.functions[static_cast<std::size_t>(callee)];
  const ir::Instr& in = module_.functions[static_cast<std::size_t>(callsite.func)]
                            .blocks[static_cast<std::size_t>(callsite.block)]
                            .instrs[static_cast<std::size_t>(callsite.instr)];
  if (depth_ == frames_.size()) frames_.emplace_back();
  FrameCtl& nf = frames_[depth_];
  nf.shadow.reset(static_cast<std::size_t>(cf.num_regs));
  nf.ret_dst = in.dst;
  // Argument pass-through: the callee's parameter registers inherit the
  // caller's producers, so calling-convention moves do not create DDG
  // nodes (the dependence materializes at first real use).
  const ShadowFrame& caller = frames_[depth_ - 1].shadow;
  for (std::size_t i = 0; i < in.args.size(); ++i)
    nf.shadow.regs[i] = caller.regs[static_cast<std::size_t>(in.args[i])];
  ++depth_;
  lem_.on_call(callsite.func, callee, 0);
}

void DdgBuilder::on_return(int callee, vm::CodeRef into) {
  PP_CHECK(depth_ > 1, "DDG return underflow");
  ir::Reg dst = frames_[depth_ - 1].ret_dst;
  --depth_;
  if (dst != ir::kNoReg && pending_ret_.valid())
    frames_[depth_ - 1].shadow.regs[static_cast<std::size_t>(dst)] =
        pending_ret_;
  pending_ret_ = Occurrence{};
  lem_.on_return(callee, into.func, into.block);
}

void DdgBuilder::reg_dep(const ShadowFrame& frame, ir::Reg r,
                         const Occurrence& dst,
                         std::span<const i64> dst_coords, int slot) {
  if (r == ir::kNoReg) return;
  const Occurrence& prod = frame.regs[static_cast<std::size_t>(r)];
  if (!prod.valid()) return;  // value predates profiling (e.g. entry args)
  ++deps_emitted_;
  sink_->on_dependence(DepKind::kRegFlow, prod.stmt, pool_.get(prod.coords),
                       dst.stmt, dst_coords, slot);
}

void DdgBuilder::mem_dep(DepKind kind, const Occurrence& src,
                         const Occurrence& dst) {
  ++deps_emitted_;
  sink_->on_dependence(kind, src.stmt, pool_.get(src.coords), dst.stmt,
                       pool_.get(dst.coords), 0);
}

void DdgBuilder::access(ShadowMemory::Record* rec, bool store,
                        const Occurrence& occ, bool emit) {
  if (rec == nullptr) return;
  if (store) {
    if (emit && opts_.track_anti_output) {
      if (rec->writer.valid()) mem_dep(DepKind::kOutput, rec->writer, occ);
      if (rec->reader.valid()) mem_dep(DepKind::kAnti, rec->reader, occ);
    }
    rec->writer = occ;
    // The store kills the pending read: the next store to this word must
    // not report an anti dependence from a reader that preceded this one.
    rec->reader = Occurrence{};
  } else {
    if (emit && rec->writer.valid())
      mem_dep(DepKind::kMemFlow, rec->writer, occ);
    if (opts_.track_anti_output) rec->reader = occ;
  }
}

void DdgBuilder::on_instr(const vm::InstrEvent& ev) {
  // Armed fast path: a matching event is swallowed into the compressed
  // run. On a mismatch, consume() bulk-replays the run first and the
  // event falls through to the reference path below.
  if (pc_ != nullptr && pc_->armed() && pc_->consume(ev)) return;

  const ir::Instr& in = *ev.instr;
  PP_CHECK(depth_ > 0, "instruction with no frame");
  ShadowFrame& frame = frames_[depth_ - 1].shadow;

  if (diiv_.version() != ctx_version_) {
    diiv_.context_into(ctx_cache_);
    ctx_id_ = table_.intern_context(ctx_cache_);
    diiv_.coordinates_into(coord_scratch_);
    coord_cache_ = pool_.intern(coord_scratch_);
    ctx_version_ = diiv_.version();
  }
  int stmt = table_.touch(ctx_id_, ev.ref, in);
  const Statement& s = table_.stmt(stmt);
  if (pc_ != nullptr) pc_->observe_instr(ev, stmt);

  // Budget checks on the hot path. Cheap counters (shadow pages, pool
  // words) every event; the wall clock — a syscall-backed read — every
  // 8192 events. Exhaustion is one-way and degrades exactly like clamping:
  // emission stops, shadow/producer state stays current.
  ++events_;
  if (budget_ != nullptr && !budget_exhausted_) {
    const char* why = nullptr;
    if (budget_->shadow_exceeded(shadow_.pages_live()))
      why = "shadow-page budget exhausted";
    else if (budget_->pool_exceeded(pool_.size_words()))
      why = "coordinate-pool budget exhausted";
    else if ((events_ & 8191) == 0 && budget_->wall_exceeded())
      why = "wall-clock budget exhausted";
    if (why != nullptr) {
      budget_exhausted_ = true;
      if (diag_ != nullptr)
        diag_->warn(support::Stage::kDdg,
                    std::string(why) +
                        " — degrading subsequent statements to "
                        "over-approximation");
    }
  }

  bool clamped = false;
  if (opts_.clamp_instances != 0 && s.executions > opts_.clamp_instances) {
    if (s.executions == opts_.clamp_instances + 1) clamped_.insert(stmt);
    clamped = true;
  }
  if (budget_exhausted_) {
    degraded_.insert(stmt);
    clamped = true;
  }

  Occurrence occ{stmt, coord_cache_};
  std::span<const i64> coords = pool_.get(coord_cache_);

  if (!clamped) {
    int slot = 0;
    for (ir::Reg r : dep_operands(in)) reg_dep(frame, r, occ, coords, slot++);
    sink_->on_instruction(s, coords, ev.has_result, ev.result,
                          ir::op_is_memory(in.op), ev.address);
  }

  // Memory dependences through shadow memory. Shadow state is updated
  // even when clamped — a skipped update would leave a stale last-writer
  // (or a stale last-reader) and misattribute every later dependence on
  // this word. Only the *emission* is gated on !clamped.
  if (ir::op_is_memory(in.op)) {
    PP_CHECK((ev.address & 7) == 0, "unaligned VM memory address");
    const bool store = in.op == ir::Op::kStore;
    access(shadow_.at(ev.address, touches(store)), store, occ, !clamped);
  }

  // Producer bookkeeping (always, even when clamped — later instances
  // still need correct producers).
  if (in.op == ir::Op::kRet) {
    if (in.a != ir::kNoReg)
      pending_ret_ = frame.regs[static_cast<std::size_t>(in.a)];
    else
      pending_ret_ = Occurrence{};
  } else if (updates_producer(in)) {
    frame.regs[static_cast<std::size_t>(in.dst)] = occ;
  }
}

void DdgBuilder::expand_path_run(const vm::PathTemplate& tp,
                                 const vm::PathRun& run) {
  const u64 T = run.trips;
  const bool partial = run.pos > 0;
  if (T == 0 && !partial) return;

  // Coordinates. The IIV state stayed live through the run (every jump is
  // forwarded to the loop-event machine), so the current coordinate
  // vector belongs to the partial iteration; trip t rolls the innermost
  // coordinate back by (T - t).
  diiv_.coordinates_into(x_base_);
  PP_CHECK(!x_base_.empty(), "compressed run outside any loop");
  const std::size_t dim = x_base_.size();
  x_base_.back() -= static_cast<i64>(T);
  x_stride_.assign(dim, 0);
  x_stride_.back() = 1;
  x_prev_ = x_base_;
  x_prev_.back() -= 1;  // the recording iteration: carried-dep sources

  // Intern one coordinate vector per iteration, in iteration order — the
  // exact append sequence the reference path produces (it interns once at
  // each iteration's first instruction; later re-interns of the same
  // vector dedupe against the pool's last entry).
  const u64 n_iter = T + (partial ? 1 : 0);
  x_refs_.resize(static_cast<std::size_t>(n_iter));
  x_scratch_ = x_base_;
  for (u64 t = 0; t < n_iter; ++t) {
    x_refs_[static_cast<std::size_t>(t)] = pool_.intern(x_scratch_);
    ++x_scratch_.back();
  }

  events_ += T * tp.instr_slots + run.prefix_instr_slots;

  PP_CHECK(depth_ > 0, "compressed run with no frame");
  ShadowFrame& frame = frames_[depth_ - 1].shadow;
  const ir::Function& fn =
      module_.functions[static_cast<std::size_t>(tp.func)];

  // Register-producer classification. A read resolves, in order, to the
  // last template slot writing the register earlier in the same iteration
  // (intra), else to the last writer anywhere in the path (carried from
  // the previous iteration), else to the pre-run producer snapshot
  // (loop-invariant). The snapshot is exact for carried reads of trip 0
  // too: the iteration that armed the run executed this same path through
  // the reference machinery immediately before.
  fw_scratch_.assign(static_cast<std::size_t>(fn.num_regs), -1);
  run_scratch_.assign(static_cast<std::size_t>(fn.num_regs), -1);
  std::vector<int>& final_writer = fw_scratch_;
  std::vector<int>& running = run_scratch_;
  for (std::size_t i = 0; i < tp.slots.size(); ++i) {
    const vm::PathSlot& sl = tp.slots[i];
    if (!sl.is_jump && updates_producer(*sl.instr))
      final_writer[static_cast<std::size_t>(sl.instr->dst)] =
          static_cast<int>(i);
  }

  auto reg_dep_run = [&](const vm::PathSlot& sl, ir::Reg r, int opslot,
                         u64 n_emit) {
    if (r == ir::kNoReg || n_emit == 0) return;
    DdgSink::DepRun d;
    d.kind = DepKind::kRegFlow;
    d.dst_stmt = sl.stmt;
    d.slot = opslot;
    d.n = n_emit;
    d.dst_coords = x_base_;
    d.dst_stride = x_stride_;
    const int intra = running[static_cast<std::size_t>(r)];
    const int carried = final_writer[static_cast<std::size_t>(r)];
    if (intra >= 0) {
      d.src_stmt = tp.slots[static_cast<std::size_t>(intra)].stmt;
      d.src_coords = x_base_;
      d.src_stride = x_stride_;
    } else if (carried >= 0) {
      d.src_stmt = tp.slots[static_cast<std::size_t>(carried)].stmt;
      d.src_coords = x_prev_;
      d.src_stride = x_stride_;
    } else {
      const Occurrence& snap = frame.regs[static_cast<std::size_t>(r)];
      if (!snap.valid()) return;  // value predates profiling
      d.src_stmt = snap.stmt;
      d.src_coords = pool_.get(snap.coords);
      if (x_zero_.size() < d.src_coords.size())
        x_zero_.assign(d.src_coords.size(), 0);
      d.src_stride =
          std::span<const i64>(x_zero_.data(), d.src_coords.size());
    }
    deps_emitted_ += n_emit;
    sink_->on_dependence_run(d);
  };

  // Instance streams + register dependences, one bulk call per stream.
  slot_n_.assign(tp.slots.size(), 0);
  slot_emit_.assign(tp.slots.size(), 0);
  std::vector<u64>& slot_n = slot_n_;
  std::vector<u64>& slot_emit = slot_emit_;
  const u64 clamp = opts_.clamp_instances;
  for (std::size_t i = 0; i < tp.slots.size(); ++i) {
    const vm::PathSlot& sl = tp.slots[i];
    if (sl.is_jump) continue;
    const u64 n_i = T + (i < run.pos ? 1 : 0);
    slot_n[i] = n_i;
    if (n_i == 0) continue;
    Statement& st = table_.stmt_mut(sl.stmt);
    const u64 exec0 = st.executions;
    st.executions += n_i;
    u64 emit = n_i;
    if (clamp != 0) {
      emit = exec0 >= clamp ? 0 : std::min<u64>(n_i, clamp - exec0);
      if (exec0 <= clamp && exec0 + n_i >= clamp + 1)
        clamped_.insert(sl.stmt);
    }
    slot_emit[i] = emit;

    const ir::Instr& in = *sl.instr;
    int opslot = 0;
    for (ir::Reg r : dep_operands(in)) reg_dep_run(sl, r, opslot++, emit);

    if (emit > 0) {
      DdgSink::InstrRun r;
      r.stmt = &st;
      r.n = emit;
      r.coords = x_base_;
      r.coord_stride = x_stride_;
      r.has_value = sl.has_result;
      if (sl.has_result) {
        if (sl.vclass == vm::PathValClass::kAffine) {
          r.value_affine = true;
          r.value = static_cast<i64>(static_cast<u64>(sl.vbase) +
                                     static_cast<u64>(sl.vstride));
          r.value_stride = sl.vstride;
        } else {
          r.values = run.collect[static_cast<std::size_t>(sl.collect_v)];
        }
      }
      r.has_address = sl.is_mem;
      if (sl.is_mem) {
        if (sl.aclass == vm::PathValClass::kAffine) {
          r.address_affine = true;
          r.address = static_cast<i64>(static_cast<u64>(sl.abase) +
                                       static_cast<u64>(sl.astride));
          r.address_stride = sl.astride;
        } else {
          r.addresses = run.collect[static_cast<std::size_t>(sl.collect_a)];
        }
      }
      sink_->on_instruction_run(r);
    }

    if (updates_producer(*sl.instr))
      running[static_cast<std::size_t>(in.dst)] = static_cast<int>(i);
  }

  // Memory phase. Shadow state changes in exact instance order unless the
  // slots are provably order-independent: all addresses affine and the
  // word intervals of distinct slots pairwise disjoint — then each slot
  // replays in one strided page-walk.
  std::vector<RunMemSlot>& mem = x_mem_;
  mem.clear();
  bool batched_ok = true;
  for (std::size_t i = 0; i < tp.slots.size(); ++i) {
    const vm::PathSlot& sl = tp.slots[i];
    if (sl.is_jump || !sl.is_mem || slot_n[i] == 0) continue;
    RunMemSlot m;
    m.stmt = sl.stmt;
    m.n = slot_n[i];
    m.emit = slot_emit[i];
    m.store = sl.instr->op == ir::Op::kStore;
    m.affine = sl.aclass == vm::PathValClass::kAffine;
    if (m.affine) {
      m.base = static_cast<i64>(static_cast<u64>(sl.abase) +
                                static_cast<u64>(sl.astride));
      m.stride = sl.astride;
      PP_CHECK((m.base & 7) == 0 && (m.stride & 7) == 0,
               "unaligned compressed-run access");
      const i64 last = m.base + m.stride * static_cast<i64>(m.n - 1);
      m.lo = std::min(m.base, last);
      m.hi = std::max(m.base, last);
      m.addrs = nullptr;
    } else {
      m.addrs = &run.collect[static_cast<std::size_t>(sl.collect_a)];
      batched_ok = false;
    }
    mem.push_back(m);
  }
  if (batched_ok) {
    for (std::size_t a = 0; a < mem.size() && batched_ok; ++a)
      for (std::size_t b = a + 1; b < mem.size(); ++b)
        if (mem[a].lo <= mem[b].hi && mem[b].lo <= mem[a].hi) {
          batched_ok = false;
          break;
        }
  }
  if (batched_ok) {
    // Slot-major: each word is reached by one slot only. A load that can
    // neither emit nor record a reader stops at its emitted prefix.
    for (const RunMemSlot& m : mem) {
      const bool create = touches(m.store);
      shadow_.walk_strided(
          m.base, m.stride, create ? m.n : m.emit, create,
          [&](u64 t, ShadowMemory::Record* rec) {
            access(rec, m.store,
                   Occurrence{m.stmt, x_refs_[static_cast<std::size_t>(t)]},
                   t < m.emit);
          });
    }
  } else {
    // Reference interleaving: instance order across slots is observable
    // (a slot may access words another slot accessed earlier in the run).
    // An affine slot's `base` advances in place to its current address.
    for (u64 t = 0; t < n_iter; ++t) {
      for (RunMemSlot& m : mem) {
        if (t >= m.n) continue;
        const i64 addr = m.affine ? m.base : (*m.addrs)[t];
        PP_CHECK((addr & 7) == 0, "unaligned compressed-run access");
        access(shadow_.at(addr, touches(m.store)), m.store,
               Occurrence{m.stmt, x_refs_[static_cast<std::size_t>(t)]},
               t < m.emit);
        if (m.affine) m.base += m.stride;
      }
    }
  }

  // Final register producers: the temporally-last write of each register.
  // Template order is execution order within one trip, so the last
  // template-order writer is the last write — except when the run ends in
  // a partial prefix: slots before run.pos executed once more, AFTER every
  // full trip, so a writer inside the prefix supersedes any template-later
  // writer outside it (the bailed iteration resumes on the slow path and
  // must see the snapshot it would have had under reference execution).
  auto last_write = [&](std::size_t i) {
    const vm::PathSlot& sl = tp.slots[i];
    if (sl.is_jump || slot_n[i] == 0 || !updates_producer(*sl.instr)) return;
    frame.regs[static_cast<std::size_t>(sl.instr->dst)] = Occurrence{
        sl.stmt, x_refs_[static_cast<std::size_t>(slot_n[i] - 1)]};
  };
  for (std::size_t i = 0; i < tp.slots.size(); ++i) last_write(i);
  for (std::size_t i = 0; i < run.pos; ++i) last_write(i);
}

}  // namespace pp::ddg
