// Stage 2 ("Instrumentation II"): builds the dynamic dependence graph.
// Every retired instruction becomes a DDG vertex tagged with its dynamic
// interprocedural iteration vector; every data dependence (register flow,
// memory flow through shadow memory, optionally anti/output) becomes an
// edge between two tagged instances. Vertices and edges are streamed to a
// DdgSink — in the real pipeline that sink is the folding stage, so the
// full graph never materializes (the paper's scalability requirement).
//
// Hot-path design: this observer runs once per retired instruction, so
// its steady state is allocation-free — iteration vectors are interned in
// a CoordPool (one entry per IIV state change, not per event), shadow
// memory is a flat page table keyed by 8-byte word, contexts are interned
// once per loop event, and call frames are pooled. Sinks receive
// coordinates as spans into the pool, valid for the duration of the call.
#pragma once

#include <memory>
#include <set>
#include <span>

#include "cfg/loop_events.hpp"
#include "cfg/path_numbering.hpp"
#include "vm/path_cache.hpp"
#include "ddg/shadow.hpp"
#include "ddg/statement.hpp"
#include "iiv/diiv.hpp"
#include "support/budget.hpp"
#include "support/coord_pool.hpp"

namespace pp::ddg {

enum class DepKind : std::uint8_t {
  kRegFlow,   ///< read-after-write through a register
  kMemFlow,   ///< read-after-write through memory (shadow memory)
  kAnti,      ///< write-after-read through memory
  kOutput,    ///< write-after-write through memory
};

const char* dep_kind_name(DepKind k);

/// Consumer of the DDG event stream (the folding stage, or a test
/// recorder). Coordinate spans point into the builder's CoordPool and are
/// only guaranteed valid for the duration of the callback.
class DdgSink {
 public:
  virtual ~DdgSink() = default;
  /// A dynamic instance of `s` at iteration coordinates `coords`; `value`
  /// is the produced register value (SCEV detection), `address` the
  /// effective address of a load/store (access-function recovery).
  virtual void on_instruction(const Statement& s, std::span<const i64> coords,
                              bool has_value, i64 value, bool has_address,
                              i64 address) = 0;
  /// A dynamic dependence dst <- src between statement instances. `slot`
  /// identifies the consuming operand position (0 = first register operand
  /// / memory, 1 = second register operand), so that an instruction
  /// reading the same producer statement through two operands folds as two
  /// separate affine edges.
  virtual void on_dependence(DepKind kind, int src_stmt,
                             std::span<const i64> src_coords, int dst_stmt,
                             std::span<const i64> dst_coords, int slot) = 0;

  /// `n` consecutive instances of one statement: instance t executes at
  /// coords + coord_stride·t (64-bit wrapping, all spans same length).
  /// Values/addresses are either affine (base + stride·t) or collected
  /// verbatim (`values`/`addresses` hold n entries). Emitted by the trace
  /// compactor; semantically identical to n on_instruction calls in trip
  /// order.
  struct InstrRun {
    const Statement* stmt = nullptr;
    u64 n = 0;
    std::span<const i64> coords;
    std::span<const i64> coord_stride;
    bool has_value = false;
    bool value_affine = false;
    i64 value = 0, value_stride = 0;
    std::span<const i64> values;  ///< when has_value && !value_affine
    bool has_address = false;
    bool address_affine = false;
    i64 address = 0, address_stride = 0;
    std::span<const i64> addresses;  ///< when has_address && !address_affine
  };
  /// `n` consecutive instances of one dependence key; src/dst coordinates
  /// advance independently by their stride vectors per instance.
  /// Semantically identical to n on_dependence calls in trip order.
  struct DepRun {
    DepKind kind{};
    int src_stmt = -1, dst_stmt = -1, slot = 0;
    u64 n = 0;
    std::span<const i64> src_coords;
    std::span<const i64> src_stride;
    std::span<const i64> dst_coords;
    std::span<const i64> dst_stride;
  };
  /// Bulk entry points. Defaults expand per point through the scalar
  /// virtuals, so every sink stays correct; high-volume sinks (the folding
  /// stage) override with O(1)-per-run handling.
  virtual void on_instruction_run(const InstrRun& r);
  virtual void on_dependence_run(const DepRun& r);
};

struct DdgOptions {
  bool track_anti_output = false;  ///< also emit WAR/WAW edges
  /// "Clamping" (paper Fig. 1): stop streaming a statement's instances
  /// after this many (0 = unlimited). Bounds profiling cost on huge loops;
  /// clamped statements are flagged. Clamping gates *emission* only:
  /// shadow/producer state is always kept current, so the instances that
  /// are streamed never cite a stale producer.
  u64 clamp_instances = 0;
};

/// The Instrumentation-II observer. Wire it into a vm::Machine run after
/// stage 1 produced the ControlStructure for the same program.
class DdgBuilder : public vm::Observer, private vm::PathHost {
 public:
  /// `budget` (null = none) is checked on the hot path: shadow pages and
  /// coordinate words every event, the wall clock every 8192 events.
  /// Exhaustion degrades like clamping — emission stops, shadow/producer
  /// state stays current — and every statement touched afterwards is
  /// recorded as degraded so the folder can demote it to an
  /// over-approximation; `diag` (may be null) receives the one diagnostic.
  /// `path_compaction` turns on hot-path trace compaction (vm::PathCache):
  /// re-executed loop-body paths whose values/addresses follow affine
  /// per-iteration recurrences replay in bulk, through the same
  /// dependence rules as single events, so everything streamed is
  /// byte-identical to the reference interpretation. A budget with
  /// per-event caps (shadow pages, pool words, wall clock) keeps it off:
  /// those caps must trip at the exact event.
  DdgBuilder(const ir::Module& m, const cfg::ControlStructure& cs,
             DdgSink* sink, DdgOptions opts = {},
             const support::RunBudget* budget = nullptr,
             support::DiagnosticLog* diag = nullptr,
             bool path_compaction = false);

  void on_local_jump(int func, int dst_bb) override;
  void on_call(vm::CodeRef callsite, int callee) override;
  void on_return(int callee, vm::CodeRef into) override;
  void on_instr(const vm::InstrEvent& ev) override;

  const StatementTable& statements() const { return table_; }
  const std::set<int>& clamped_statements() const { return clamped_; }
  u64 dependences_emitted() const { return deps_emitted_; }
  /// Instruction events consumed by this builder (self-observability).
  u64 instr_events_seen() const { return events_; }

  /// True once a RunBudget cap tripped mid-replay.
  bool budget_exhausted() const { return budget_exhausted_; }
  /// Statements touched after exhaustion — their streamed instance sets are
  /// incomplete and must fold as over-approximations, never as exact/affine.
  const std::set<int>& degraded_statements() const { return degraded_; }

  /// Introspection for benchmarks / reports.
  const support::CoordPool& coord_pool() const { return pool_; }
  const ShadowMemory& shadow() const { return shadow_; }

  /// Path-cache counters, or nullptr when compaction is inactive.
  const vm::PathCacheStats* path_stats() const {
    return pc_ != nullptr ? &pc_->stats() : nullptr;
  }
  /// Flush any armed compressed run (bulk-replaying its effects). Call
  /// after the VM replay returns or traps, before reading any builder
  /// state; safe to call when idle or when compaction is inactive.
  void flush_compaction() {
    if (pc_ != nullptr) pc_->flush();
  }

 private:
  void reg_dep(const ShadowFrame& frame, ir::Reg r, const Occurrence& dst,
               std::span<const i64> dst_coords, int slot);
  void mem_dep(DepKind kind, const Occurrence& src, const Occurrence& dst);
  /// The shadow-memory rule for one load or store instance `occ` on its
  /// word's record (null: a load of a never-touched page). Every path —
  /// single events and both bulk replays — applies it per instance, so
  /// it is inline (defined in ddg_builder.cpp, its only user).
  inline void access(ShadowMemory::Record* rec, bool store,
                     const Occurrence& occ, bool emit);
  /// Does the access create its shadow record? Stores always; loads only
  /// under anti/output tracking, where they record the reader.
  bool touches(bool store) const {
    return store || opts_.track_anti_output;
  }

  // vm::PathHost: Ball-Larus numbering lookups + bulk run replay.
  bool path_loop_usable(int func, int loop) override;
  bool path_edge_increment(int func, int loop, int from, int to,
                           u64* inc) override;
  void expand_path_run(const vm::PathTemplate& t,
                       const vm::PathRun& run) override;
  const cfg::LoopPaths& loop_paths(int func, int loop);
  void tee(const cfg::LoopEvent& ev);

  const ir::Module& module_;
  const cfg::ControlStructure& cs_;
  cfg::LoopEventMachine lem_;
  iiv::DynamicIiv diiv_;
  StatementTable table_;
  ShadowMemory shadow_;
  support::CoordPool pool_;
  DdgSink* sink_;
  DdgOptions opts_;
  const support::RunBudget* budget_;
  support::DiagnosticLog* diag_;

  struct FrameCtl {
    ShadowFrame shadow;
    ir::Reg ret_dst = ir::kNoReg;  ///< caller register receiving the result
  };
  // Pooled frame stack: depth_ is the live height; slots above it keep
  // their register-vector capacity for reuse (no allocation per call once
  // the deepest point of the run has been visited).
  std::vector<FrameCtl> frames_;
  std::size_t depth_ = 0;
  Occurrence pending_ret_;  ///< producer of the return value (stmt < 0: none)
  // Context cache: the IIV context, coordinates and interned ids are
  // invariant between loop events, so recomputing them per instruction
  // would dominate profiling cost.
  u64 ctx_version_ = ~0ull;
  iiv::ContextKey ctx_cache_;
  int ctx_id_ = -1;
  support::CoordRef coord_cache_;
  std::vector<i64> coord_scratch_;
  std::set<int> clamped_;
  u64 deps_emitted_ = 0;
  bool budget_exhausted_ = false;
  std::set<int> degraded_;
  u64 events_ = 0;  ///< instruction events seen (wall-clock check cadence)

  // Trace compaction (null = inactive).
  std::unique_ptr<vm::PathCache> pc_;
  std::map<std::pair<int, int>, cfg::LoopPaths> paths_;  ///< lazy numbering
  // Expansion scratch (allocation-free once warm).
  /// One memory slot of a compressed run, for the memory phase.
  struct RunMemSlot {
    int stmt = -1;
    u64 n = 0, emit = 0;
    bool store = false;
    bool affine = false;
    i64 base = 0, stride = 0;                 // affine
    const std::vector<i64>* addrs = nullptr;  // collected
    i64 lo = 0, hi = 0;  // byte-address interval (affine)
  };
  std::vector<i64> x_base_, x_stride_, x_prev_, x_zero_, x_scratch_;
  std::vector<support::CoordRef> x_refs_;
  std::vector<int> fw_scratch_, run_scratch_;  ///< per-register writer maps
  std::vector<u64> slot_n_, slot_emit_;        ///< per-slot trip counts
  std::vector<RunMemSlot> x_mem_;              ///< per-run memory slots
};

}  // namespace pp::ddg
