// The polyprof virtual machine: executes mini-ISA modules and surfaces the
// instrumentation event stream that the paper obtains from QEMU plugins
// (control transfers for "Instrumentation I", per-instruction values and
// effective addresses for "Instrumentation II"). It also keeps a simple
// cache-aware cycle model used to report simulated speedups for the case
// studies (the stand-in for the paper's GFlop/s measurements).
#pragma once

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "support/cancel.hpp"

namespace pp::vm {

/// Static identity of an instruction inside a module.
struct CodeRef {
  int func = -1;
  int block = -1;
  int instr = -1;
  bool operator==(const CodeRef&) const = default;
  auto operator<=>(const CodeRef&) const = default;
};

/// Per-instruction dynamic event (Instrumentation II).
struct InstrEvent {
  CodeRef ref;
  const ir::Instr* instr = nullptr;
  i64 result = 0;    ///< value produced (valid when instr writes a register)
  bool has_result = false;
  i64 address = 0;   ///< effective address (valid for load/store)
};

/// Instrumentation interface — the moral equivalent of the QEMU-plugin API
/// the paper extends [30]. Default implementations ignore everything, so
/// observers override only the events they need.
class Observer {
 public:
  virtual ~Observer() = default;
  /// Control transferred between blocks of the same function (jump event).
  virtual void on_local_jump(int func, int dst_bb) {
    (void)func;
    (void)dst_bb;
  }
  /// A call is being made; execution continues in the callee's entry block.
  virtual void on_call(CodeRef callsite, int callee) {
    (void)callsite;
    (void)callee;
  }
  /// A return from `callee` landing back in `into` (the callsite's block).
  virtual void on_return(int callee, CodeRef into) {
    (void)callee;
    (void)into;
  }
  /// Every retired instruction (including the control instructions above).
  virtual void on_instr(const InstrEvent& ev) { (void)ev; }
};

/// Aggregate execution statistics (drives the %ops/%Mops/%FPops columns of
/// the paper's Table 5 and the cycle model behind simulated speedups).
struct RunStats {
  u64 instructions = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 fp_ops = 0;
  u64 calls = 0;
  u64 cycles = 0;             ///< cost-model cycles (cache-aware)
  u64 cache_misses = 0;
  std::vector<u64> per_function_instrs;  ///< indexed by function id
};

/// Result of a VM run.
struct RunResult {
  i64 exit_value = 0;
  RunStats stats;
  /// The run stopped at the step cap instead of program exit. Partial
  /// stats are still valid — step-capped profiling reports partial
  /// results rather than dying (degrade-don't-die).
  bool truncated = false;
  std::string truncate_reason;
};

/// Cost-model configuration: a set-associative LRU cache (associativity
/// avoids the pathological aliasing a direct-mapped model shows when
/// same-sized arrays interleave).
struct CostModel {
  u64 cache_lines = 512;   ///< total lines (512 x 64B = 32 KiB)
  u64 line_bytes = 64;
  u64 ways = 8;
  u64 miss_penalty = 30;   ///< extra cycles on a miss (memory-bound model)
};

/// Interpreter for mini-ISA modules. Memory is a flat byte-addressable
/// space holding the module's data segment plus `extra_heap_bytes`.
class Machine {
 public:
  explicit Machine(const ir::Module& m, i64 extra_heap_bytes = 1 << 20);

  /// Install an observer (may be null to profile nothing).
  void set_observer(Observer* obs) { observer_ = obs; }
  void set_cost_model(const CostModel& cm) { cost_ = cm; }

  /// Cooperative cancellation: run() polls the token every ~2048 steps
  /// (a fixed cadence — a pre-fired token truncates at a deterministic
  /// step ordinal) and stops with a truncated RunResult,
  /// exactly like the step cap. May be null (default: never cancelled).
  void set_cancel(support::CancelToken* cancel) { cancel_ = cancel; }

  /// Run `entry` with the given arguments; throws pp::Error on traps
  /// (bad address, division by zero). Exhausting `max_steps` is NOT a
  /// trap: the run stops and returns a truncated RunResult.
  RunResult run(const std::string& entry, const std::vector<i64>& args = {},
                u64 max_steps = 500'000'000);

  /// Stats accumulated by the current/last run. Valid even after a trap
  /// unwound run() — the pipeline recovers partial accounting from here.
  const RunStats& stats() const { return stats_; }

  /// Direct word access for test setup/inspection (byte address, 8-aligned).
  i64 read_word(i64 addr) const;
  void write_word(i64 addr, i64 value);

  /// The full word-granular memory image (data segment + heap). Two runs
  /// computed the same observable state iff their images are identical —
  /// pp::transform's output-identity contract compares exactly this.
  std::span<const i64> memory_image() const { return memory_; }

 private:
  struct Frame {
    int func;
    int block;
    int instr;
    ir::Reg ret_dst;
    CodeRef callsite;  ///< where this frame was called from
    std::vector<i64> regs;
  };

  i64 mem_load(i64 addr);
  void mem_store(i64 addr, i64 value);
  u64 access_cost(i64 addr);

  const ir::Module& module_;
  std::vector<i64> memory_;  ///< word-granular backing store
  Observer* observer_ = nullptr;
  support::CancelToken* cancel_ = nullptr;
  CostModel cost_;
  std::vector<u64> cache_tags_;
  RunStats stats_;
};

}  // namespace pp::vm
