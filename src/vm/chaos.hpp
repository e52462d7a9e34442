// Fault-injection harness for the instrumentation stream. A ChaosObserver
// wraps a real observer chain and corrupts the event stream at a
// seeded-RNG-chosen point: truncating it, fabricating an unmatched return,
// misaligning an effective address, or emitting out-of-range ids. It is
// the adversarial producer the EventValidator + stage-isolating pipeline
// are tested against (tests/core/fault_injection_test.cpp): every injected
// fault must surface as a diagnosed partial ProfileResult, never as an
// uncaught pp::Error or a silently-wrong report.
#pragma once

#include "vm/vm.hpp"

namespace pp::vm {

enum class FaultKind : std::uint8_t {
  kNone,             ///< pass-through (harness disabled)
  kTruncate,         ///< stop forwarding mid-stream
  kUnmatchedReturn,  ///< fabricate a return that matches no open call
  kMisalign,         ///< corrupt the next load/store effective address
  kBadFunc,          ///< jump event naming an out-of-range function id
  kBadBlock,         ///< jump event naming an out-of-range block id
};

const char* fault_kind_name(FaultKind k);

/// Service-level fault points — the failure surface pp::service adds on
/// top of the event-stream faults above. These don't corrupt events; they
/// fire a job's CancelToken (or shed it) at a deterministic structural
/// point, so cancellation paths are testable with reproducible partial
/// reports (unlike a wall-clock cancel, which lands wherever the race
/// does).
enum class ServiceFault : std::uint8_t {
  kNone,              ///< no service fault injected
  kCancelAtControl,   ///< cancel fired at the stage-1 boundary
  kCancelAtDdg,       ///< cancel fired at the stage-2 boundary
  kCancelAtFold,      ///< cancel fired at the fold boundary
  kCancelAtFeedback,  ///< cancel fired entering stage 4 (report/oracle)
  kDeadlineMidFold,   ///< deadline expires at a seeded fold position
  kQueueFull,         ///< service admission rejects as if the queue were full
};

const char* service_fault_name(ServiceFault f);

struct ChaosOptions {
  FaultKind kind = FaultKind::kNone;
  u64 seed = 1;          ///< drives the injection point deterministically
  u64 min_events = 8;    ///< earliest event ordinal eligible for injection
  u64 window = 64;       ///< point drawn uniformly from [min, min+window)
  /// Service fault point (independent of `kind`; needs a CancelToken on
  /// the run for every point except kQueueFull).
  ServiceFault service = ServiceFault::kNone;
};

class ChaosObserver : public Observer {
 public:
  ChaosObserver(Observer* inner, ChaosOptions opts);

  void on_local_jump(int func, int dst_bb) override;
  void on_call(CodeRef callsite, int callee) override;
  void on_return(int callee, CodeRef into) override;
  void on_instr(const InstrEvent& ev) override;

  bool injected() const { return injected_; }

 private:
  /// Advance the event counter; returns true when the fault fires now.
  bool tick();

  Observer* inner_;
  ChaosOptions opts_;
  u64 events_ = 0;
  u64 trigger_ = 0;
  bool armed_misalign_ = false;  ///< waiting for the next memory event
  bool injected_ = false;
  bool dead_ = false;  ///< truncation: drop everything from here on
  int cur_func_ = 0;   ///< last observed function (for kBadBlock)
};

}  // namespace pp::vm
