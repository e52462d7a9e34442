// Cooperative cancellation — the robustness substrate for pp::service.
// A CancelToken is a thread-safe, monotonic "stop now" flag with an
// optional deadline. The pipeline checks it at stage boundaries, the VM at
// a fixed step cadence, the fold stage before every statement and edge,
// and the scheduler/oracle per fused group / region; a fired token
// degrades the run to a diagnosed partial result (degrade-don't-die), it
// never aborts. It stays thread-safe because the run's thread is not the
// only one touching it: clients cancel and the service watchdog expires
// deadlines from their own threads.
//
// The token never un-fires: once cancelled, every observer — on any
// thread — eventually sees it, and the first reason to fire wins. poll()
// is the checkpoint primitive (it also evaluates the deadline, so
// deadlines work without a watchdog); cancelled() is the cheap probe (one
// acquire load, no clock read) for code between checkpoints.
#pragma once

#include <atomic>
#include <chrono>

#include "support/int_math.hpp"

namespace pp::support {

enum class CancelReason : std::uint8_t {
  kNone = 0,
  kCancel,    ///< explicit client/server cancellation
  kDeadline,  ///< the job's deadline passed
};
const char* cancel_reason_name(CancelReason r);

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fire the token (idempotent; the first reason wins).
  void cancel(CancelReason r = CancelReason::kCancel) {
    std::uint8_t expected = 0;
    state_.compare_exchange_strong(expected, static_cast<std::uint8_t>(r),
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
  }
  /// Fire as an expired deadline (what a watchdog calls).
  void expire() { cancel(CancelReason::kDeadline); }

  /// Arm a deadline `ms` from now (steady clock). poll() fires the token
  /// once the deadline passes; a watchdog thread may fire it earlier via
  /// expire() so jobs wedged between checkpoints still observe it at the
  /// very next one.
  void set_deadline_in_ms(u64 ms) {
    auto tp = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    deadline_ns_.store(tp.time_since_epoch().count(),
                       std::memory_order_release);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != 0;
  }
  std::chrono::steady_clock::time_point deadline() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            deadline_ns_.load(std::memory_order_acquire)));
  }

  /// Cheap probe: has the token fired? One acquire load; never reads the
  /// clock, so a not-yet-polled expired deadline is not observed here.
  bool cancelled() const {
    return state_.load(std::memory_order_acquire) != 0;
  }

  /// Checkpoint probe: cancelled(), or the deadline passed (which fires
  /// the token as kDeadline). This is what stage boundaries call.
  bool poll() {
    if (cancelled()) return true;
    i64 dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= dl) {
      expire();
      return true;
    }
    return false;
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(state_.load(std::memory_order_acquire));
  }
  const char* reason_name() const { return cancel_reason_name(reason()); }

 private:
  std::atomic<std::uint8_t> state_{0};
  std::atomic<i64> deadline_ns_{0};  ///< steady-clock ns; 0 = no deadline
};

}  // namespace pp::support
