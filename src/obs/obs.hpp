// pp::obs — self-observability for the profiler itself. POLY-PROF is a
// heavy multi-stage pipeline; this subsystem answers "where did this run
// go?" at runtime with the same per-stage accounting the paper's Table 5
// reports offline (trace, IIV, DDG, fold, scheduler).
//
//  * Span: RAII wall+CPU timer, nestable, recorded into per-thread
//    buffers (no lock on the record path after a thread's first span) and
//    merged deterministically at export time.
//  * Counters: named monotonic counters / final gauges (events consumed,
//    shadow pages live, CoordPool occupancy, fold pieces, cache hits).
//    Each counter is tagged with a Stability: kStable values are
//    functions of the profiled execution alone (safe for the --stable
//    golden report), kTiming values are not (cache hit patterns, which
//    path decided a check, anything measured in seconds).
//  * Exporters: Chrome trace_event JSON (loadable in Perfetto /
//    chrome://tracing) and a flat run-manifest JSON for downstream
//    machine consumption (stage wall/CPU table, counter finals, budget &
//    degradation state, report fingerprint).
//
// Overhead contract: a disabled Session records nothing — every entry
// point is a branch on a constant bool (verified by bench/obs_overhead);
// constructing Spans against a null Session* is equally free, so call
// sites need no #ifdefs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/int_math.hpp"

namespace pp::obs {

/// Monotonic nanoseconds (steady clock) — the span time base.
u64 now_ns();
/// CPU nanoseconds consumed by the calling thread (0 where unsupported).
u64 thread_cpu_ns();

/// FNV-1a over bytes — the run manifest's report fingerprint.
u64 fnv1a(std::string_view bytes);

/// Whether a counter's final value is a function of the profiled execution
/// alone. Only kStable counters appear in the --stable report section
/// (which must stay byte-identical across runs).
enum class Stability : std::uint8_t { kStable, kTiming };

/// One closed span. `name` is a static string (span names are compile-time
/// literals at every call site).
struct SpanRec {
  const char* name = nullptr;
  std::uint32_t tid = 0;       ///< logical thread id (per-session registration order)
  u64 start_ns = 0;  ///< relative to the session epoch
  u64 dur_ns = 0;
  u64 cpu_ns = 0;    ///< thread CPU time consumed inside the span
};

class Session;

/// RAII span timer. Inactive (and free) when constructed against a null
/// or disabled Session. Move-only; end() closes early.
class Span {
 public:
  Span() = default;
  Span(Session* session, const char* name);
  Span(Span&& o) noexcept { swap(o); }
  Span& operator=(Span&& o) noexcept {
    end();
    swap(o);
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Record the span now (idempotent).
  void end();
  bool active() const { return session_ != nullptr; }

 private:
  void swap(Span& o) {
    std::swap(session_, o.session_);
    std::swap(name_, o.name_);
    std::swap(start_ns_, o.start_ns_);
    std::swap(cpu_start_ns_, o.cpu_start_ns_);
  }

  Session* session_ = nullptr;
  const char* name_ = nullptr;
  u64 start_ns_ = 0;
  u64 cpu_start_ns_ = 0;
};

/// Everything observed about one profiling run. Thread-safe: spans record
/// into per-thread buffers (registered once per thread per session),
/// counters are atomic. Export members merge the buffers in a
/// deterministic order (start time, then tid, then name).
class Session {
 public:
  explicit Session(bool enabled = true);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span; equivalent to Span(this, name).
  Span span(const char* name) { return Span(this, name); }

  /// Add `delta` to the named monotonic counter (created on first touch;
  /// the first touch fixes the stability tag).
  void add(const char* name, i64 delta = 1,
           Stability st = Stability::kStable);
  /// Set the named gauge to its final value.
  void set(const char* name, i64 value, Stability st = Stability::kStable);
  /// Raise the named high-watermark gauge to at least `value`.
  void gauge_max(const char* name, i64 value,
                 Stability st = Stability::kTiming);

  struct CounterVal {
    i64 value = 0;
    Stability stability = Stability::kStable;
  };
  /// Name-sorted snapshot of every counter.
  std::map<std::string, CounterVal> counters() const;

  /// All closed spans, merged across threads, sorted by
  /// (start_ns, tid, name) — a deterministic order for any interleaving.
  std::vector<SpanRec> merged_spans() const;

  /// Top-level pipeline stages: spans named "stage:*", in start order.
  std::vector<SpanRec> stage_spans() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): one complete ("X")
  /// event per span, one counter ("C") sample per counter final, plus
  /// process/thread name metadata. Loadable in Perfetto.
  std::string chrome_trace_json(
      const std::string& process_name = "poly-prof") const;

  /// Caller-supplied context stamped into the run manifest.
  struct ManifestExtra {
    std::string workload;
    bool truncated = false;
    u64 degraded_statements = 0;
    u64 diagnostics = 0;
    std::string budget_state;         ///< e.g. "unlimited" / "pieces=24"
    std::string report_fingerprint;   ///< hex FNV-1a of full_report
  };
  /// Flat run manifest: stage wall/CPU table, counter finals, degradation
  /// state — the machine-readable artifact downstream tooling consumes.
  std::string manifest_json(const ManifestExtra& extra) const;
  std::string manifest_json() const;

  /// The full_report "-- self profile --" body. With `stable`, wall/CPU
  /// times are elided ("-") and only kStable counters are printed, so the
  /// section is byte-identical across runs.
  std::string self_profile_section(bool stable) const;

 private:
  friend class Span;

  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<SpanRec> spans;
  };
  struct Counter {
    std::atomic<i64> value{0};
    Stability stability = Stability::kStable;
  };

  /// The calling thread's buffer for this session (registered on first
  /// use; subsequent spans from the thread are lock-free).
  ThreadBuf* local_buf();
  Counter& counter(const char* name, Stability st);

  bool enabled_;
  u64 gen_ = 0;       ///< globally unique session generation (TLS keying)
  u64 epoch_ns_ = 0;  ///< steady-clock zero of the session

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace pp::obs
