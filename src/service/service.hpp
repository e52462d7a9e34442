// pp::service — profiling as a service. A long-running in-process Server
// accepts profiling jobs (module + workload + PipelineOptions) on a
// bounded queue, runs them on a fixed set of executor threads — each
// executor runs one job at a time, start to finish, and the run itself is
// serial — and returns a Job handle the client waits on. This is the only
// place in the profiler where threads run concurrently. One job is one
// pipeline run: the report a job delivers is the report a direct
// core::Pipeline::run + full_report of the same request gives. Robustness
// is the contract:
//
//  * cancellation — every job owns a support::CancelToken plumbed through
//    core::Pipeline::run; Job::cancel() or an expired deadline stops the
//    job at its next checkpoint with a diagnosed partial report;
//  * deadlines — JobRequest::deadline_ms arms the token's deadline and a
//    watchdog thread fires tokens of jobs wedged between checkpoints;
//  * admission control — a bounded queue sheds jobs when full, with a
//    deterministic outcome line;
//  * observability — a service-level pp::obs session counts submissions,
//    completions, sheds, cancels and queue depth; observed jobs
//    additionally produce a per-job run manifest (JobOutcome::manifest).
//
// A truncated run (budget trip, chaos fault) delivers its diagnosed
// partial report; a client that wants another try resubmits.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "support/cancel.hpp"

namespace pp::service {

/// One profiling job. The module must outlive the job's completion.
struct JobRequest {
  const ir::Module* module = nullptr;
  std::string name = "job";  ///< workload label (manifest + outcome lines)
  core::PipelineOptions pipeline;
  /// Report rendering threshold (ReportOptions::min_fraction).
  double min_fraction = 0.05;
  /// Whole-job deadline in milliseconds, queueing included (0 = none).
  u64 deadline_ms = 0;
};

enum class JobState : std::uint8_t {
  kQueued,           ///< admitted, waiting for an executor
  kRunning,          ///< on an executor
  kCompleted,        ///< report delivered (possibly a diagnosed partial)
  kCancelled,        ///< stopped by Job::cancel()
  kDeadlineExpired,  ///< stopped by the deadline
  kShed,             ///< rejected at admission (queue full / shutdown)
};
const char* job_state_name(JobState s);

/// Everything the service delivers for one job.
struct JobOutcome {
  JobState state = JobState::kQueued;
  bool truncated = false;      ///< the delivered report is a partial profile
  std::string report;          ///< full_report text ("" for shed jobs)
  u64 report_fingerprint = 0;  ///< FNV-1a of `report` (0 when empty)
  /// One deterministic line describing how the job ended — sheds,
  /// truncations and cancellations all surface here.
  std::string outcome_line;
  /// Per-job pp::obs run manifest (observed jobs only; "" otherwise).
  std::string manifest;
};

/// Client handle: wait()/done()/cancel(). Created only by Server::submit.
class Job {
 public:
  /// Block until the job reaches a terminal state.
  const JobOutcome& wait();
  bool done() const;
  /// Request cancellation (first checkpoint stops the job). Idempotent;
  /// a no-op once the job is terminal.
  void cancel() { token_.cancel(); }

  support::CancelToken& token() { return token_; }
  const JobRequest& request() const { return req_; }

 private:
  friend class Server;
  explicit Job(JobRequest req) : req_(std::move(req)) {}

  JobRequest req_;
  support::CancelToken token_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  JobOutcome outcome_;
};
using JobHandle = std::shared_ptr<Job>;

struct ServerOptions {
  /// Executor threads = concurrently RUNNING jobs (each job is serial).
  unsigned executors = 2;
  /// Admission bound: submissions finding this many QUEUED jobs are shed.
  std::size_t queue_capacity = 32;
  /// Observe every job (per-job obs session + manifest) — independent of
  /// the per-job PipelineOptions::observe flag, which also works.
  bool observe_jobs = false;
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();  ///< drains the queue, then joins all threads

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit a job. Never blocks on profiling work: shed rejections
  /// complete the returned handle immediately.
  JobHandle submit(JobRequest req);

  /// Stop accepting jobs and wait for queued+running ones to finish.
  /// With `cancel_pending`, queued and running jobs are cancelled first.
  void shutdown(bool cancel_pending = false);

  /// Deterministic service counters (snapshot).
  struct Stats {
    u64 submitted = 0;         ///< admitted jobs (sheds excluded)
    u64 completed = 0;         ///< jobs that reached kCompleted
    u64 cancelled = 0;
    u64 deadline_expired = 0;
    u64 shed = 0;
    std::size_t queue_depth = 0;
    std::size_t max_queue_depth = 0;
  };
  Stats stats() const;

  /// Service-level observability session ("service.*" counters, one
  /// "service:job" span per executed job).
  const obs::Session& observability() const { return obs_; }

 private:
  void executor_loop();
  void watchdog_loop();
  void run_job(const JobHandle& job);
  void finish(const JobHandle& job, JobOutcome outcome);
  std::string manifest_for(const JobHandle& job, const core::ProfileResult& r,
                           const JobOutcome& out);

  ServerOptions opts_;
  obs::Session obs_{true};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      ///< executors wait here
  std::condition_variable watchdog_cv_;  ///< watchdog waits here
  std::deque<JobHandle> queue_;
  std::vector<JobHandle> live_;  ///< admitted, not yet terminal (watchdog)
  Stats stats_;
  bool stopping_ = false;

  std::vector<std::thread> executors_;
  std::thread watchdog_;
  std::mutex join_mu_;  ///< serializes concurrent shutdown() calls
};

}  // namespace pp::service
