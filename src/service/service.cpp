#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace pp::service {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDeadlineExpired: return "deadline-expired";
    case JobState::kShed: return "shed";
  }
  return "?";
}

const JobOutcome& Job::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_; });
  return outcome_;
}

bool Job::done() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_;
}

namespace {

std::string hex64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Server::Server(ServerOptions opts) : opts_(opts) {
  if (opts_.executors == 0) opts_.executors = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  executors_.reserve(opts_.executors);
  for (unsigned i = 0; i < opts_.executors; ++i)
    executors_.emplace_back([this] { executor_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Server::~Server() { shutdown(); }

JobHandle Server::submit(JobRequest req) {
  if (opts_.observe_jobs) req.pipeline.observe = true;
  JobHandle job(new Job(std::move(req)));
  JobOutcome immediate;
  bool deliver_now = false;
  bool armed_deadline = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      immediate.state = JobState::kShed;
      immediate.outcome_line = "shed: server shutting down";
      deliver_now = true;
    } else if (job->req_.module == nullptr) {
      immediate.state = JobState::kShed;
      immediate.outcome_line = "shed: request carries no module";
      deliver_now = true;
    } else if (job->req_.pipeline.chaos.service ==
               vm::ServiceFault::kQueueFull) {
      immediate.state = JobState::kShed;
      immediate.outcome_line =
          "shed: queue full (chaos-injected admission rejection)";
      deliver_now = true;
    } else if (queue_.size() >= opts_.queue_capacity) {
      immediate.state = JobState::kShed;
      immediate.outcome_line =
          "shed: queue full (depth " + std::to_string(queue_.size()) +
          ", capacity " + std::to_string(opts_.queue_capacity) + ")";
      deliver_now = true;
    } else {
      ++stats_.submitted;
      obs_.add("service.submitted");
      if (job->req_.deadline_ms != 0) {
        job->token_.set_deadline_in_ms(job->req_.deadline_ms);
        armed_deadline = true;
      }
      queue_.push_back(job);
      live_.push_back(job);
      stats_.queue_depth = queue_.size();
      stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    }
  }
  if (deliver_now) {
    finish(job, std::move(immediate));
    return job;
  }
  work_cv_.notify_one();
  if (armed_deadline) watchdog_cv_.notify_one();
  return job;
}

void Server::executor_loop() {
  for (;;) {
    JobHandle job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = queue_.front();
      queue_.pop_front();
      stats_.queue_depth = queue_.size();
    }
    run_job(job);
  }
}

void Server::run_job(const JobHandle& job) {
  obs::Span span(&obs_, "service:job");
  obs_.add("service.jobs_run");

  JobOutcome out;
  if (job->token_.poll()) {
    const bool deadline =
        job->token_.reason() == support::CancelReason::kDeadline;
    out.state = deadline ? JobState::kDeadlineExpired : JobState::kCancelled;
    out.outcome_line = std::string(deadline ? "deadline expired"
                                            : "cancelled") +
                       " before the job started";
    finish(job, std::move(out));
    return;
  }

  core::PipelineOptions popts = job->req_.pipeline;
  popts.cancel = &job->token_;
  core::ProfileResult r = core::Pipeline(*job->req_.module).run(popts);
  // Degrade-don't-die applies to the service too: a truncated or
  // cancelled run still renders its diagnosed partial report.
  out.truncated = r.truncated;
  out.report =
      core::full_report(r, core::ReportOptions{job->req_.min_fraction});
  out.report_fingerprint = obs::fnv1a(out.report);
  out.manifest = manifest_for(job, r, out);

  // Read the token after rendering: a deadline that fires inside
  // full_report (the oracle then reports itself skipped) is not "clean".
  const support::CancelReason reason = job->token_.reason();
  if (reason != support::CancelReason::kNone) {
    const bool deadline = reason == support::CancelReason::kDeadline;
    out.state = deadline ? JobState::kDeadlineExpired : JobState::kCancelled;
    out.outcome_line =
        std::string(deadline ? "deadline expired" : "cancelled") +
        " — diagnosed partial report delivered";
  } else {
    out.state = JobState::kCompleted;
    out.outcome_line =
        r.truncated ? "completed with a diagnosed partial profile (truncated)"
                    : "completed clean";
  }
  finish(job, std::move(out));
}

std::string Server::manifest_for(const JobHandle& job,
                                 const core::ProfileResult& r,
                                 const JobOutcome& out) {
  if (r.obs == nullptr) return "";
  obs::Session::ManifestExtra extra;
  extra.workload = job->req_.name;
  extra.truncated = r.truncated;
  extra.degraded_statements = r.program.degraded_statements;
  extra.diagnostics = r.diagnostics.size();
  extra.report_fingerprint = hex64(out.report_fingerprint);
  return r.obs->manifest_json(extra);
}

void Server::finish(const JobHandle& job, JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    switch (outcome.state) {
      case JobState::kCompleted:
        ++stats_.completed;
        obs_.add("service.completed");
        break;
      case JobState::kCancelled:
        ++stats_.cancelled;
        obs_.add("service.cancelled");
        break;
      case JobState::kDeadlineExpired:
        ++stats_.deadline_expired;
        obs_.add("service.deadline_expired");
        break;
      case JobState::kShed:
        ++stats_.shed;
        obs_.add("service.shed");
        break;
      default:
        break;
    }
    live_.erase(std::remove(live_.begin(), live_.end(), job), live_.end());
  }
  {
    std::lock_guard<std::mutex> jlk(job->mu_);
    job->outcome_ = std::move(outcome);
    job->done_ = true;
  }
  job->cv_.notify_all();
  watchdog_cv_.notify_one();
}

void Server::watchdog_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Nearest pending deadline among live jobs whose token has not fired
    // yet (a fired token is out of the watchdog's hands — the running
    // pipeline honors it at its next checkpoint).
    bool have = false;
    std::chrono::steady_clock::time_point nearest{};
    for (const JobHandle& j : live_) {
      if (!j->token_.has_deadline() || j->token_.cancelled()) continue;
      const auto d = j->token_.deadline();
      if (!have || d < nearest) {
        nearest = d;
        have = true;
      }
    }
    if (!have) {
      if (stopping_ && live_.empty()) return;
      watchdog_cv_.wait(lk);
      continue;
    }
    watchdog_cv_.wait_until(lk, nearest);
    const auto now = std::chrono::steady_clock::now();
    for (const JobHandle& j : live_)
      if (j->token_.has_deadline() && !j->token_.cancelled() &&
          j->token_.deadline() <= now) {
        j->token_.expire();
        obs_.add("service.watchdog_expirations", 1,
                 obs::Stability::kTiming);
      }
  }
}

void Server::shutdown(bool cancel_pending) {
  std::vector<JobHandle> to_cancel;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    if (cancel_pending) to_cancel = live_;
  }
  for (const JobHandle& j : to_cancel) j->token_.cancel();
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  std::lock_guard<std::mutex> jlk(join_mu_);
  for (std::thread& t : executors_)
    if (t.joinable()) t.join();
  if (watchdog_.joinable()) watchdog_.join();
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace pp::service
