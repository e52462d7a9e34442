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

/// Byte-serializer feeding the FNV-1a cache key. Length-prefixed strings
/// and fixed-width little-endian integers: no two distinct (module,
/// options) pairs serialize to the same byte string by construction.
struct FingerprintBuf {
  std::string bytes;

  void u(u64 v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  }
  void s(i64 v) { u(static_cast<u64>(v)); }
  void str(const std::string& v) {
    u(v.size());
    bytes += v;
  }
};

void serialize_module(FingerprintBuf& fp, const ir::Module& m) {
  fp.u(m.functions.size());
  for (const ir::Function& f : m.functions) {
    fp.str(f.name);
    fp.str(f.source_file);
    fp.s(f.num_args);
    fp.s(f.num_regs);
    fp.u(f.blocks.size());
    for (const ir::BasicBlock& bb : f.blocks) {
      fp.u(bb.instrs.size());
      for (const ir::Instr& in : bb.instrs) {
        fp.s(static_cast<i64>(in.op));
        fp.s(in.dst);
        fp.s(in.a);
        fp.s(in.b);
        fp.s(in.imm);
        fp.s(in.imm2);
        fp.u(in.args.size());
        for (ir::Reg r : in.args) fp.s(r);
      }
    }
  }
  fp.u(m.globals.size());
  for (const ir::Global& g : m.globals) {
    fp.str(g.name);
    fp.s(g.address);
    fp.s(g.size_bytes);
    fp.u(g.init_words.size());
    for (i64 w : g.init_words) fp.s(w);
  }
  fp.s(m.data_segment_size);
}

}  // namespace

u64 Server::fingerprint(const JobRequest& req) {
  FingerprintBuf fp;
  if (req.module != nullptr) serialize_module(fp, *req.module);
  const core::PipelineOptions& p = req.pipeline;
  fp.str(req.name);
  fp.str(p.entry);
  fp.u(p.args.size());
  for (i64 a : p.args) fp.s(a);
  fp.u(p.max_steps);
  fp.u(p.ddg.track_anti_output ? 1 : 0);
  fp.u(p.ddg.clamp_instances);
  fp.u(p.fold.count_cap);
  fp.u(p.fold.max_pieces);
  fp.u(p.fold.max_open_chunks);
  fp.u(p.fold.use_octagon ? 1 : 0);
  fp.u(p.fold.stride_runs ? 1 : 0);
  fp.u(p.budget.wall_ms);
  fp.u(p.budget.vm_steps);
  fp.u(p.budget.shadow_pages);
  fp.u(p.budget.coord_pool_words);
  fp.u(p.budget.folder_pieces);
  fp.u(static_cast<u64>(p.chaos.kind));
  fp.u(p.chaos.seed);
  fp.u(p.chaos.min_events);
  fp.u(p.chaos.window);
  fp.u(static_cast<u64>(p.chaos.service));
  fp.u(p.verify_module ? 1 : 0);
  fp.u(p.observe ? 1 : 0);
  // The transformation engine adds a `-- transformation --` section whose
  // content depends on every engine knob.
  fp.u(p.apply_transforms ? 1 : 0);
  fp.s(p.transform.tile);
  fp.u(p.transform.cost.cache_lines);
  fp.u(p.transform.cost.line_bytes);
  fp.u(p.transform.cost.ways);
  fp.u(p.transform.cost.miss_penalty);
  fp.u(p.transform.max_steps);
  fp.u(p.transform.run_oracle ? 1 : 0);
  fp.u(p.transform.force ? 1 : 0);
  fp.s(static_cast<i64>(req.min_fraction * 1e9));
  fp.s(req.max_attempts);
  fp.u(req.chaos_transient ? 1 : 0);
  return obs::fnv1a(fp.bytes);
}

Server::Server(ServerOptions opts) : opts_(opts) {
  if (opts_.executors == 0) opts_.executors = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  opts_.high_watermark = std::min(opts_.high_watermark, opts_.queue_capacity);
  opts_.low_watermark = std::min(opts_.low_watermark, opts_.high_watermark);
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
    } else {
      job->fp_ = fingerprint(job->req_);
      auto it = opts_.cache ? cache_.find(job->fp_) : cache_.end();
      if (opts_.cache && it != cache_.end()) {
        ++stats_.cache_hits;
        obs_.add("service.cache_hits");
        immediate.state = JobState::kCompleted;
        immediate.from_cache = true;
        immediate.attempts = 0;
        immediate.report = it->second->report;
        immediate.report_fingerprint = it->second->report_fingerprint;
        immediate.outcome_line =
            "completed (cache hit, report fingerprint " +
            hex64(it->second->report_fingerprint) + ")";
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
        if (queue_.size() + 1 >= opts_.high_watermark) overloaded_ = true;
        job->downgraded_ = overloaded_;
        if (job->downgraded_) {
          ++stats_.downgraded;
          obs_.add("service.downgraded");
        }
        if (job->req_.deadline_ms != 0) {
          job->token_.set_deadline_in_ms(job->req_.deadline_ms);
          armed_deadline = true;
        }
        queue_.push_back(job);
        live_.push_back(job);
        stats_.queue_depth = queue_.size();
        stats_.max_queue_depth =
            std::max(stats_.max_queue_depth, queue_.size());
      }
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
      if (queue_.size() < opts_.low_watermark) overloaded_ = false;
    }
    run_job(job);
  }
}

void Server::run_job(const JobHandle& job) {
  obs::Span span(&obs_, "service:job");
  obs_.add("service.jobs_run");

  core::PipelineOptions popts = job->req_.pipeline;
  popts.cancel = &job->token_;
  core::ReportOptions ropts;
  ropts.min_fraction = job->req_.min_fraction;
  if (job->downgraded_) {
    // Overload downgrade: one over-approximate piece per stream, no
    // soundness oracle. Still a sound profile, just lower fidelity.
    popts.fold.max_pieces = 1;
    ropts.run_oracle = false;
  }

  JobOutcome out;
  out.downgraded = job->downgraded_;
  int attempt = 0;
  for (;;) {
    if (job->token_.poll()) {
      const bool deadline =
          job->token_.reason() == support::CancelReason::kDeadline;
      out.state = deadline ? JobState::kDeadlineExpired : JobState::kCancelled;
      out.attempts = attempt;
      out.outcome_line = std::string(deadline ? "deadline expired"
                                              : "cancelled") +
                         (attempt == 0 ? " before the job started"
                                       : " while backing off before retry");
      finish(job, std::move(out));
      return;
    }
    ++attempt;
    core::ProfileResult r = core::Pipeline(*job->req_.module).run(popts);
    out.attempts = attempt;
    out.truncated = r.truncated;

    const support::CancelReason reason = job->token_.reason();
    if (reason != support::CancelReason::kNone) {
      // Stopped by the token: terminal, never retried. The partial report
      // is still rendered — degrade-don't-die applies to the service too.
      out.report = core::full_report(r, ropts);
      out.report_fingerprint = obs::fnv1a(out.report);
      out.manifest = manifest_for(job, r, out);
      const bool deadline = reason == support::CancelReason::kDeadline;
      out.state = deadline ? JobState::kDeadlineExpired : JobState::kCancelled;
      out.outcome_line =
          std::string(deadline ? "deadline expired" : "cancelled") +
          " after " + std::to_string(attempt) +
          " attempt(s) — diagnosed partial report delivered";
      finish(job, std::move(out));
      return;
    }

    if (!r.truncated) {
      out.report = core::full_report(r, ropts);
      out.report_fingerprint = obs::fnv1a(out.report);
      out.manifest = manifest_for(job, r, out);
      out.state = JobState::kCompleted;
      out.outcome_line =
          "completed clean after " + std::to_string(attempt) + " attempt(s)" +
          (job->downgraded_
               ? " (downgraded under overload: folder collapsed to one "
                 "piece per stream, oracle disabled)"
               : "");
      const bool chaos_free =
          popts.chaos.kind == vm::FaultKind::kNone &&
          popts.chaos.service == vm::ServiceFault::kNone;
      if (opts_.cache && chaos_free && !job->downgraded_) {
        auto entry = std::make_shared<CacheEntry>();
        entry->report = out.report;
        entry->report_fingerprint = out.report_fingerprint;
        entry->attempts = attempt;
        std::lock_guard<std::mutex> lk(mu_);
        cache_[job->fp_] = std::move(entry);
      }
      finish(job, std::move(out));
      return;
    }

    // Truncated but not cancelled. Chaos faults and wall-budget trips are
    // the transient classes; everything else (step limits, hard resource
    // caps) is deterministic and retrying cannot help.
    const bool transient = popts.chaos.kind != vm::FaultKind::kNone ||
                           popts.chaos.service != vm::ServiceFault::kNone ||
                           popts.budget.wall_ms != 0;
    if (transient && attempt < job->req_.max_attempts) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.retries;
      }
      obs_.add("service.retries");
      if (job->req_.chaos_transient) popts.chaos = vm::ChaosOptions{};
      // Exponential backoff, interruptible at ~1 ms granularity so a
      // cancel or deadline firing mid-backoff is honored promptly.
      const u64 backoff_ms = opts_.retry_backoff_ms << (attempt - 1);
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(backoff_ms);
      while (std::chrono::steady_clock::now() < until &&
             !job->token_.poll())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }

    out.report = core::full_report(r, ropts);
    out.report_fingerprint = obs::fnv1a(out.report);
    out.manifest = manifest_for(job, r, out);
    out.state = JobState::kCompleted;
    out.outcome_line =
        "completed with a diagnosed partial profile (truncated; " +
        std::to_string(attempt) + " attempt(s)" +
        (transient && job->req_.max_attempts > 1 ? ", retries exhausted"
                                                 : "") +
        ")";
    finish(job, std::move(out));
    return;
  }
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
        if (!outcome.from_cache) {
          ++stats_.completed;
          obs_.add("service.completed");
        }
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
