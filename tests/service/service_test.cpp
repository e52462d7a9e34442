// pp::service contract tests: jobs submitted to the Server come back with
// the same byte-identical reports the library produces one-shot; cancels,
// deadlines, sheds and overload downgrades all land as *diagnosed*
// terminal outcomes, never hangs or throws; identical resubmissions are
// served from the result cache without re-profiling.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workloads/workloads.hpp"

namespace pp::service {
namespace {

// One-shot library reference for a workload: what the service must match.
std::string serial_report(const ir::Module& m,
                          const core::PipelineOptions& base = {},
                          double min_fraction = 0.05) {
  core::ProfileResult r = core::Pipeline(m).run(base);
  return core::full_report(r, core::ReportOptions{min_fraction});
}

JobRequest request_for(const ir::Module& m, const std::string& name) {
  JobRequest req;
  req.module = &m;
  req.name = name;
  return req;
}

TEST(Service, SubmittedJobMatchesSerialReport) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  Server server;

  JobHandle job = server.submit(request_for(wl.module, "pathfinder"));
  const JobOutcome& out = job->wait();

  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_FALSE(out.from_cache);
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.report, serial_report(wl.module));
  EXPECT_EQ(out.report_fingerprint, obs::fnv1a(out.report));

  Server::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.shed, 0u);
}

TEST(Service, CacheHitServedWithoutReprofiling) {
  workloads::Workload wl = workloads::make_rodinia("nw");
  Server server;

  JobHandle first = server.submit(request_for(wl.module, "nw"));
  first->wait();
  ASSERT_EQ(first->wait().state, JobState::kCompleted);

  JobHandle second = server.submit(request_for(wl.module, "nw"));
  const JobOutcome& out = second->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.attempts, 0);  // no pipeline run was paid for
  EXPECT_EQ(out.report, first->wait().report);
  EXPECT_NE(out.outcome_line.find("cache hit"), std::string::npos);

  Server::Stats st = server.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.completed, 1u);  // executed once, served twice
}

TEST(Service, CacheKeyDistinguishesOptions) {
  workloads::Workload wl = workloads::make_rodinia("nw");
  JobRequest a = request_for(wl.module, "nw");

  JobRequest c = a;
  c.pipeline.fold.max_pieces = 8;
  EXPECT_NE(Server::fingerprint(a), Server::fingerprint(c));
  JobRequest d = a;
  d.pipeline.args = {3};
  EXPECT_NE(Server::fingerprint(a), Server::fingerprint(d));

  workloads::Workload other = workloads::make_rodinia("pathfinder");
  JobRequest e = request_for(other.module, "nw");
  EXPECT_NE(Server::fingerprint(a), Server::fingerprint(e));

  // The transformation engine's switch and every knob that changes its
  // report section.
  JobRequest t = a;
  t.pipeline.apply_transforms = true;
  EXPECT_NE(Server::fingerprint(a), Server::fingerprint(t));
  JobRequest tile = t;
  tile.pipeline.transform.tile = 8;
  EXPECT_NE(Server::fingerprint(t), Server::fingerprint(tile));
  JobRequest steps = t;
  steps.pipeline.transform.max_steps = 1000;
  EXPECT_NE(Server::fingerprint(t), Server::fingerprint(steps));
  JobRequest no_oracle = t;
  no_oracle.pipeline.transform.run_oracle = false;
  EXPECT_NE(Server::fingerprint(t), Server::fingerprint(no_oracle));
  JobRequest force = t;
  force.pipeline.transform.force = true;
  EXPECT_NE(Server::fingerprint(t), Server::fingerprint(force));
  JobRequest cost = t;
  cost.pipeline.transform.cost.miss_penalty = 1;
  EXPECT_NE(Server::fingerprint(t), Server::fingerprint(cost));
}

// A plain run in the cache must not answer a transformation job: the
// second job is re-profiled and carries the `-- transformation --` section
// a direct run has.
TEST(Service, ApplyTransformsJobIsNotServedFromPlainCache) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  Server server;
  JobRequest plain = request_for(wl.module, "backprop");
  EXPECT_EQ(server.submit(plain)->wait().state, JobState::kCompleted);

  JobRequest transformed = plain;
  transformed.pipeline.apply_transforms = true;
  JobHandle job = server.submit(transformed);
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_FALSE(out.from_cache);
  EXPECT_NE(out.report.find("-- transformation --"), std::string::npos);
  EXPECT_EQ(out.report, serial_report(wl.module, transformed.pipeline));
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(Service, ChaosCancelledJobDeliversDeterministicPartialReport) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  JobRequest req = request_for(wl.module, "pathfinder");
  req.pipeline.chaos.service = vm::ServiceFault::kCancelAtDdg;

  Server server;
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();

  EXPECT_EQ(out.state, JobState::kCancelled);
  EXPECT_TRUE(out.truncated);
  EXPECT_NE(out.report.find("PARTIAL PROFILE"), std::string::npos);
  EXPECT_NE(out.report.find("cancelled"), std::string::npos);
  EXPECT_NE(out.outcome_line.find("cancelled"), std::string::npos);

  // The partial report is the same one the library yields one-shot.
  support::CancelToken token;
  core::PipelineOptions direct = req.pipeline;
  direct.cancel = &token;
  core::ProfileResult r = core::Pipeline(wl.module).run(direct);
  EXPECT_EQ(out.report, core::full_report(r, core::ReportOptions{}));

  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Service, DeadlineExpiresLongJob) {
  workloads::Workload wl = workloads::make_rodinia("cfd");
  JobRequest req = request_for(wl.module, "cfd");
  req.deadline_ms = 1;  // cfd takes tens of milliseconds

  Server server;
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();

  EXPECT_EQ(out.state, JobState::kDeadlineExpired);
  EXPECT_NE(out.outcome_line.find("deadline expired"), std::string::npos);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  // A report may or may not have been started; if present it is flagged.
  if (!out.report.empty())
    EXPECT_NE(out.report.find("PARTIAL PROFILE"), std::string::npos);
}

TEST(Service, ClientCancelStopsJobWithoutHanging) {
  workloads::Workload wl = workloads::make_rodinia("cfd");
  Server server;
  JobHandle job = server.submit(request_for(wl.module, "cfd"));
  job->cancel();
  const JobOutcome& out = job->wait();
  // The cancel races job completion; both terminal states are legal, a
  // hang or throw is not.
  EXPECT_TRUE(out.state == JobState::kCancelled ||
              out.state == JobState::kCompleted);
}

TEST(Service, ChaosQueueFullShedsDeterministically) {
  workloads::Workload wl = workloads::make_rodinia("nw");
  JobRequest req = request_for(wl.module, "nw");
  req.pipeline.chaos.service = vm::ServiceFault::kQueueFull;

  Server server((ServerOptions()));
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kShed);
  EXPECT_TRUE(out.report.empty());
  EXPECT_NE(out.outcome_line.find("queue full"), std::string::npos);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().submitted, 0u);  // sheds are not admissions
}

TEST(Service, OverloadDowngradeCollapsesFoldAndDisablesOracle) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  ServerOptions sopts;
  sopts.executors = 1;
  sopts.high_watermark = 1;  // overloaded from the first admission
  sopts.low_watermark = 0;   // and never recovers
  Server server(sopts);

  JobHandle job = server.submit(request_for(wl.module, "pathfinder"));
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_TRUE(out.downgraded);
  EXPECT_NE(out.outcome_line.find("downgraded under overload"),
            std::string::npos);
  EXPECT_NE(out.report.find("skipped (disabled by service overload downgrade)"),
            std::string::npos);
  EXPECT_EQ(server.stats().downgraded, 1u);

  // Downgraded results are lower fidelity: they must NOT enter the cache.
  JobHandle again = server.submit(request_for(wl.module, "pathfinder"));
  EXPECT_FALSE(again->wait().from_cache);
}

TEST(Service, QueueOverflowShedsWhenSaturated) {
  workloads::Workload slow = workloads::make_rodinia("cfd");
  workloads::Workload fast = workloads::make_rodinia("nw");
  ServerOptions sopts;
  sopts.executors = 1;
  sopts.queue_capacity = 2;
  sopts.cache = false;  // identical fast jobs must all really queue
  Server server(sopts);

  // Occupy the single executor with a slow job, then overfill the queue.
  JobHandle blocker = server.submit(request_for(slow.module, "cfd"));
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 6; ++i)
    jobs.push_back(server.submit(request_for(fast.module, "nw")));
  u64 shed = 0, completed = 0;
  for (const JobHandle& j : jobs) {
    const JobOutcome& out = j->wait();
    if (out.state == JobState::kShed) {
      ++shed;
      EXPECT_NE(out.outcome_line.find("queue full"), std::string::npos);
    } else {
      ++completed;
      EXPECT_EQ(out.state, JobState::kCompleted);
    }
  }
  blocker->wait();
  // The blocker may still be queued when the fast jobs arrive, so the
  // queue holds {1, 2} of them; either way capacity 2 cannot hold 6.
  EXPECT_GE(shed, 4u);
  EXPECT_GE(completed, 1u);
  EXPECT_EQ(completed + shed, 6u);
  EXPECT_EQ(server.stats().shed, shed);
}

TEST(Service, TransientChaosRetriedToCleanCompletion) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  JobRequest req = request_for(wl.module, "pathfinder");
  req.pipeline.chaos.kind = vm::FaultKind::kTruncate;
  req.pipeline.chaos.seed = 7;
  req.chaos_transient = true;  // the fault does not recur on retry
  req.max_attempts = 3;

  Server server;
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();

  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_FALSE(out.truncated);  // the retry ran clean
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(server.stats().retries, 1u);
  EXPECT_EQ(out.report, serial_report(wl.module));
}

TEST(Service, PersistentChaosExhaustsRetriesWithPartialReport) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  JobRequest req = request_for(wl.module, "pathfinder");
  req.pipeline.chaos.kind = vm::FaultKind::kTruncate;
  req.pipeline.chaos.seed = 7;
  req.max_attempts = 2;  // chaos_transient off: the fault recurs

  Server server;
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_NE(out.outcome_line.find("retries exhausted"), std::string::npos);
  EXPECT_NE(out.report.find("PARTIAL PROFILE"), std::string::npos);
  EXPECT_EQ(server.stats().retries, 1u);
}

TEST(Service, ObservedJobCarriesRunManifest) {
  workloads::Workload wl = workloads::make_rodinia("nw");
  ServerOptions sopts;
  sopts.observe_jobs = true;
  Server server(sopts);
  JobHandle job = server.submit(request_for(wl.module, "nw"));
  const JobOutcome& out = job->wait();
  ASSERT_EQ(out.state, JobState::kCompleted);
  ASSERT_FALSE(out.manifest.empty());
  EXPECT_NE(out.manifest.find("\"workload\": \"nw\""), std::string::npos);
  EXPECT_NE(out.manifest.find("\"report_fingerprint\""), std::string::npos);
  // Service-level counters are exported through the server session.
  std::string svc = server.observability().manifest_json();
  EXPECT_NE(svc.find("service.submitted"), std::string::npos);
  EXPECT_NE(svc.find("service.completed"), std::string::npos);
}

TEST(Service, ShutdownDrainsQueuedJobs) {
  workloads::Workload wl = workloads::make_rodinia("nw");
  ServerOptions sopts;
  sopts.executors = 1;
  sopts.cache = false;
  Server server(sopts);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(server.submit(request_for(wl.module, "nw")));
  server.shutdown();  // drain: queued jobs still run to completion
  for (const JobHandle& j : jobs)
    EXPECT_EQ(j->wait().state, JobState::kCompleted);
  // Post-shutdown submissions are shed, not silently dropped.
  JobHandle late_job = server.submit(request_for(wl.module, "nw"));
  const JobOutcome& late = late_job->wait();
  EXPECT_EQ(late.state, JobState::kShed);
  EXPECT_NE(late.outcome_line.find("shutting down"), std::string::npos);
}

TEST(Service, ShutdownCancelPendingStopsEverything) {
  workloads::Workload wl = workloads::make_rodinia("cfd");
  ServerOptions sopts;
  sopts.executors = 1;
  sopts.cache = false;
  Server server(sopts);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.push_back(server.submit(request_for(wl.module, "cfd")));
  server.shutdown(/*cancel_pending=*/true);
  for (const JobHandle& j : jobs) {
    const JobOutcome& out = j->wait();
    EXPECT_TRUE(out.state == JobState::kCancelled ||
                out.state == JobState::kCompleted)
        << job_state_name(out.state);
  }
}

TEST(Service, NullModuleIsShedWithDiagnosis) {
  Server server((ServerOptions()));
  JobRequest req;  // no module
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kShed);
  EXPECT_NE(out.outcome_line.find("no module"), std::string::npos);
}

}  // namespace
}  // namespace pp::service
