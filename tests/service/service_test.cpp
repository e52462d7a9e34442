// pp::service contract tests: every job is one pipeline run and comes back
// with the same byte-identical report the library produces one-shot, also
// when the queue is saturated; cancels, deadlines, truncations and sheds
// all land as *diagnosed* terminal outcomes, never hangs or throws.
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
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(out.outcome_line, "completed clean");
  EXPECT_EQ(out.report, serial_report(wl.module));
  EXPECT_EQ(out.report_fingerprint, obs::fnv1a(out.report));

  Server::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.shed, 0u);
}

// A saturated queue (one executor, every other job waiting) changes when
// a job runs, never what it reports: each completed report is
// byte-identical to a direct run of its workload.
TEST(Service, SaturatedQueueDeliversFullFidelityReport) {
  const char* kNames[] = {"hotspot", "backprop", "lud"};
  std::vector<workloads::Workload> wls;
  std::vector<std::string> reference;
  for (const char* n : kNames) {
    wls.push_back(workloads::make_rodinia(n));
    reference.push_back(serial_report(wls.back().module));
  }
  ServerOptions sopts;
  sopts.executors = 1;
  Server server(sopts);

  constexpr std::size_t kJobs = 30;  // fits the default queue_capacity
  std::vector<JobHandle> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const workloads::Workload& wl = wls[i % wls.size()];
    jobs.push_back(server.submit(request_for(wl.module, wl.name)));
  }
  for (std::size_t i = 0; i < kJobs; ++i) {
    const JobOutcome& out = jobs[i]->wait();
    ASSERT_EQ(out.state, JobState::kCompleted) << out.outcome_line;
    EXPECT_EQ(out.report, reference[i % wls.size()]) << "job " << i;
  }
  EXPECT_GE(server.stats().max_queue_depth, 25u);
  EXPECT_EQ(server.stats().completed, kJobs);
}

// Source references in the report (`file:line`) come from Instr::line, so
// two modules that differ only in debug lines have different reports, and
// each job must deliver its own.
TEST(Service, DebugLineChangeGetsItsOwnReport) {
  workloads::Workload wl = workloads::make_rodinia("hotspot");
  ir::Module shifted = wl.module;
  for (ir::Function& f : shifted.functions)
    for (ir::BasicBlock& bb : f.blocks)
      for (ir::Instr& in : bb.instrs)
        if (in.line != 0) in.line += 1000;
  const std::string ref = serial_report(wl.module);
  const std::string ref_shifted = serial_report(shifted);
  ASSERT_NE(ref, ref_shifted);

  Server server;
  JobHandle first = server.submit(request_for(wl.module, "hotspot"));
  EXPECT_EQ(first->wait().report, ref);
  JobHandle second = server.submit(request_for(shifted, "hotspot"));
  const JobOutcome& out = second->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_EQ(out.report, ref_shifted);
  EXPECT_EQ(server.stats().completed, 2u);
}

// A transformation job carries the `-- transformation --` section a
// direct run has.
TEST(Service, ApplyTransformsJobCarriesTransformationSection) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  Server server;
  JobRequest transformed = request_for(wl.module, "backprop");
  transformed.pipeline.apply_transforms = true;
  JobHandle job = server.submit(transformed);
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_NE(out.report.find("-- transformation --"), std::string::npos);
  EXPECT_EQ(out.report, serial_report(wl.module, transformed.pipeline));
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
  if (!out.report.empty()) {
    EXPECT_NE(out.report.find("PARTIAL PROFILE"), std::string::npos);
  }
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

TEST(Service, QueueOverflowShedsWhenSaturated) {
  workloads::Workload slow = workloads::make_rodinia("cfd");
  workloads::Workload fast = workloads::make_rodinia("nw");
  ServerOptions sopts;
  sopts.executors = 1;
  sopts.queue_capacity = 2;
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

// A chaos truncation recurs on every run of the job, so the service runs
// it once and delivers the diagnosed partial report a direct run gives.
TEST(Service, ChaosTruncatedJobDeliversPartialReport) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  JobRequest req = request_for(wl.module, "pathfinder");
  req.pipeline.chaos.kind = vm::FaultKind::kTruncate;
  req.pipeline.chaos.seed = 7;

  Server server;
  JobHandle job = server.submit(req);
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_TRUE(out.truncated);
  EXPECT_NE(out.outcome_line.find("diagnosed partial profile"),
            std::string::npos);
  EXPECT_NE(out.report.find("PARTIAL PROFILE"), std::string::npos);
  EXPECT_EQ(out.report, serial_report(wl.module, req.pipeline));
  EXPECT_EQ(server.stats().completed, 1u);
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

// An ill-formed module is the job's problem, not the server's: the job
// completes with the verifier's diagnosed partial report, and the executor
// that ran it goes on to run the next job clean.
TEST(Service, IllFormedModuleJobDeliversDiagnosedReport) {
  workloads::Workload bad = workloads::make_rodinia("hotspot");
  ir::Function dup = bad.module.functions.front();
  dup.id = static_cast<int>(bad.module.functions.size());
  bad.module.functions.push_back(dup);  // a second function of that name
  workloads::Workload good = workloads::make_rodinia("hotspot");
  ServerOptions sopts;
  sopts.executors = 1;
  Server server(sopts);

  JobHandle job = server.submit(request_for(bad.module, "hotspot-dup"));
  const JobOutcome& out = job->wait();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_TRUE(out.truncated);
  EXPECT_NE(out.outcome_line.find("diagnosed partial profile"),
            std::string::npos);
  EXPECT_NE(out.report.find("duplicate-function-name"), std::string::npos)
      << out.report;
  EXPECT_NE(out.report.find("module rejected"), std::string::npos);

  JobHandle next_job = server.submit(request_for(good.module, "hotspot"));
  const JobOutcome& next = next_job->wait();
  EXPECT_EQ(next.state, JobState::kCompleted);
  EXPECT_EQ(next.outcome_line, "completed clean");
  EXPECT_EQ(next.report, serial_report(good.module));
  EXPECT_EQ(server.stats().completed, 2u);
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
