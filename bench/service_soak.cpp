// Service soak: N concurrent jobs across all 19 mini-Rodinia workloads
// with a mixed fault diet — plain runs, chaos-transient retries,
// chaos-injected cancels, queue-full sheds, tight deadlines and client
// cancels — pushed through one pp::service::Server. The acceptance gates
// (scripts/check.sh, including the ASan and TSan flavors):
//
//   * zero hangs: the whole soak finishes under a hard alarm;
//   * every job that completed clean delivers a report byte-identical to
//     a one-shot direct run of its workload;
//   * chaos-cancelled jobs deliver diagnosed PARTIAL reports;
//   * cache-hit resubmissions (one per workload) are served without
//     re-profiling.
//
//   $ ./service_soak            # human-readable table
//   $ ./service_soak --json     # one JSON line; exit 1 on gate failure
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "workloads/workloads.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

using namespace pp;

namespace {

constexpr int kJobs = 76;  // 4 waves over the 19 workloads

enum class Mode {
  kPlain,          // expect clean completion, byte-identical report
  kTransientRetry, // chaos truncation, retried clean — identical report
  kChaosCancel,    // service fault fires the job's token mid-pipeline
  kChaosShed,      // admission rejects as if the queue were full
  kDeadline,       // 1 ms whole-job deadline
  kClientCancel,   // cancel() right after submit
};

Mode mode_for(int i) {
  switch (i % 8) {
    case 0:
    case 1:
    case 2: return Mode::kPlain;
    case 3: return Mode::kChaosShed;
    case 4: return Mode::kTransientRetry;
    case 5: return Mode::kChaosCancel;
    case 6: return Mode::kDeadline;
    default: return Mode::kClientCancel;
  }
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kPlain: return "plain";
    case Mode::kTransientRetry: return "transient-retry";
    case Mode::kChaosCancel: return "chaos-cancel";
    case Mode::kChaosShed: return "chaos-shed";
    case Mode::kDeadline: return "deadline";
    case Mode::kClientCancel: return "client-cancel";
  }
  return "?";
}

service::JobRequest plain_request(const workloads::Workload& wl) {
  service::JobRequest req;
  req.module = &wl.module;
  req.name = wl.name;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json]\n", argv[0]);
      return 2;
    }
  }
#ifdef __unix__
  alarm(240);  // hard hang gate: SIGALRM kills a wedged soak
#endif

  const std::vector<std::string>& names = workloads::rodinia_names();
  std::vector<workloads::Workload> wls;
  wls.reserve(names.size());
  for (const std::string& n : names) wls.push_back(workloads::make_rodinia(n));

  // One-shot direct-run references: what every clean service job must match.
  std::map<std::string, std::string> reference;
  for (const workloads::Workload& wl : wls) {
    core::PipelineOptions opts;
    core::ProfileResult r = core::Pipeline(wl.module).run(opts);
    reference[wl.name] = core::full_report(r);
  }

  service::ServerOptions sopts;
  sopts.executors = 4;
  sopts.queue_capacity = 128;    // the soak sheds via chaos, not capacity
  sopts.high_watermark = 128;    // no overload downgrades: clean jobs must
  sopts.low_watermark = 64;      // stay byte-comparable to the references
  service::Server server(sopts);

  std::vector<service::JobHandle> jobs;
  std::vector<Mode> modes;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    const workloads::Workload& wl = wls[static_cast<std::size_t>(i) % wls.size()];
    const Mode mode = mode_for(i);
    service::JobRequest req = plain_request(wl);
    switch (mode) {
      case Mode::kPlain:
        break;
      case Mode::kTransientRetry:
        req.pipeline.chaos.kind = vm::FaultKind::kTruncate;
        req.pipeline.chaos.seed = static_cast<u64>(i) + 1;
        req.chaos_transient = true;
        req.max_attempts = 3;
        break;
      case Mode::kChaosCancel: {
        static const vm::ServiceFault kPoints[] = {
            vm::ServiceFault::kCancelAtControl, vm::ServiceFault::kCancelAtDdg,
            vm::ServiceFault::kCancelAtFold, vm::ServiceFault::kCancelAtFeedback,
            vm::ServiceFault::kDeadlineMidFold};
        req.pipeline.chaos.service = kPoints[(i / 8) % 5];
        req.pipeline.chaos.seed = static_cast<u64>(i) + 1;
        break;
      }
      case Mode::kChaosShed:
        req.pipeline.chaos.service = vm::ServiceFault::kQueueFull;
        break;
      case Mode::kDeadline:
        req.deadline_ms = 1;
        break;
      case Mode::kClientCancel:
        break;
    }
    modes.push_back(mode);
    jobs.push_back(server.submit(std::move(req)));
    if (mode == Mode::kClientCancel) jobs.back()->cancel();
  }

  int mismatches = 0;
  int unexpected = 0;
  std::map<std::string, int> by_state;
  for (int i = 0; i < kJobs; ++i) {
    const service::JobOutcome& out = jobs[static_cast<std::size_t>(i)]->wait();
    ++by_state[service::job_state_name(out.state)];
    const std::string& wname = jobs[static_cast<std::size_t>(i)]->request().name;
    auto fail = [&](const char* why) {
      ++unexpected;
      std::fprintf(stderr, "job %d (%s, %s): %s — state %s, \"%s\"\n", i,
                   wname.c_str(), mode_name(modes[static_cast<std::size_t>(i)]),
                   why, service::job_state_name(out.state),
                   out.outcome_line.c_str());
    };
    switch (modes[static_cast<std::size_t>(i)]) {
      case Mode::kPlain:
      case Mode::kTransientRetry:
        if (out.state != service::JobState::kCompleted || out.truncated)
          fail("expected clean completion");
        else if (!out.from_cache && out.report != reference[wname]) {
          ++mismatches;
          fail("report differs from the direct-run reference");
        }
        break;
      case Mode::kChaosCancel:
        if (out.state != service::JobState::kCancelled &&
            out.state != service::JobState::kDeadlineExpired)
          fail("expected a cancelled/deadline outcome");
        else if (out.report.find("PARTIAL PROFILE") == std::string::npos)
          fail("partial report missing PARTIAL PROFILE marker");
        break;
      case Mode::kChaosShed:
        if (out.state != service::JobState::kShed)
          fail("expected a shed outcome");
        break;
      case Mode::kDeadline:
        // Tiny workloads may legitimately beat a 1 ms deadline.
        if (out.state != service::JobState::kDeadlineExpired &&
            out.state != service::JobState::kCompleted)
          fail("expected deadline-expired or completed");
        break;
      case Mode::kClientCancel:
        if (out.state != service::JobState::kCancelled &&
            out.state != service::JobState::kCompleted)
          fail("expected cancelled or completed");
        break;
    }
  }

  // Cache gate: one identical plain resubmission per workload. Every
  // workload saw at least one clean plain job above, so all 19 must be
  // served from cache without re-profiling.
  int cache_misses = 0;
  for (const workloads::Workload& wl : wls) {
    service::JobHandle job = server.submit(plain_request(wl));
    const service::JobOutcome& out = job->wait();
    if (!out.from_cache || out.report != reference[wl.name]) {
      ++cache_misses;
      std::fprintf(stderr, "resubmission of %s: not a faithful cache hit\n",
                   wl.name.c_str());
    }
  }
  server.shutdown();

  service::Server::Stats st = server.stats();
  const bool pass = unexpected == 0 && mismatches == 0 && cache_misses == 0;
  if (json) {
    std::printf(
        "{\"jobs\":%d,\"completed\":%llu,\"cancelled\":%llu,"
        "\"deadline_expired\":%llu,\"shed\":%llu,\"retries\":%llu,"
        "\"cache_hits\":%llu,\"max_queue_depth\":%zu,\"mismatches\":%d,"
        "\"unexpected\":%d,\"cache_misses\":%d,\"pass\":%s}\n",
        kJobs, static_cast<unsigned long long>(st.completed),
        static_cast<unsigned long long>(st.cancelled),
        static_cast<unsigned long long>(st.deadline_expired),
        static_cast<unsigned long long>(st.shed),
        static_cast<unsigned long long>(st.retries),
        static_cast<unsigned long long>(st.cache_hits), st.max_queue_depth,
        mismatches, unexpected, cache_misses, pass ? "true" : "false");
  } else {
    std::printf("service soak: %d jobs over %zu workloads\n", kJobs,
                wls.size());
    for (const auto& [state, count] : by_state)
      std::printf("  %-18s %d\n", state.c_str(), count);
    std::printf(
        "  retries %llu, cache hits %llu, max queue depth %zu\n"
        "  report mismatches %d, unexpected outcomes %d, cache misses %d\n"
        "%s\n",
        static_cast<unsigned long long>(st.retries),
        static_cast<unsigned long long>(st.cache_hits), st.max_queue_depth,
        mismatches, unexpected, cache_misses, pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
