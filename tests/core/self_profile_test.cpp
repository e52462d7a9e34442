// pp::obs end-to-end: the observed pipeline produces stage spans covering
// the run, counters that agree with the result's own accounting, a
// Perfetto-loadable Chrome trace and a run manifest, and a self-profile
// report section whose stable rendering elides timing (the reference-
// identity suite covers byte-identity; this file covers content).
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gtest/gtest.h"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

namespace pp {
namespace {

core::ProfileResult observed_run(const ir::Module& m) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts;
  opts.observe = true;
  return pipe.run(opts);
}

TEST(SelfProfile, SessionPresentOnlyWhenObserved) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::Pipeline pipe(wl.module);
  EXPECT_EQ(pipe.run({}).obs, nullptr);
  core::ProfileResult r = observed_run(wl.module);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_TRUE(r.obs->enabled());
}

TEST(SelfProfile, StageSpansCoverEveryPipelineStage) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module);
  core::full_report(r);  // runs + closes the feedback stage
  std::vector<std::string> names;
  for (const obs::SpanRec& s : r.obs->stage_spans()) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"stage:verify", "stage:control",
                                             "stage:ddg", "stage:fold",
                                             "stage:feedback"}));
}

TEST(SelfProfile, CountersAgreeWithResultAccounting) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module);
  auto cs = r.obs->counters();
  EXPECT_EQ(cs.at("ddg.dependences").value,
            static_cast<i64>(r.ddg_dependences));
  EXPECT_EQ(cs.at("ddg.shadow_pages").value,
            static_cast<i64>(r.shadow_pages));
  EXPECT_EQ(cs.at("ddg.coord_pool_words").value,
            static_cast<i64>(r.coord_pool_words));
  EXPECT_EQ(cs.at("vm.instructions").value,
            static_cast<i64>(r.stats.instructions));
  EXPECT_GT(cs.at("fold.pieces").value, 0);
  // One statement stream per statement that folded a domain.
  i64 streams = 0;
  for (const auto& st : r.program.statements) streams += !st.domain.empty();
  EXPECT_EQ(cs.at("fold.stmt_streams").value, streams);
  // Refit, Rat-fallback and run-flush totals are cost counters: kept out
  // of the stable report section. A flush holds at least one point.
  EXPECT_GT(cs.at("fold.refits").value, 0);
  EXPECT_GE(cs.at("fold.rat_fallbacks").value, 0);
  EXPECT_GT(cs.at("fold.run_flushes").value, 0);
  EXPECT_GE(cs.at("fold.flushed_points").value,
            cs.at("fold.run_flushes").value);
  for (const char* name : {"fold.refits", "fold.rat_fallbacks",
                           "fold.run_flushes", "fold.flushed_points"})
    EXPECT_EQ(cs.at(name).stability, obs::Stability::kTiming) << name;
}

TEST(SelfProfile, ChromeTraceAndManifestExport) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module);
  std::string report = core::full_report(r);

  std::string trace = r.obs->chrome_trace_json();
  EXPECT_EQ(trace.find("{\"traceEvents\":"), 0u);
  for (const char* stage :
       {"stage:verify", "stage:control", "stage:ddg", "stage:fold",
        "stage:feedback"})
    EXPECT_NE(trace.find(stage), std::string::npos) << stage;

  obs::Session::ManifestExtra extra;
  extra.workload = "backprop";
  extra.truncated = r.truncated;
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(obs::fnv1a(report)));
  extra.report_fingerprint = fp;
  std::string manifest = r.obs->manifest_json(extra);
  EXPECT_NE(manifest.find("\"workload\": \"backprop\""), std::string::npos);
  EXPECT_NE(manifest.find("{\"name\": \"ddg\", \"wall_ms\": "),
            std::string::npos);
  EXPECT_NE(manifest.find("\"report_fingerprint\": \""), std::string::npos);
  EXPECT_NE(manifest.find("\"ddg.dependences\": "), std::string::npos);
}

TEST(SelfProfile, StageSpanSumIsSaneAgainstWallTime) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  const u64 t0 = obs::now_ns();
  core::ProfileResult r = observed_run(wl.module);
  core::full_report(r);
  const u64 wall = obs::now_ns() - t0;
  u64 sum = 0;
  for (const obs::SpanRec& s : r.obs->stage_spans()) sum += s.dur_ns;
  EXPECT_GT(sum, 0u);
  // Stage spans are non-overlapping main-thread intervals inside [t0, t1]:
  // their sum can never exceed the enclosing wall time, and the pipeline
  // spends the bulk of the run inside its stages.
  EXPECT_LE(sum, wall);
  EXPECT_GE(static_cast<double>(sum), 0.5 * static_cast<double>(wall));
}

TEST(SelfProfile, StableSectionElidesTimesButTimedSectionHasThem) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module);
  core::ReportOptions stable;
  std::string s = core::full_report(r, stable);
  EXPECT_NE(s.find("-- self profile --"), std::string::npos);
  EXPECT_NE(s.find("stage ddg: wall - cpu -"), std::string::npos);
  EXPECT_EQ(s.find("oracle.pieces_proved"), std::string::npos);

  core::ReportOptions timed;
  timed.stable_self_profile = false;
  std::string t = core::full_report(r, timed);
  EXPECT_NE(t.find("stage ddg: wall "), std::string::npos);
  EXPECT_NE(t.find("oracle.pieces_proved"), std::string::npos);
}

}  // namespace
}  // namespace pp
