#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pp::obs {
namespace {

TEST(ObsSpan, RecordsNestedSpans) {
  Session s;
  {
    Span outer = s.span("outer");
    Span inner = s.span("inner");
  }
  std::vector<SpanRec> spans = s.merged_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  // The outer span covers the inner one.
  EXPECT_GE(spans[0].start_ns + spans[0].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);
}

TEST(ObsSpan, EndIsIdempotentAndEarly) {
  Session s;
  Span sp = s.span("x");
  sp.end();
  sp.end();  // no double record
  EXPECT_EQ(s.merged_spans().size(), 1u);
}

TEST(ObsSpan, NullAndDisabledSessionsRecordNothing) {
  { Span sp(nullptr, "free"); }  // must not crash
  Session off(false);
  EXPECT_FALSE(off.enabled());
  {
    Span sp = off.span("x");
    off.add("c");
    off.set("g", 7);
    off.gauge_max("m", 9);
  }
  EXPECT_TRUE(off.merged_spans().empty());
  EXPECT_TRUE(off.counters().empty());
}

TEST(ObsSpan, MoveTransfersOwnership) {
  Session s;
  {
    Span a = s.span("moved");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  EXPECT_EQ(s.merged_spans().size(), 1u);
}

TEST(ObsCounters, AddSetGaugeMax) {
  Session s;
  s.add("events", 10);
  s.add("events", 5);
  s.set("final", 42);
  s.set("final", 43);
  s.gauge_max("hwm", 3);
  s.gauge_max("hwm", 9);
  s.gauge_max("hwm", 4);
  auto cs = s.counters();
  EXPECT_EQ(cs.at("events").value, 15);
  EXPECT_EQ(cs.at("final").value, 43);
  EXPECT_EQ(cs.at("hwm").value, 9);
}

TEST(ObsCounters, StabilityTagFixedOnFirstTouch) {
  Session s;
  s.add("a", 1, Stability::kTiming);
  s.add("a", 1, Stability::kStable);  // ignored: tag fixed by first touch
  s.add("b", 1, Stability::kStable);
  auto cs = s.counters();
  EXPECT_EQ(cs.at("a").stability, Stability::kTiming);
  EXPECT_EQ(cs.at("b").stability, Stability::kStable);
}

TEST(ObsSession, ConcurrentSpansAndCountersMerge) {
  Session s;
  constexpr int kThreads = 8;
  constexpr int kSpansPer = 50;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&s] {
      for (int i = 0; i < kSpansPer; ++i) {
        Span sp = s.span("work");
        s.add("n");
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(s.merged_spans().size(),
            static_cast<std::size_t>(kThreads * kSpansPer));
  EXPECT_EQ(s.counters().at("n").value, kThreads * kSpansPer);
}

TEST(ObsSession, TlsSurvivesSessionRecycling) {
  // A fresh Session at a recycled address must not inherit the previous
  // session's thread registration (the TLS cache is generation-keyed).
  for (int i = 0; i < 4; ++i) {
    Session s;
    { Span sp = s.span("gen"); }
    EXPECT_EQ(s.merged_spans().size(), 1u);
  }
}

TEST(ObsSession, StageSpansFilterAndOrder) {
  Session s;
  { Span a = s.span("stage:control"); }
  { Span x = s.span("detail:misc"); }
  { Span b = s.span("stage:ddg"); }
  auto stages = s.stage_spans();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_STREQ(stages[0].name, "stage:control");
  EXPECT_STREQ(stages[1].name, "stage:ddg");
}

TEST(ObsExport, ChromeTraceShape) {
  Session s;
  { Span a = s.span("stage:fold"); }
  s.add("fold.pieces", 12);
  std::string j = s.chrome_trace_json("test-proc");
  EXPECT_EQ(j.find("{\"traceEvents\":"), 0u);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("stage:fold"), std::string::npos);
  EXPECT_NE(j.find("fold.pieces"), std::string::npos);
  EXPECT_NE(j.find("test-proc"), std::string::npos);
}

TEST(ObsExport, ManifestShape) {
  Session s;
  { Span a = s.span("stage:ddg"); }
  s.add("ddg.dependences", 7);
  Session::ManifestExtra extra;
  extra.workload = "backprop";
  extra.truncated = true;
  extra.report_fingerprint = "deadbeef";
  std::string j = s.manifest_json(extra);
  EXPECT_NE(j.find("\"workload\": \"backprop\""), std::string::npos);
  EXPECT_EQ(j.find("\"threads\""), std::string::npos);
  EXPECT_NE(j.find("\"truncated\": true"), std::string::npos);
  EXPECT_NE(j.find("\"report_fingerprint\": \"deadbeef\""),
            std::string::npos);
  // Stage names drop the "stage:" prefix in the manifest table.
  EXPECT_NE(j.find("{\"name\": \"ddg\", \"wall_ms\": "), std::string::npos);
  EXPECT_NE(j.find("\"ddg.dependences\": 7"), std::string::npos);
}

TEST(ObsExport, JsonStringsEscaped) {
  Session s;
  Session::ManifestExtra extra;
  extra.workload = "we\"ird\\name\n";
  std::string j = s.manifest_json(extra);
  EXPECT_NE(j.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

TEST(ObsExport, SelfProfileStableElidesTimes) {
  Session s;
  { Span a = s.span("stage:control"); }
  s.add("ddg.dependences", 3, Stability::kStable);
  s.add("fold.cache_hits", 5, Stability::kTiming);
  std::string stable = s.self_profile_section(true);
  EXPECT_NE(stable.find("stage control: wall - cpu -"), std::string::npos);
  EXPECT_NE(stable.find("counter ddg.dependences: 3"), std::string::npos);
  // Timing counters and real times are elided in stable mode.
  EXPECT_EQ(stable.find("fold.cache_hits"), std::string::npos);
  EXPECT_EQ(stable.find(" ms"), std::string::npos);

  std::string timed = s.self_profile_section(false);
  EXPECT_NE(timed.find("fold.cache_hits"), std::string::npos);
  EXPECT_NE(timed.find(" ms"), std::string::npos);
}

TEST(ObsFnv, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a"), 12638187200555641996ull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace pp::obs
