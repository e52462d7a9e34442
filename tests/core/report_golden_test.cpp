// Cross-commit report pin: the FNV-1a fingerprint of `full_report` for
// every mini-Rodinia workload, plain and with the transformation engine
// on (serial, observation off). Optimizations of the polyhedral kernels
// (closed-form bounds, proof-first oracle checks) must leave every report
// byte-identical, so these values only change when a change deliberately
// alters what a report says — then the table is re-recorded and the
// commit says why.
#include <cstdio>
#include <map>
#include <string>

#include "core/pipeline.hpp"
#include "gtest/gtest.h"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

namespace pp {
namespace {

struct Pin {
  u64 plain;
  u64 transformed;
};

// Recorded with the exact simplex and per-instance oracle enumeration as
// the only kernels.
const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> table = {
      {"backprop", {0x8ec9664748a784cfull, 0x71b5e8ebedf8c4e9ull}},
      {"bfs", {0xae10c2b08f325341ull, 0x88970d3b41298641ull}},
      {"b+tree", {0x91a57496fc6abb15ull, 0x404723c72d73d6f6ull}},
      {"cfd", {0x6ad04d56617d5780ull, 0x15ff04337347fa52ull}},
      {"heartwall", {0x81ea42cdfd5b55e3ull, 0x8f25a3234da2f27cull}},
      {"hotspot", {0x22330e6ccdba1945ull, 0xd05bcc317c864780ull}},
      {"hotspot3D", {0x1ddc2f71a66ceac7ull, 0xe49fea79b27ca807ull}},
      {"kmeans", {0xf9571e25b8f5c212ull, 0xd1e3babf721c9f4cull}},
      {"lavaMD", {0x4c1a3265bc4ecd57ull, 0xf7033e0f028c6a28ull}},
      {"leukocyte", {0xbf1468bf92ff5cffull, 0x2d42c05e6b681b07ull}},
      {"lud", {0x376c1e4a0087e111ull, 0xbf83e14bd436de5aull}},
      {"myocyte", {0x47a0d1d57424f403ull, 0x658955e9e441de3full}},
      {"nn", {0xc1707d4751563f1cull, 0xad0833f7ad8fd2fdull}},
      {"nw", {0x2ed8c46629c221d5ull, 0x1e4b7f66b4f9c33bull}},
      {"particlefilter", {0xcfbd287e9c01fc6cull, 0x91adb82216d7b8f6ull}},
      {"pathfinder", {0x4659d81a5984ced2ull, 0x3424522f85b25851ull}},
      {"srad_v1", {0x42ccf9a293f3d462ull, 0xe19e426776d69219ull}},
      {"srad_v2", {0x5977b61e9f8c5d5aull, 0xb0ea1ff53e9f474eull}},
      {"streamcluster", {0xe244495bf2148ccbull, 0x7d3211e4ea0a7025ull}},
  };
  return table;
}

u64 report_fingerprint(const ir::Module& m, bool apply_transforms) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts;
  opts.threads = 1;
  opts.observe = false;
  opts.apply_transforms = apply_transforms;
  core::ProfileResult r = pipe.run(opts);
  return obs::fnv1a(core::full_report(r));
}

class ReportGolden : public testing::TestWithParam<std::string> {};

TEST_P(ReportGolden, FullReportMatchesPinnedFingerprint) {
  const std::string& name = GetParam();
  workloads::Workload wl = workloads::make_rodinia(name);
  const u64 plain = report_fingerprint(wl.module, false);
  const u64 transformed = report_fingerprint(wl.module, true);
  // The row in table form, so a deliberate change can be re-recorded
  // verbatim.
  char row[160];
  std::snprintf(row, sizeof row, "{\"%s\", {0x%016llxull, 0x%016llxull}},",
                name.c_str(), static_cast<unsigned long long>(plain),
                static_cast<unsigned long long>(transformed));
  auto it = pins().find(name);
  ASSERT_NE(it, pins().end()) << "no pinned fingerprint: " << row;
  EXPECT_EQ(plain, it->second.plain) << "plain report changed: " << row;
  EXPECT_EQ(transformed, it->second.transformed)
      << "apply_transforms report changed: " << row;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ReportGolden,
                         testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

}  // namespace
}  // namespace pp
