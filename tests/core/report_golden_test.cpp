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
      {"backprop", {0x217da5a961be7d59ull, 0xc4f7cc41f3bdbf2full}},
      {"bfs", {0xe840d55d110ab6d8ull, 0x29f24b347b8bf4a2ull}},
      {"b+tree", {0xc1095b2cf99977e2ull, 0x9fff4993d8659edbull}},
      {"cfd", {0x16b59e22684df5e9ull, 0x3d4ab4a3ac6dafb9ull}},
      {"heartwall", {0xa48d92b32b6d31c6ull, 0xea05fa492c757ea5ull}},
      {"hotspot", {0x320235e4b8a17a7cull, 0x3b1d844e4fe953a3ull}},
      {"hotspot3D", {0x34460c2a33f30092ull, 0x63695e76dfd209d4ull}},
      {"kmeans", {0xb8463183affe20d9ull, 0x5793fde84f954ae1ull}},
      {"lavaMD", {0x35bb631ea7be51c2ull, 0xf1462c2b571fd2f3ull}},
      {"leukocyte", {0xb93adeba5427d43eull, 0xaa43371866665230ull}},
      {"lud", {0xf4df23c67e4ccd2bull, 0x75c4d16b2b32130aull}},
      {"myocyte", {0x0f0050fdaa84e156ull, 0x6e96774595819bccull}},
      {"nn", {0xcabe6c989b574285ull, 0x516b68013495212cull}},
      {"nw", {0x4b6be9f5b69aa45eull, 0x195df0554de586b4ull}},
      {"particlefilter", {0xa3b2f76b57b8c3ccull, 0x6f953031ceb30e6aull}},
      {"pathfinder", {0x4417da048e3fd6d1ull, 0x909ee09798b22286ull}},
      {"srad_v1", {0x06c8f2c4b64d1305ull, 0x51bd640ec77cec00ull}},
      {"srad_v2", {0x02415da444460ef1ull, 0x47e9b1b9bde786fdull}},
      {"streamcluster", {0xc5e795aac3a8d36aull, 0x0f58607d4e5ece2aull}},
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
