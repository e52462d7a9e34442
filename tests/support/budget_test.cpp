#include "support/budget.hpp"

#include <gtest/gtest.h>

namespace pp::support {
namespace {

TEST(RunBudget, DefaultIsUnlimited) {
  RunBudget b;
  EXPECT_TRUE(b.unlimited());
  EXPECT_FALSE(b.wall_exceeded());
  EXPECT_FALSE(b.steps_exceeded(~0ull));
  EXPECT_FALSE(b.shadow_exceeded(~std::size_t{0}));
  EXPECT_FALSE(b.pool_exceeded(~std::size_t{0}));
}

TEST(RunBudget, StepsAccounting) {
  RunBudget b;
  b.vm_steps = 100;
  EXPECT_FALSE(b.unlimited());
  EXPECT_FALSE(b.steps_exceeded(99));
  EXPECT_FALSE(b.steps_exceeded(100));  // at the cap is still within budget
  EXPECT_TRUE(b.steps_exceeded(101));
}

TEST(RunBudget, ShadowAndPoolAccounting) {
  RunBudget b;
  b.shadow_pages = 4;
  b.coord_pool_words = 1000;
  EXPECT_FALSE(b.shadow_exceeded(4));
  EXPECT_TRUE(b.shadow_exceeded(5));
  EXPECT_FALSE(b.pool_exceeded(1000));
  EXPECT_TRUE(b.pool_exceeded(1001));
}

TEST(RunBudget, WallClockNeedsArming) {
  RunBudget b;
  b.wall_ms = 1;  // tiny cap, but unarmed clocks never report exhaustion
  EXPECT_FALSE(b.armed());
  EXPECT_FALSE(b.wall_exceeded());
  EXPECT_EQ(b.elapsed_ms(), 0u);
  b.arm();
  EXPECT_TRUE(b.armed());
  // Can't assert exceeded without sleeping; just exercise the reads.
  (void)b.elapsed_ms();
  (void)b.wall_exceeded();
}

TEST(RunBudget, ChargePiecesAccumulates) {
  RunBudget budget;
  budget.folder_pieces = 1000;
  for (int i = 0; i < 256; ++i) budget.charge_pieces(5);
  EXPECT_EQ(budget.pieces_charged(), 256u * 5u);
  EXPECT_TRUE(budget.pieces_exceeded(budget.pieces_charged()));
  EXPECT_FALSE(budget.pieces_exceeded(1000));
}

TEST(RunBudget, CopyCarriesArmingAndCharges) {
  RunBudget budget;
  budget.wall_ms = 50000;
  budget.arm();
  budget.charge_pieces(7);
  RunBudget copy = budget;
  EXPECT_TRUE(copy.armed());
  EXPECT_EQ(copy.pieces_charged(), 7u);
  EXPECT_EQ(copy.wall_ms, 50000u);
  RunBudget assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.armed());
  EXPECT_EQ(assigned.pieces_charged(), 7u);
}

TEST(Diagnostic, RendersDeterministically) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.stage = Stage::kDdg;
  d.statement = 5;
  d.reason = "budget exhausted";
  EXPECT_EQ(d.str(), "[error] ddg: budget exhausted (statement S5)");

  Diagnostic r;
  r.severity = Severity::kWarn;
  r.stage = Stage::kFeedback;
  r.region = "backprop.c:253";
  r.reason = "unanalyzable";
  EXPECT_EQ(r.str(), "[warn] feedback: unanalyzable (region backprop.c:253)");
}

TEST(DiagnosticLog, InsertionOrderAndCounts) {
  DiagnosticLog log;
  EXPECT_TRUE(log.empty());
  log.info(Stage::kSetup, "starting");
  log.warn(Stage::kDdg, "degrading", 3);
  log.error(Stage::kFold, "fold failed");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(Severity::kInfo), 1u);
  EXPECT_EQ(log.count(Severity::kWarn), 1u);
  EXPECT_EQ(log.count(Severity::kError), 1u);
  EXPECT_TRUE(log.has_errors());
  std::string text = log.render();
  // One line per record, in insertion order.
  EXPECT_EQ(text,
            "[info] setup: starting\n"
            "[warn] ddg: degrading (statement S3)\n"
            "[error] fold: fold failed\n");
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(log.has_errors());
}

TEST(DiagnosticLog, MergeFromPreservesDonorOrder) {
  DiagnosticLog task_a, task_b, merged;
  task_a.warn(Stage::kFold, "a1", 0);
  task_a.error(Stage::kFold, "a2", 0);
  task_b.warn(Stage::kFold, "b1", 1);
  merged.info(Stage::kSetup, "start");
  merged.merge_from(std::move(task_a));
  merged.merge_from(std::move(task_b));
  EXPECT_EQ(merged.render(),
            "[info] setup: start\n"
            "[warn] fold: a1 (statement S0)\n"
            "[error] fold: a2 (statement S0)\n"
            "[warn] fold: b1 (statement S1)\n");
}

TEST(DiagnosticLog, CopyAndMoveCarryRecords) {
  DiagnosticLog log;
  log.error(Stage::kDdg, "trap", 2);
  DiagnosticLog copy = log;
  EXPECT_EQ(copy.render(), log.render());
  DiagnosticLog moved = std::move(log);
  EXPECT_EQ(moved.size(), 1u);
}

}  // namespace
}  // namespace pp::support
