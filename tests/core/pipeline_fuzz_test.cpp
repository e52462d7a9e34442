// End-to-end pipeline fuzzing over randomly generated structured loop
// nests: whatever the nest shape (depth, bounds, interprocedural split,
// triangular bounds), the profiler must
//  * fold every statement's domain exactly with the right instance count,
//  * tag statements with the right loop depth,
//  * keep the whole program 100%-affine under the extended metric,
//  * render the same report with path compaction on and off.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"

namespace pp::core {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Reg;

struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed * 6364136223846793005ull + 99) {}
  i64 range(i64 lo, i64 hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<i64>((state >> 33) % static_cast<u64>(hi - lo + 1));
  }
};

struct NestSpec {
  int depth;                 // 1..3
  std::vector<i64> trips;    // per-level trip count
  bool triangular;           // level 1 bound = iv0 + 1
  // (interprocedural split is exercised by NestCallFuzz below)
};

// Build a program for the spec; returns expected innermost store count.
u64 build_nest(Module& m, const NestSpec& spec) {
  u64 expected = 0;
  if (spec.triangular) {
    // sum over i of (i + 1) * remaining trips
    for (i64 i = 0; i < spec.trips[0]; ++i) {
      u64 inner = static_cast<u64>(i + 1);
      for (int d = 2; d < spec.depth; ++d)
        inner *= static_cast<u64>(spec.trips[static_cast<std::size_t>(d)]);
      expected += inner;
    }
  } else {
    expected = 1;
    for (int d = 0; d < spec.depth; ++d)
      expected *= static_cast<u64>(spec.trips[static_cast<std::size_t>(d)]);
  }

  i64 g = m.add_global("data", 4096);
  Function& f = m.add_function("main", 0, "nest.c");
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  std::vector<Reg> ivs;
  std::function<void(int)> emit = [&](int level) {
    if (level == spec.depth) {
      // Body: store data[(sum of ivs) mod small] — affine accumulate.
      Reg idx = b.const_(0);
      for (Reg iv : ivs) b.add(idx, iv, idx);
      Reg off = b.muli(idx, 8);
      Reg p = b.add(base, off);
      b.store(p, idx);
      return;
    }
    Reg bound;
    if (level == 1 && spec.triangular) {
      bound = b.addi(ivs[0], 1);
    } else {
      bound = b.const_(spec.trips[static_cast<std::size_t>(level)]);
    }
    b.counted_loop(0, bound, 1, [&](Reg iv) {
      ivs.push_back(iv);
      emit(level + 1);
      ivs.pop_back();
    });
  };
  emit(0);
  b.ret();
  return expected;
}

// Differential check of the bulk replay against the reference
// interpretation, plain and with anti/output tracking: the nests' stores
// revisit words, so WAW edges land inside compressed runs.
void expect_compaction_transparent(const Module& m) {
  for (bool track : {false, true}) {
    PipelineOptions off;
    off.ddg.track_anti_output = track;
    off.path_compaction = false;
    PipelineOptions on = off;
    on.path_compaction = true;
    EXPECT_EQ(full_report(Pipeline(m).run(off)),
              full_report(Pipeline(m).run(on)))
        << "track_anti_output=" << track;
  }
}

class NestFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NestFuzz, DomainsFoldExactlyWithRightCounts) {
  Rng rng(static_cast<u64>(GetParam()));
  NestSpec spec;
  spec.depth = static_cast<int>(rng.range(1, 3));
  for (int d = 0; d < spec.depth; ++d) spec.trips.push_back(rng.range(2, 6));
  spec.triangular = spec.depth >= 2 && rng.range(0, 1) == 1;

  Module m;
  u64 expected = build_nest(m, spec);
  Pipeline pipe(m);
  ProfileResult r = pipe.run();

  bool found_store = false;
  for (const auto& s : r.program.statements) {
    if (s.meta.op != ir::Op::kStore) continue;
    found_store = true;
    EXPECT_EQ(s.meta.depth, static_cast<std::size_t>(spec.depth));
    EXPECT_EQ(s.meta.executions, expected);
    ASSERT_EQ(s.domain.pieces().size(), 1u);
    const auto& piece = s.domain.pieces()[0];
    EXPECT_TRUE(piece.exact)
        << "depth=" << spec.depth << " triangular=" << spec.triangular;
    EXPECT_EQ(piece.observed_points, expected);
  }
  EXPECT_TRUE(found_store);
  EXPECT_DOUBLE_EQ(feedback::percent_affine(r.program, /*strict=*/false),
                   100.0);
  expect_compaction_transparent(m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestFuzz, ::testing::Range(0, 40));

// Interprocedural variant: the innermost loop lives in a callee called
// from the outer loop's body — the folded depth must still be the full
// nest depth.
class NestCallFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NestCallFuzz, InterproceduralNestsFoldFullDepth) {
  Rng rng(static_cast<u64>(GetParam()) + 500);
  const i64 outer = rng.range(2, 6), inner = rng.range(2, 6);

  Module m;
  i64 g = m.add_global("data", 1024);
  Function& callee = m.add_function("kernel", 1, "nest.c");
  {
    Builder b(m, callee);
    b.set_block(b.make_block());
    Reg base = b.const_(g);
    Reg n = b.const_(inner);
    b.counted_loop(0, n, 1, [&](Reg j) {
      Reg idx = b.add(0, j);
      Reg off = b.muli(idx, 8);
      Reg p = b.add(base, off);
      b.store(p, idx);
    });
    b.ret();
  }
  Function& f = m.add_function("main", 0, "nest.c");
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg n = b.const_(outer);
  b.counted_loop(0, n, 1, [&](Reg i) { b.call(callee, {i}); });
  b.ret();

  Pipeline pipe(m);
  ProfileResult r = pipe.run();
  bool found = false;
  for (const auto& s : r.program.statements) {
    if (s.meta.op != ir::Op::kStore) continue;
    found = true;
    EXPECT_EQ(s.meta.depth, 2u);
    EXPECT_EQ(s.meta.executions, static_cast<u64>(outer * inner));
    ASSERT_EQ(s.domain.pieces().size(), 1u);
    EXPECT_TRUE(s.domain.pieces()[0].exact);
  }
  EXPECT_TRUE(found);
  expect_compaction_transparent(m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestCallFuzz, ::testing::Range(0, 30));

}  // namespace
}  // namespace pp::core
