#include "support/matrix.hpp"

#include <gtest/gtest.h>

namespace pp {
namespace {

TEST(Matrix, RankOfIdentityAndSingular) {
  RatMatrix id{{Rat(1), Rat(0)}, {Rat(0), Rat(1)}};
  EXPECT_EQ(id.rank(), 2u);
  RatMatrix sing{{Rat(1), Rat(2)}, {Rat(2), Rat(4)}};
  EXPECT_EQ(sing.rank(), 1u);
  RatMatrix zero(3, 3);
  EXPECT_EQ(zero.rank(), 0u);
}

TEST(Matrix, SolveUniqueSystem) {
  // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
  RatMatrix a{{Rat(2), Rat(1)}, {Rat(1), Rat(-1)}};
  auto x = a.solve({Rat(5), Rat(1)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], Rat(2));
  EXPECT_EQ((*x)[1], Rat(1));
}

TEST(Matrix, SolveInconsistentReturnsNullopt) {
  RatMatrix a{{Rat(1), Rat(1)}, {Rat(1), Rat(1)}};
  EXPECT_FALSE(a.solve({Rat(1), Rat(2)}).has_value());
}

TEST(Matrix, SolveUnderdeterminedReturnsSomeSolution) {
  RatMatrix a{{Rat(1), Rat(1), Rat(1)}};
  auto x = a.solve({Rat(6)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0] + (*x)[1] + (*x)[2], Rat(6));
}

TEST(Matrix, SolveRationalResult) {
  RatMatrix a{{Rat(2), Rat(0)}, {Rat(0), Rat(3)}};
  auto x = a.solve({Rat(1), Rat(1)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], Rat(1, 2));
  EXPECT_EQ((*x)[1], Rat(1, 3));
}

// The nullspace through rank–nullity and solve: A has 3 columns and rank
// 1, so its nullspace has dimension 2, spanned by two independent kernel
// vectors; a full-rank square A has only the trivial kernel.
TEST(Matrix, NullspaceOfRankDeficient) {
  RatMatrix a{{Rat(1), Rat(2), Rat(3)}, {Rat(2), Rat(4), Rat(6)}};
  EXPECT_EQ(a.cols() - a.rank(), 2u);
  RatMatrix basis{{Rat(2), Rat(-1), Rat(0)}, {Rat(3), Rat(0), Rat(-1)}};
  EXPECT_EQ(basis.rank(), 2u);
  for (std::size_t k = 0; k < basis.rows(); ++k)
    for (std::size_t r = 0; r < a.rows(); ++r)
      EXPECT_EQ(dot(a.row(r), basis.row(k)), Rat(0));
  // A kernel vector is not in A's row space (it is orthogonal to it).
  EXPECT_FALSE(a.row_space_contains(basis.row(0)));
}

TEST(Matrix, NullspaceOfFullRankIsEmpty) {
  RatMatrix a{{Rat(1), Rat(0)}, {Rat(0), Rat(1)}};
  EXPECT_EQ(a.cols() - a.rank(), 0u);
  RatMatrix b{{Rat(2), Rat(1)}, {Rat(1), Rat(1)}};
  auto x = b.solve({Rat(0), Rat(0)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, (RatVec{Rat(0), Rat(0)}));
}

TEST(Matrix, RowSpaceContains) {
  RatMatrix a{{Rat(1), Rat(0), Rat(1)}, {Rat(0), Rat(1), Rat(1)}};
  EXPECT_TRUE(a.row_space_contains({Rat(1), Rat(1), Rat(2)}));
  EXPECT_TRUE(a.row_space_contains({Rat(2), Rat(-1), Rat(1)}));
  EXPECT_FALSE(a.row_space_contains({Rat(0), Rat(0), Rat(1)}));
  EXPECT_TRUE(a.row_space_contains({Rat(0), Rat(0), Rat(0)}));
}

TEST(Matrix, PushRowAndAccessors) {
  RatMatrix m;
  m.push_row({Rat(1), Rat(2)});
  m.push_row({Rat(3), Rat(4)});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.at(1, 0), Rat(3));
  EXPECT_THROW(m.push_row({Rat(1)}), Error);
}

TEST(Matrix, DotProduct) {
  EXPECT_EQ(dot({Rat(1), Rat(2)}, {Rat(3), Rat(4)}), Rat(11));
  EXPECT_THROW(dot({Rat(1)}, {Rat(1), Rat(2)}), Error);
}

// Property sweep: random-ish integer matrices — solve() result must verify.
class MatrixSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatrixSolveSweep, SolutionSatisfiesSystem) {
  int seed = GetParam();
  // Small deterministic LCG so the sweep is reproducible.
  u64 state = static_cast<u64>(seed) * 6364136223846793005ULL + 1;
  auto next = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<i64>((state >> 33) % 11) - 5;
  };
  std::size_t n = 3;
  RatMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = Rat(next());
  RatVec b(n);
  for (auto& v : b) v = Rat(next());
  auto x = a.solve(b);
  if (x) {
    for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(dot(a.row(r), *x), b[r]);
  } else {
    // Inconsistent: rank of [A|b] must exceed rank of A.
    RatMatrix aug(n, n + 1);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) aug.at(r, c) = a.at(r, c);
      aug.at(r, n) = b[r];
    }
    EXPECT_GT(aug.rank(), a.rank());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixSolveSweep, ::testing::Range(0, 50));

}  // namespace
}  // namespace pp
