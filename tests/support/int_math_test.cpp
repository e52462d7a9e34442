#include "support/int_math.hpp"

#include <gtest/gtest.h>

namespace pp {
namespace {

TEST(IntMath, GcdBasics) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(12, -18), 6);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(5, 0), 5);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(gcd(7, 13), 1);
}

TEST(IntMath, Gcd64BitPathMatchesI128Loop) {
  u64 state = 3;
  auto next = [&] {  // splitmix64
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  // Magnitudes below, at and above 2^64, with shared factors so the
  // results are not all 1; mixed operands start on the 128-bit loop and
  // finish on the 64-bit one.
  auto operand = [&]() -> i128 {
    const u64 r = next();
    i128 v = 0;
    switch (r % 5) {
      case 0: v = static_cast<i128>(next() % 100000); break;
      case 1: v = static_cast<i128>(next()); break;
      case 2: v = static_cast<i128>(UINT64_MAX - next() % 3); break;
      case 3: v = (static_cast<i128>(next() >> 2) << 64) | next(); break;
      default: v = static_cast<i128>(next() % 5000) * 720720; break;
    }
    return (r & 8) != 0 ? -v : v;
  };
  for (int t = 0; t < 20000; ++t) {
    const i128 a = operand(), b = operand();
    ASSERT_EQ(gcd(a, b), gcd_i128(a, b));
    ASSERT_EQ(gcd(a, 0), gcd_i128(a, 0));
    ASSERT_EQ(gcd(0, b), gcd_i128(0, b));
  }
  const i128 two64 = static_cast<i128>(1) << 64;
  EXPECT_EQ(gcd(two64, static_cast<i128>(UINT64_MAX)), 1);
  EXPECT_EQ(gcd(two64, 1 << 20), 1 << 20);
  EXPECT_EQ(gcd(-two64 * 3, two64 * 6), two64 * 3);
}

TEST(IntMath, Lcm) {
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 6), 0);
  EXPECT_EQ(lcm(-4, 6), 12);
}

TEST(IntMath, FloorDivAllSignCombinations) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(7, -2), -4);
  EXPECT_EQ(floor_div(-7, -2), 3);
  EXPECT_EQ(floor_div(6, 2), 3);
  EXPECT_EQ(floor_div(-6, 2), -3);
}

TEST(IntMath, CeilDivAllSignCombinations) {
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(7, -2), -3);
  EXPECT_EQ(ceil_div(-7, -2), 4);
  EXPECT_EQ(ceil_div(6, 2), 3);
}

TEST(IntMath, FloorCeilAgreeOnExactDivision) {
  for (int a = -20; a <= 20; ++a) {
    for (int b : {-3, -1, 1, 3}) {
      if (a % b == 0) {
        EXPECT_EQ(floor_div(a, b), ceil_div(a, b));
      }
      EXPECT_LE(floor_div(a, b), ceil_div(a, b));
    }
  }
}

TEST(IntMath, CheckedOpsThrowOnOverflow) {
  i128 big = i128(1) << 126;
  EXPECT_THROW(add_checked(big, big), Error);
  EXPECT_THROW(mul_checked(big, 4), Error);
  EXPECT_THROW(sub_checked(-big - big, big), Error);
  EXPECT_EQ(add_checked(big, -big), 0);
}

TEST(IntMath, ToString128) {
  EXPECT_EQ(to_string_i128(0), "0");
  EXPECT_EQ(to_string_i128(42), "42");
  EXPECT_EQ(to_string_i128(-42), "-42");
  i128 big = i128(1000000000000000000LL) * 1000;
  EXPECT_EQ(to_string_i128(big), "1000000000000000000000");
  EXPECT_EQ(to_string_i128(-big), "-1000000000000000000000");
}

TEST(IntMath, NarrowI64) {
  EXPECT_EQ(narrow_i64(i128(INT64_MAX)), INT64_MAX);
  EXPECT_EQ(narrow_i64(i128(INT64_MIN)), INT64_MIN);
  EXPECT_THROW(narrow_i64(i128(INT64_MAX) + 1), Error);
}

}  // namespace
}  // namespace pp
