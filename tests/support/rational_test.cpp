#include "support/rational.hpp"

#include <optional>

#include <gtest/gtest.h>

namespace pp {
namespace {

TEST(Rational, CanonicalForm) {
  Rat r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  Rat neg(3, -4);
  EXPECT_EQ(neg.num(), -3);
  EXPECT_EQ(neg.den(), 4);
  Rat zero(0, 17);
  EXPECT_EQ(zero.num(), 0);
  EXPECT_EQ(zero.den(), 1);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rat(1, 2) + Rat(1, 3), Rat(5, 6));
  EXPECT_EQ(Rat(1, 2) - Rat(1, 3), Rat(1, 6));
  EXPECT_EQ(Rat(2, 3) * Rat(3, 4), Rat(1, 2));
  EXPECT_EQ(Rat(2, 3) / Rat(4, 3), Rat(1, 2));
  EXPECT_EQ(-Rat(2, 3), Rat(-2, 3));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rat(1) / Rat(0), Error);
  EXPECT_THROW(Rat(1, 0), Error);
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rat(1, 3), Rat(1, 2));
  EXPECT_GT(Rat(-1, 3), Rat(-1, 2));
  EXPECT_LE(Rat(2, 4), Rat(1, 2));
  EXPECT_EQ(Rat(2, 4), Rat(1, 2));
  EXPECT_NE(Rat(1, 3), Rat(1, 2));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rat(7, 2).floor(), 3);
  EXPECT_EQ(Rat(7, 2).ceil(), 4);
  EXPECT_EQ(Rat(-7, 2).floor(), -4);
  EXPECT_EQ(Rat(-7, 2).ceil(), -3);
  EXPECT_EQ(Rat(4).floor(), 4);
  EXPECT_EQ(Rat(4).ceil(), 4);
}

TEST(Rational, StrAndPredicates) {
  EXPECT_EQ(Rat(7, 3).str(), "7/3");
  EXPECT_EQ(Rat(4).str(), "4");
  EXPECT_EQ(Rat(-1, 2).str(), "-1/2");
  EXPECT_TRUE(Rat(0).is_zero());
  EXPECT_TRUE(Rat(4).is_integer());
  EXPECT_FALSE(Rat(1, 2).is_integer());
  EXPECT_EQ(Rat(-5).sign(), -1);
  EXPECT_EQ(Rat(0).sign(), 0);
  EXPECT_EQ(Rat(5).sign(), 1);
}

TEST(Rational, AbsAndCompound) {
  EXPECT_EQ(Rat(-3, 4).abs(), Rat(3, 4));
  Rat r(1, 2);
  r += Rat(1, 2);
  EXPECT_EQ(r, Rat(1));
  r *= Rat(3);
  EXPECT_EQ(r, Rat(3));
  r -= Rat(1, 3);
  EXPECT_EQ(r, Rat(8, 3));
  r /= Rat(2);
  EXPECT_EQ(r, Rat(4, 3));
}

TEST(Rational, FieldAxiomsSweep) {
  // Exhaustive small-value sweep of commutativity/associativity/
  // distributivity — the rational kernel must be a field, exactly.
  std::vector<Rat> vals;
  for (int n = -3; n <= 3; ++n)
    for (int d = 1; d <= 3; ++d) vals.emplace_back(n, d);
  for (const Rat& a : vals) {
    for (const Rat& b : vals) {
      EXPECT_EQ(a + b, b + a);
      EXPECT_EQ(a * b, b * a);
      for (const Rat& c : vals) {
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
      }
    }
  }
}

// Splitmix64: deterministic operands for the differential sweeps below.
u64 mix(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// A nonzero-magnitude mix: small values, 64-bit values, and values within
// a few units of ±(2^127 - 1) so the checked operations overflow.
i128 operand(u64& state) {
  const i128 top =
      static_cast<i128>((static_cast<unsigned __int128>(1) << 127) - 1);
  const u64 r = mix(state);
  const bool neg = (r & 1) != 0;
  i128 v = 0;
  switch ((r >> 1) % 4) {
    case 0: v = static_cast<i128>(mix(state) % 1000); break;
    case 1: v = static_cast<i128>(mix(state) >> 1); break;
    case 2:
      v = (static_cast<i128>(mix(state) >> 2) << 62) | (mix(state) >> 2);
      break;
    default: v = top - static_cast<i128>(mix(state) % 8); break;
  }
  return neg ? -v : v;
}

// The value an operation produced, or nullopt when it threw.
template <class F>
std::optional<Rat> outcome(F f) {
  try {
    return f();
  } catch (const Error&) {
    return std::nullopt;
  }
}

TEST(RationalIntegerPath, AgreesWithGeneralPathIncludingOverflow) {
  u64 state = 7;
  int threw = 0;
  for (int t = 0; t < 20000; ++t) {
    const Rat a(operand(state)), b(operand(state));
    const auto sum = outcome([&] { return a + b; });
    EXPECT_EQ(sum, outcome([&] { return a.add_general(b); }));
    const auto prod = outcome([&] { return a * b; });
    EXPECT_EQ(prod, outcome([&] { return a.mul_general(b); }));
    EXPECT_EQ(outcome([&] { return a - b; }),
              outcome([&] { return a.add_general(-b); }));
    EXPECT_EQ(a < b, a.cmp_general(b) < 0);
    EXPECT_EQ(a == b, a.cmp_general(b) == 0);
    threw += !sum.has_value() + !prod.has_value();
  }
  // Both the in-range and the overflowing halves were exercised.
  EXPECT_GT(threw, 1000);
  EXPECT_LT(threw, 30000);
}

TEST(RationalIntegerPath, NormalizeSkipsOnlyRedundantGcds) {
  u64 state = 11;
  for (int t = 0; t < 5000; ++t) {
    const i128 n = static_cast<i128>(mix(state) >> 1) * ((t & 1) ? -1 : 1);
    const i128 k = static_cast<i128>(mix(state) % 1000 + 1);
    // Denominator 1 or -1 skips the gcd; a scaled copy takes it.
    const Rat one(n, 1), minus(-n, -1), scaled(n * k, k);
    EXPECT_EQ(one, scaled);
    EXPECT_EQ(minus, scaled);
    EXPECT_EQ(one.den(), 1);
    EXPECT_EQ(one.num(), n);
  }
  EXPECT_THROW(Rat(1, 0), Error);
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rat(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rat(-3).to_double(), -3.0);
}

}  // namespace
}  // namespace pp
