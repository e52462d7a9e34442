// Overflow-checked integer helpers over __int128. The folding and
// scheduling stages perform exact rational arithmetic whose intermediate
// values can grow quickly (Gaussian elimination on skewed iteration
// domains); 128-bit intermediates with explicit overflow detection keep
// the computation exact or loudly failing, never silently wrong.
#pragma once

#include <cstdint>
#include <string>

#include "support/diag.hpp"

namespace pp {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i128 = __int128;

/// Checked addition; throws pp::Error on signed overflow.
inline i128 add_checked(i128 a, i128 b) {
  i128 r;
  if (__builtin_add_overflow(a, b, &r)) fatal("i128 addition overflow");
  return r;
}

/// Checked subtraction; throws pp::Error on signed overflow.
inline i128 sub_checked(i128 a, i128 b) {
  i128 r;
  if (__builtin_sub_overflow(a, b, &r)) fatal("i128 subtraction overflow");
  return r;
}

/// Checked multiplication; throws pp::Error on signed overflow.
inline i128 mul_checked(i128 a, i128 b) {
  i128 r;
  if (__builtin_mul_overflow(a, b, &r)) fatal("i128 multiplication overflow");
  return r;
}

/// Euclid's loop on 128-bit values (the reference for gcd()'s 64-bit path).
inline i128 gcd_i128(i128 a, i128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    i128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Euclid's loop on 64-bit magnitudes.
inline u64 gcd_u64(u64 a, u64 b) {
  while (b != 0) {
    u64 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Greatest common divisor (always non-negative; gcd(0,0) == 0). Runs the
/// 128-bit loop only while an operand needs more than 64 bits: a 128-bit
/// remainder is a library call, a 64-bit one a single instruction.
inline i128 gcd(i128 a, i128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (static_cast<unsigned __int128>(a | b) > UINT64_MAX) {
    if (b == 0) return a;
    i128 t = a % b;
    a = b;
    b = t;
  }
  return static_cast<i128>(gcd_u64(static_cast<u64>(a), static_cast<u64>(b)));
}

/// Least common multiple (always non-negative) with overflow checking.
inline i128 lcm(i128 a, i128 b) {
  if (a == 0 || b == 0) return 0;
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  i128 g = gcd(a, b);
  return mul_checked(a / g, b);
}

/// Floor division (round towards negative infinity), exact for all signs.
inline i128 floor_div(i128 a, i128 b) {
  PP_CHECK(b != 0, "floor_div by zero");
  i128 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Ceiling division (round towards positive infinity).
inline i128 ceil_div(i128 a, i128 b) {
  PP_CHECK(b != 0, "ceil_div by zero");
  i128 q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) ++q;
  return q;
}

/// Decimal rendering of a 128-bit integer (std::to_string lacks support).
std::string to_string_i128(i128 v);

/// Narrow to int64, throwing if the value does not fit.
inline i64 narrow_i64(i128 v) {
  PP_CHECK(v >= INT64_MIN && v <= INT64_MAX, "i128 value exceeds int64 range");
  return static_cast<i64>(v);
}

}  // namespace pp
