// Exact rational arithmetic over 128-bit integers. This is the numeric
// tower underneath the polyhedral library: simplex pivots, Gaussian
// elimination and affine-function interpolation all run on pp::Rat so
// results are exact (no epsilon tuning) and overflow is detected, not
// silently wrapped.
#pragma once

#include <compare>
#include <string>

#include "support/int_math.hpp"

namespace pp {

/// An exact rational number kept in canonical form: gcd(num, den) == 1 and
/// den > 0. Value-semantic, cheap to copy (two 128-bit words).
class Rat {
 public:
  constexpr Rat() : num_(0), den_(1) {}
  Rat(i128 n) : num_(n), den_(1) {}  // NOLINT(google-explicit-constructor)
  Rat(i64 n) : num_(n), den_(1) {}   // NOLINT(google-explicit-constructor)
  Rat(int n) : num_(n), den_(1) {}   // NOLINT(google-explicit-constructor)
  Rat(i128 n, i128 d) : num_(n), den_(d) {
    if (den_ != 1) normalize();
  }

  i128 num() const { return num_; }
  i128 den() const { return den_; }

  bool is_zero() const { return num_ == 0; }
  bool is_integer() const { return den_ == 1; }
  /// Sign of the value: -1, 0 or +1.
  int sign() const { return num_ < 0 ? -1 : (num_ > 0 ? 1 : 0); }

  Rat operator-() const { return Rat(unchecked{}, -num_, den_); }
  // Integer operands (both denominators 1) take an inline path: the
  // general one would compute gcds that are all 1 and the same checked
  // operation, so results and overflow throws are identical.
  Rat operator+(const Rat& o) const {
    if (den_ == 1 && o.den_ == 1)
      return Rat(unchecked{}, add_checked(num_, o.num_), 1);
    return add_general(o);
  }
  Rat operator-(const Rat& o) const { return *this + (-o); }
  Rat operator*(const Rat& o) const {
    if (den_ == 1 && o.den_ == 1)
      return Rat(unchecked{}, mul_checked(num_, o.num_), 1);
    return mul_general(o);
  }
  Rat operator/(const Rat& o) const;
  Rat& operator+=(const Rat& o) { return *this = *this + o; }
  Rat& operator-=(const Rat& o) { return *this = *this - o; }
  Rat& operator*=(const Rat& o) { return *this = *this * o; }
  Rat& operator/=(const Rat& o) { return *this = *this / o; }

  bool operator==(const Rat& o) const { return num_ == o.num_ && den_ == o.den_; }
  bool operator!=(const Rat& o) const { return !(*this == o); }
  bool operator<(const Rat& o) const { return cmp(o) < 0; }
  bool operator<=(const Rat& o) const { return cmp(o) <= 0; }
  bool operator>(const Rat& o) const { return cmp(o) > 0; }
  bool operator>=(const Rat& o) const { return cmp(o) >= 0; }

  /// Largest integer <= value.
  i128 floor() const { return floor_div(num_, den_); }
  /// Smallest integer >= value.
  i128 ceil() const { return ceil_div(num_, den_); }

  Rat abs() const { return num_ < 0 ? -*this : *this; }

  /// "7/3" or "4" when integral.
  std::string str() const;

  /// The general (gcd-reducing) kernels behind +, * and the comparisons,
  /// for any denominators; public as the reference the integer paths are
  /// tested against.
  Rat add_general(const Rat& o) const;
  Rat mul_general(const Rat& o) const;
  int cmp_general(const Rat& o) const;

  /// Lossy conversion for reporting/metrics only — never used in the exact
  /// kernels.
  double to_double() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

 private:
  struct unchecked {};
  Rat(unchecked, i128 n, i128 d) : num_(n), den_(d) {}
  void normalize();
  int cmp(const Rat& o) const {
    if (den_ == 1 && o.den_ == 1)
      return num_ < o.num_ ? -1 : (num_ > o.num_ ? 1 : 0);
    return cmp_general(o);
  }

  i128 num_;
  i128 den_;
};

inline Rat operator+(i128 a, const Rat& b) { return Rat(a) + b; }
inline Rat operator-(i128 a, const Rat& b) { return Rat(a) - b; }
inline Rat operator*(i128 a, const Rat& b) { return Rat(a) * b; }

}  // namespace pp
