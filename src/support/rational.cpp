#include "support/rational.hpp"

namespace pp {

void Rat::normalize() {
  PP_CHECK(den_ != 0, "rational with zero denominator");
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (den_ == 1) return;  // was -1: gcd(n, 1) == 1
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  i128 g = gcd(num_, den_);
  num_ /= g;
  den_ /= g;
}

Rat Rat::add_general(const Rat& o) const {
  // Cross-reduce first to keep intermediates small: a/b + c/d with
  // g = gcd(b, d) computes over b/g and d/g.
  i128 g = gcd(den_, o.den_);
  i128 db = den_ / g;
  i128 dod = o.den_ / g;
  i128 n = add_checked(mul_checked(num_, dod), mul_checked(o.num_, db));
  i128 d = mul_checked(den_, dod);
  return Rat(n, d);
}

Rat Rat::mul_general(const Rat& o) const {
  // Cross-cancel before multiplying to limit growth.
  i128 g1 = gcd(num_, o.den_);
  i128 g2 = gcd(o.num_, den_);
  i128 n = mul_checked(num_ / g1, o.num_ / g2);
  i128 d = mul_checked(den_ / g2, o.den_ / g1);
  return Rat(n, d);
}

Rat Rat::operator/(const Rat& o) const {
  PP_CHECK(!o.is_zero(), "rational division by zero");
  return *this * Rat(o.den_, o.num_);
}

int Rat::cmp_general(const Rat& o) const {
  // Compare a/b ? c/d via a*d ? c*b (denominators positive).
  i128 l = mul_checked(num_, o.den_);
  i128 r = mul_checked(o.num_, den_);
  return l < r ? -1 : (l > r ? 1 : 0);
}

std::string Rat::str() const {
  if (den_ == 1) return to_string_i128(num_);
  return to_string_i128(num_) + "/" + to_string_i128(den_);
}

}  // namespace pp
