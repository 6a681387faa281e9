#include "ratt/crypto/fp160.hpp"

#include <stdexcept>

namespace ratt::crypto {

namespace {

// Function-local static: Fp160 constructors run during other translation
// units' static initialization (e.g. the curve constants in ec.cpp), so the
// modulus must be initialized lazily, not as a namespace-scope object.
const U160& prime() {
  static const U160 p =
      U160::from_hex("ffffffffffffffffffffffffffffffff7fffffff");
  return p;
}

// Reduce a 320-bit product modulo p, limb by limb, using
//   a = hi·2^160 + lo ≡ lo + hi·(2^31 + 1) (mod p).
// Each 64-bit step hi_i·(2^31 + 1) + lo_i + carry stays below 2^64. The
// carry out of the top limb (< 2^32) is folded the same way; that fold
// can carry past 2^160 only when it leaves the low limbs below 2^64, so
// folding that one bit cannot carry again. The result is then < 2^160
// < 2p, and one conditional subtraction normalizes it.
U160 reduce320(const U320& a) {
  constexpr std::uint64_t kFold = (std::uint64_t{1} << 31) + 1;
  U160 r;
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    t = std::uint64_t{a.limb(i + 5)} * kFold + a.limb(i) + (t >> 32);
    r.set_limb(i, static_cast<std::uint32_t>(t));
  }
  for (int fold = 0; fold < 2; ++fold) {
    t = std::uint64_t{r.limb(0)} + (t >> 32) * kFold;
    r.set_limb(0, static_cast<std::uint32_t>(t));
    for (std::size_t i = 1; i < 5; ++i) {
      t = std::uint64_t{r.limb(i)} + (t >> 32);
      r.set_limb(i, static_cast<std::uint32_t>(t));
    }
  }
  if (r >= prime()) r = r - prime();
  return r;
}

}  // namespace

const U160& Fp160::modulus() { return prime(); }

Fp160::Fp160(const U160& v) {
  value_ = v;
  while (value_ >= prime()) {
    value_ = value_ - prime();
  }
}

Fp160 operator+(const Fp160& a, const Fp160& b) {
  Fp160 out;
  const std::uint32_t carry = U160::add(a.value_, b.value_, out.value_);
  if (carry != 0 || out.value_ >= prime()) {
    out.value_ = out.value_ - prime();
  }
  return out;
}

Fp160 operator-(const Fp160& a, const Fp160& b) {
  Fp160 out;
  const std::uint32_t borrow = U160::sub(a.value_, b.value_, out.value_);
  if (borrow != 0) {
    U160::add(out.value_, prime(), out.value_);
  }
  return out;
}

Fp160 operator*(const Fp160& a, const Fp160& b) {
  Fp160 out;
  out.value_ = reduce320(mul_wide(a.value_, b.value_));
  return out;
}

Fp160 Fp160::negated() const {
  if (value_.is_zero()) return *this;
  Fp160 out;
  U160::sub(prime(), value_, out.value_);
  return out;
}

Fp160 Fp160::pow(const U160& e) const {
  Fp160 result(std::uint64_t{1});
  Fp160 base = *this;
  const int bits = e.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (e.bit(static_cast<std::size_t>(i))) {
      result = result * base;
    }
    base = base.squared();
  }
  return result;
}

std::optional<Fp160> Fp160::sqrt() const {
  if (value_.is_zero()) return Fp160();
  // p = 3 (mod 4): candidate = a^((p+1)/4); verify by squaring, since
  // non-residues produce a wrong answer rather than an error.
  const U160 exponent = (prime() + U160(1)).shifted_right(2);
  const Fp160 candidate = pow(exponent);
  if (candidate.squared() == *this) return candidate;
  return std::nullopt;
}

Fp160 Fp160::inverse() const {
  if (value_.is_zero()) {
    throw std::domain_error("Fp160::inverse: zero has no inverse");
  }
  Fp160 out;
  out.value_ = inverse_mod_odd(value_, prime());
  return out;
}

}  // namespace ratt::crypto
