// Reference (oracle) arithmetic for the differential tests: the
// bit-serial long division and Fermat inversions the library used before
// its Barrett reduction and binary-GCD inversion. Deliberately simple and
// slow; nothing in src/ uses them.
#pragma once

#include <stdexcept>

#include "ratt/crypto/bigint.hpp"
#include "ratt/crypto/ec.hpp"
#include "ratt/crypto/fp160.hpp"

namespace ratt::crypto::reference {

/// Remainder of a (2W wide) modulo m (W wide), by binary long division:
/// one shift/compare/subtract pass per bit of a. Precondition: m != 0.
template <std::size_t W>
UInt<W> mod_wide(const UInt<2 * W>& a, const UInt<W>& m) {
  if (m.is_zero()) throw std::invalid_argument("mod_wide: zero modulus");
  const UInt<2 * W> m_wide = m.template resized<2 * W>();
  UInt<2 * W> rem;
  for (int i = a.bit_length(); i-- > 0;) {
    rem = rem.shifted_left(1);
    if (a.bit(static_cast<std::size_t>(i))) {
      rem.set_limb(0, rem.limb(0) | 1);
    }
    if (rem >= m_wide) {
      rem = rem - m_wide;
    }
  }
  return rem.template resized<W>();
}

/// a·b mod n through the bit-serial division.
inline U192 modn_mul(const U192& a, const U192& b) {
  return mod_wide(mul_wide(a, b), Secp160r1::order());
}

/// a mod n through the bit-serial division.
inline U192 modn(const U192& a) {
  return mod_wide(a.resized<12>(), Secp160r1::order());
}

/// a^-1 mod n by Fermat (n is prime): a^(n-2), square-and-multiply.
inline U192 modn_inv(const U192& a) {
  if (a.is_zero()) throw std::domain_error("reference::modn_inv: zero");
  const U192 e = Secp160r1::order() - U192(2);
  U192 result(1);
  U192 acc = a;
  for (int i = 0; i < e.bit_length(); ++i) {
    if (e.bit(static_cast<std::size_t>(i))) {
      result = reference::modn_mul(result, acc);
    }
    acc = reference::modn_mul(acc, acc);
  }
  return result;
}

/// a^-1 mod p by Fermat: a^(p-2).
inline Fp160 fp_inverse(const Fp160& a) {
  if (a.is_zero()) throw std::domain_error("reference::fp_inverse: zero");
  return a.pow(Fp160::modulus() - U160(2));
}

}  // namespace ratt::crypto::reference
