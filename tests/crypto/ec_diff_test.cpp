// Differential tests: the Barrett order-n reduction, the binary-GCD
// inversions (order n and the field prime p) and the joint u1·G + u2·Q
// chain against the bit-serial / Fermat / two-multiply reference
// (reference_arith.hpp), on seeded random inputs plus the edge values
// where limb carries and special points live.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/ecdsa.hpp"
#include "reference_arith.hpp"

namespace ratt::crypto {
namespace {

const U192& n() { return Secp160r1::order(); }

U192 two_pow_160() {
  U192 v;
  v.set_limb(5, 1);
  return v;
}

/// Uniform-ish scalar in [0, n). Every fourth draw lands in [2^160, n),
/// a range of width ~2^81 that plain sampling would essentially never
/// hit, and where the top limb is set.
U192 rand_scalar(HmacDrbg& drbg) {
  Bytes raw = drbg.generate(U192::kBytes);
  if ((raw[23] & 3) == 0) {
    // 2^160 + (80-bit value) < n, since n - 2^160 > 2^80.
    for (std::size_t i = 0; i < 14; ++i) raw[i] = 0;
    raw[3] = 1;
    return U192::from_bytes_be(raw);
  }
  raw[0] = raw[1] = raw[2] = raw[3] = 0;
  raw[4] &= 0x01;
  U192 v = U192::from_bytes_be(raw);
  if (v >= n()) v = v - n();
  return v;
}

std::vector<U192> scalar_edges() {
  return {U192(1),
          U192(2),
          n() - U192(1),
          n() - U192(2),
          Fp160::modulus().resized<6>() - U192(1),  // p - 1
          two_pow_160() - U192(1),
          two_pow_160(),
          two_pow_160() + U192(1),
          U192(0xffffffffull),
          U192(0x100000000ull)};
}

TEST(ModnDiff, MulMatchesReference) {
  HmacDrbg drbg(from_string("modn-mul-diff"));
  for (int i = 0; i < 400; ++i) {
    const U192 a = rand_scalar(drbg);
    const U192 b = rand_scalar(drbg);
    ASSERT_EQ(modn_mul(a, b), reference::modn_mul(a, b))
        << a.to_hex() << " * " << b.to_hex();
  }
}

TEST(ModnDiff, MulEdgeValues) {
  const auto edges = scalar_edges();
  for (const U192& a : edges) {
    EXPECT_TRUE(modn_mul(a, U192(0)).is_zero());
    for (const U192& b : edges) {
      EXPECT_EQ(modn_mul(a, b), reference::modn_mul(a, b))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
  // (n-1)^2 = (-1)^2 = 1: the largest product the reduction sees.
  EXPECT_EQ(modn_mul(n() - U192(1), n() - U192(1)), U192(1));
}

TEST(ModnDiff, ReduceMatchesReference) {
  // modn accepts any 192-bit value, not just products of residues.
  HmacDrbg drbg(from_string("modn-reduce-diff"));
  for (int i = 0; i < 400; ++i) {
    const U192 a = U192::from_bytes_be(drbg.generate(U192::kBytes));
    ASSERT_EQ(modn(a), reference::modn(a)) << a.to_hex();
  }
  std::vector<U192> wide = scalar_edges();
  wide.push_back(U192(0));
  wide.push_back(n());
  wide.push_back(n() + U192(1));
  wide.push_back(n() + n());
  wide.push_back(n() + n() + n() - U192(1));
  wide.push_back(U192() - U192(1));  // 2^192 - 1
  for (const U192& a : wide) {
    EXPECT_EQ(modn(a), reference::modn(a)) << a.to_hex();
  }
}

TEST(ModnDiff, InverseMatchesFermat) {
  HmacDrbg drbg(from_string("modn-inv-diff"));
  for (int i = 0; i < 60; ++i) {
    U192 a = rand_scalar(drbg);
    if (a.is_zero()) a = U192(1);
    const U192 inv = modn_inv(a);
    ASSERT_EQ(inv, reference::modn_inv(a)) << a.to_hex();
    ASSERT_EQ(modn_mul(a, inv), U192(1)) << a.to_hex();
  }
}

TEST(ModnDiff, InverseEdgeValues) {
  for (const U192& a : scalar_edges()) {
    EXPECT_EQ(modn_inv(a), reference::modn_inv(a)) << a.to_hex();
  }
  EXPECT_EQ(modn_inv(U192(1)), U192(1));
  EXPECT_EQ(modn_inv(n() - U192(1)), n() - U192(1));  // (-1)^-1 = -1
  EXPECT_THROW(modn_inv(U192(0)), std::domain_error);
}

TEST(Fp160Diff, InverseMatchesFermat) {
  HmacDrbg drbg(from_string("fp160-inv-diff"));
  std::vector<Fp160> inputs;
  for (int i = 0; i < 300; ++i) {
    inputs.emplace_back(U160::from_bytes_be(drbg.generate(U160::kBytes)));
  }
  const U160& p = Fp160::modulus();
  for (const U160& v : {U160(1), U160(2), U160(std::uint64_t{1} << 31),
                        p - U160(1), p - U160(2), p - U160(1).shifted_left(31),
                        (p - U160(1)).shifted_right(1)}) {
    inputs.emplace_back(v);
  }
  const Fp160 one(std::uint64_t{1});
  for (const Fp160& a : inputs) {
    if (a.is_zero()) continue;
    const Fp160 inv = a.inverse();
    ASSERT_EQ(inv, reference::fp_inverse(a)) << a.value().to_hex();
    ASSERT_EQ(a * inv, one) << a.value().to_hex();
  }
}

TEST(InverseModOdd, SmallModuliExhaustive) {
  // Every residue of a few small odd moduli, prime and composite: either
  // the inverse checks out against the bit-serial product, or gcd > 1
  // and the call throws. 0xfffffffb exercises the carry out of x + m.
  using U32 = UInt<1>;
  for (const std::uint32_t m : {3u, 9u, 15u, 101u, 255u, 1023u}) {
    for (std::uint32_t a = 0; a < m; ++a) {
      std::uint32_t g = m;
      for (std::uint32_t x = a; x != 0;) {
        const std::uint32_t t = g % x;
        g = x;
        x = t;
      }
      if (g != 1) {
        EXPECT_THROW(inverse_mod_odd(U32(a), U32(m)), std::domain_error)
            << a << " mod " << m;
        continue;
      }
      const U32 inv = inverse_mod_odd(U32(a), U32(m));
      EXPECT_LT(inv, U32(m));
      EXPECT_EQ(reference::mod_wide(mul_wide(U32(a), inv), U32(m)), U32(1))
          << a << " mod " << m;
    }
  }
  HmacDrbg drbg(from_string("inverse-mod-odd-wide"));
  const U32 m(0xfffffffbu);  // prime
  for (int i = 0; i < 2000; ++i) {
    const U32 a(1 + drbg.uniform(0xfffffffaull));
    const U32 inv = inverse_mod_odd(a, m);
    ASSERT_EQ(reference::mod_wide(mul_wide(a, inv), m), U32(1));
  }
}

TEST(InverseModOdd, RejectsBadArguments) {
  EXPECT_THROW(inverse_mod_odd(U160(3), U160(10)), std::invalid_argument);
  EXPECT_THROW(inverse_mod_odd(U160(11), U160(11)), std::invalid_argument);
  EXPECT_THROW(inverse_mod_odd(U160(0), U160(11)), std::domain_error);
}

EcPoint two_multiplies(const U192& u1, const U192& u2, const EcPoint& q) {
  return Secp160r1::add(Secp160r1::scalar_mul_base(u1),
                        Secp160r1::scalar_mul(u2, q));
}

TEST(JointScalarMul, MatchesSeparateMultiplies) {
  HmacDrbg drbg(from_string("joint-scalar-mul-diff"));
  for (int i = 0; i < 40; ++i) {
    const U192 u1 = rand_scalar(drbg);
    const U192 u2 = rand_scalar(drbg);
    const EcPoint q = Secp160r1::scalar_mul_base(rand_scalar(drbg));
    ASSERT_EQ(Secp160r1::joint_scalar_mul(u1, u2, q), two_multiplies(u1, u2, q))
        << u1.to_hex() << " " << u2.to_hex();
  }
}

TEST(JointScalarMul, EdgeCases) {
  HmacDrbg drbg(from_string("joint-scalar-mul-edges"));
  const EcPoint& g = Secp160r1::generator();
  const EcPoint neg_g = EcPoint::make(g.x, g.y.negated());
  const EcPoint q = Secp160r1::scalar_mul_base(rand_scalar(drbg));
  const U192 a = rand_scalar(drbg);
  const U192 zero;

  struct Case {
    U192 u1;
    U192 u2;
    EcPoint q;
    const char* what;
  };
  const Case cases[] = {
      {zero, a, q, "u1 = 0"},
      {a, zero, q, "u2 = 0"},
      {zero, zero, q, "u1 = u2 = 0"},
      {a, a, g, "Q = G (G + Q is a doubling)"},
      {a, rand_scalar(drbg), g, "Q = G, distinct scalars"},
      {a, a, neg_g, "Q = -G, equal scalars (result is infinity)"},
      {a, rand_scalar(drbg), neg_g, "Q = -G (G + Q is infinity)"},
      {n() - U192(1), U192(1), g, "(n-1)·G + G = infinity"},
      {n() - U192(1), n() - U192(1), q, "both scalars n - 1"},
      {two_pow_160(), U192(1), q, "u1 = 2^160"},
      {a, a, EcPoint{}, "Q = infinity"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Secp160r1::joint_scalar_mul(c.u1, c.u2, c.q),
              two_multiplies(c.u1, c.u2, c.q))
        << c.what;
  }
  EXPECT_TRUE(Secp160r1::joint_scalar_mul(a, a, neg_g).infinity);
  EXPECT_TRUE(Secp160r1::joint_scalar_mul(zero, zero, q).infinity);
}

}  // namespace
}  // namespace ratt::crypto
