// Seeded fuzz sweep over the EC parsers and ECDSA verification:
//   * EcPoint::decode on random and mutated 1/21/41-byte inputs throws
//     nothing, and anything it accepts is an on-curve point whose
//     canonical re-encoding is the input itself (so coordinates >= p and
//     other non-canonical encodings are rejected);
//   * EcdsaSignature::from_bytes parses exactly the 48-byte inputs;
//   * ecdsa_verify never accepts a tuple with a bit flipped in r, s, the
//     public key or the message.
//
// RATT_EC_SEEDS overrides the seed count per property (default 256; CI's
// gated long sweep sets 5000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/ecdsa.hpp"

namespace ratt::crypto {
namespace {

std::size_t seed_count() {
  if (const char* env = std::getenv("RATT_EC_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 256;
}

HmacDrbg seeded(const std::string& property, std::size_t seed) {
  Bytes material = from_string("ec-fuzz:" + property);
  material.resize(material.size() + 8);
  store_le64(material.data() + material.size() - 8, seed);
  return HmacDrbg(material);
}

U192 random_nonzero_scalar(HmacDrbg& drbg) {
  Bytes raw = drbg.generate(U192::kBytes);
  raw[0] = raw[1] = raw[2] = raw[3] = 0;
  raw[4] &= 0x01;
  U192 k = U192::from_bytes_be(raw);
  if (k >= Secp160r1::order()) k = k - Secp160r1::order();
  return k.is_zero() ? U192(1) : k;
}

void flip_bit(Bytes& b, HmacDrbg& drbg) {
  const std::size_t bit = drbg.uniform(b.size() * 8);
  b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

/// decode must not throw; whatever it accepts must be on the curve and
/// re-encode to exactly `wire`.
void check_decode(const Bytes& wire) {
  std::optional<EcPoint> pt;
  ASSERT_NO_THROW(pt = EcPoint::decode(wire)) << to_hex(wire);
  if (!pt.has_value()) return;
  ASSERT_TRUE(Secp160r1::on_curve(*pt)) << to_hex(wire);
  const bool compressed = wire.size() == 21;
  ASSERT_EQ(pt->encode(compressed), wire) << to_hex(wire);
}

TEST(EcFuzz, DecodeRandomBytes) {
  static constexpr std::uint8_t kPrefixes[] = {0x00, 0x02, 0x03, 0x04};
  static constexpr std::size_t kLengths[] = {1, 21, 41};
  for (std::size_t seed = 0; seed < seed_count(); ++seed) {
    HmacDrbg drbg = seeded("decode-random", seed);
    // One fully random input of random length, then one of each SEC1
    // length under a random (mostly well-formed) prefix.
    check_decode(drbg.generate(drbg.uniform(48)));
    for (const std::size_t len : kLengths) {
      Bytes wire = drbg.generate(len);
      if (drbg.uniform(4) != 0) wire[0] = kPrefixes[drbg.uniform(4)];
      check_decode(wire);
    }
  }
}

TEST(EcFuzz, DecodeMutatedEncodings) {
  for (std::size_t seed = 0; seed < seed_count(); ++seed) {
    HmacDrbg drbg = seeded("decode-mutated", seed);
    const EcPoint pt = Secp160r1::scalar_mul_base(random_nonzero_scalar(drbg));
    for (const bool compressed : {true, false}) {
      const Bytes valid = pt.encode(compressed);
      const auto back = EcPoint::decode(valid);
      ASSERT_TRUE(back.has_value());
      ASSERT_EQ(*back, pt);
      Bytes mutated = valid;
      const std::size_t flips = 1 + drbg.uniform(3);
      for (std::size_t i = 0; i < flips; ++i) flip_bit(mutated, drbg);
      check_decode(mutated);
      // A valid encoding with one byte dropped or appended.
      check_decode(Bytes(valid.begin(), valid.end() - 1));
      Bytes longer = valid;
      longer.push_back(static_cast<std::uint8_t>(drbg.uniform(256)));
      check_decode(longer);
    }
  }
}

TEST(EcFuzz, DecodeRejectsNonCanonicalCoordinates) {
  // x' + p < 2^160 for x' <= 2^31, and x' + p ≡ x' (mod p): such an x
  // names a curve point, but only in non-canonical form.
  const U160& p = Fp160::modulus();
  std::size_t found = 0;
  for (std::uint64_t x_small = 0; found < 8 && x_small < 64; ++x_small) {
    const Fp160 x(x_small);
    const auto y =
        (x.squared() * x + Secp160r1::a() * x + Secp160r1::b()).sqrt();
    if (!y.has_value()) continue;
    ++found;
    const EcPoint pt = EcPoint::make(x, *y);
    ASSERT_TRUE(Secp160r1::on_curve(pt));
    const Bytes x_alias = (U160(x_small) + p).to_bytes_be();

    Bytes compressed = pt.encode(/*compressed=*/true);
    ASSERT_TRUE(EcPoint::decode(compressed).has_value());
    std::copy(x_alias.begin(), x_alias.end(), compressed.begin() + 1);
    EXPECT_FALSE(EcPoint::decode(compressed).has_value()) << x_small;

    Bytes uncompressed = pt.encode(/*compressed=*/false);
    ASSERT_TRUE(EcPoint::decode(uncompressed).has_value());
    std::copy(x_alias.begin(), x_alias.end(), uncompressed.begin() + 1);
    EXPECT_FALSE(EcPoint::decode(uncompressed).has_value()) << x_small;
  }
  EXPECT_GT(found, 0u);

  // Coordinates of all-ones (>= p) under every prefix.
  for (const std::uint8_t prefix : {0x02, 0x03}) {
    Bytes wire(21, 0xff);
    wire[0] = prefix;
    EXPECT_FALSE(EcPoint::decode(wire).has_value());
  }
  Bytes wire(41, 0xff);
  wire[0] = 0x04;
  EXPECT_FALSE(EcPoint::decode(wire).has_value());
  // Infinity has exactly one encoding.
  EXPECT_FALSE(EcPoint::decode(Bytes{0x01}).has_value());
  EXPECT_FALSE(EcPoint::decode(Bytes(21, 0x00)).has_value());
}

TEST(EcFuzz, SignatureFromBytesRandom) {
  const EcdsaKeyPair kp = ecdsa_generate_key(from_string("ec-fuzz-key"));
  const Bytes msg = from_string("ec-fuzz message");
  for (std::size_t seed = 0; seed < seed_count(); ++seed) {
    HmacDrbg drbg = seeded("signature-bytes", seed);
    const Bytes odd = drbg.generate(drbg.uniform(96));
    if (odd.size() != 48) {
      EXPECT_THROW(EcdsaSignature::from_bytes(odd), std::invalid_argument);
    }
    const Bytes wire = drbg.generate(48);
    EcdsaSignature sig;
    ASSERT_NO_THROW(sig = EcdsaSignature::from_bytes(wire));
    EXPECT_EQ(sig.to_bytes(), wire);
    // Random (r, s) against a real key: must be refused, not crash.
    bool ok = true;
    ASSERT_NO_THROW(ok = ecdsa_verify(kp.public_key, msg, sig));
    EXPECT_FALSE(ok) << to_hex(wire);
  }
}

TEST(EcFuzz, VerifyRejectsMutatedTuples) {
  for (std::size_t seed = 0; seed < seed_count(); ++seed) {
    HmacDrbg drbg = seeded("verify-mutated", seed);
    EcdsaKeyPair kp;
    kp.private_key = random_nonzero_scalar(drbg);
    kp.public_key = Secp160r1::scalar_mul_base(kp.private_key);
    const Bytes msg = drbg.generate(drbg.uniform(64));
    const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
    ASSERT_TRUE(ecdsa_verify(kp.public_key, msg, sig)) << seed;

    // r or s with one bit flipped (the serialized tuple, so flips above
    // bit 160 produce out-of-range values the range check must refuse).
    Bytes wire = sig.to_bytes();
    flip_bit(wire, drbg);
    EXPECT_FALSE(ecdsa_verify(kp.public_key, msg,
                              EcdsaSignature::from_bytes(wire)))
        << "seed " << seed << " sig " << to_hex(wire);

    // Public key with one bit flipped: either it no longer decodes, or it
    // decodes to a different point, which must not verify.
    Bytes key = kp.public_key.encode(drbg.uniform(2) == 0);
    flip_bit(key, drbg);
    if (const auto other = EcPoint::decode(key); other.has_value()) {
      EXPECT_FALSE(ecdsa_verify(*other, msg, sig))
          << "seed " << seed << " key " << to_hex(key);
    }
    // An off-curve key built directly (no decode in the way).
    EcPoint off = kp.public_key;
    off.y = off.y + Fp160(std::uint64_t{1} + drbg.uniform(1000));
    EXPECT_FALSE(ecdsa_verify(off, msg, sig)) << "seed " << seed;

    // Message with one bit flipped.
    Bytes tampered = msg.empty() ? Bytes{0x00} : msg;
    if (!msg.empty()) flip_bit(tampered, drbg);
    EXPECT_FALSE(ecdsa_verify(kp.public_key, tampered, sig))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ratt::crypto
