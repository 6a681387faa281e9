// ECDSA over secp160r1: sign/verify round trips, determinism, rejection
// of malformed inputs, and known-answer goldens for the vendor key and the
// default prover image's ROM reference.
#include <gtest/gtest.h>

#include "ratt/attest/prover.hpp"
#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/ecdsa.hpp"

namespace ratt::crypto {
namespace {

class EcdsaFixture : public ::testing::Test {
 protected:
  EcdsaKeyPair kp_ = ecdsa_generate_key(from_string("ecdsa-test-seed"));
  Bytes msg_ = from_string("attestation request #42");
};

TEST_F(EcdsaFixture, KeyGeneration) {
  EXPECT_FALSE(kp_.private_key.is_zero());
  EXPECT_LT(kp_.private_key, Secp160r1::order());
  EXPECT_FALSE(kp_.public_key.infinity);
  EXPECT_TRUE(Secp160r1::on_curve(kp_.public_key));
  EXPECT_EQ(kp_.public_key, Secp160r1::scalar_mul_base(kp_.private_key));
}

TEST_F(EcdsaFixture, KeyGenerationIsDeterministic) {
  const auto again = ecdsa_generate_key(from_string("ecdsa-test-seed"));
  EXPECT_EQ(again.private_key, kp_.private_key);
  const auto other = ecdsa_generate_key(from_string("different-seed"));
  EXPECT_NE(other.private_key, kp_.private_key);
}

TEST_F(EcdsaFixture, SignVerifyRoundTrip) {
  const EcdsaSignature sig = ecdsa_sign(kp_.private_key, msg_);
  EXPECT_TRUE(ecdsa_verify(kp_.public_key, msg_, sig));
}

TEST_F(EcdsaFixture, SignaturesAreDeterministic) {
  const EcdsaSignature a = ecdsa_sign(kp_.private_key, msg_);
  const EcdsaSignature b = ecdsa_sign(kp_.private_key, msg_);
  EXPECT_EQ(a, b);
}

TEST_F(EcdsaFixture, DifferentMessagesDifferentSignatures) {
  const EcdsaSignature a = ecdsa_sign(kp_.private_key, msg_);
  const EcdsaSignature b =
      ecdsa_sign(kp_.private_key, from_string("another message"));
  EXPECT_NE(a, b);
}

TEST_F(EcdsaFixture, RejectsTamperedMessage) {
  const EcdsaSignature sig = ecdsa_sign(kp_.private_key, msg_);
  Bytes tampered = msg_;
  tampered.back() ^= 0x01;
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, tampered, sig));
}

TEST_F(EcdsaFixture, RejectsTamperedSignature) {
  EcdsaSignature sig = ecdsa_sign(kp_.private_key, msg_);
  sig.r = sig.r + U192(1);
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, msg_, sig));

  EcdsaSignature sig2 = ecdsa_sign(kp_.private_key, msg_);
  sig2.s = sig2.s + U192(1);
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, msg_, sig2));
}

TEST_F(EcdsaFixture, RejectsWrongKey) {
  const EcdsaSignature sig = ecdsa_sign(kp_.private_key, msg_);
  const auto other = ecdsa_generate_key(from_string("other-key"));
  EXPECT_FALSE(ecdsa_verify(other.public_key, msg_, sig));
}

TEST_F(EcdsaFixture, RejectsOutOfRangeSignatureValues) {
  const EcdsaSignature valid = ecdsa_sign(kp_.private_key, msg_);

  EcdsaSignature zero_r = valid;
  zero_r.r = U192(0);
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, msg_, zero_r));

  EcdsaSignature zero_s = valid;
  zero_s.s = U192(0);
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, msg_, zero_s));

  EcdsaSignature big_r = valid;
  big_r.r = Secp160r1::order();
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, msg_, big_r));

  EcdsaSignature big_s = valid;
  big_s.s = Secp160r1::order() + U192(5);
  EXPECT_FALSE(ecdsa_verify(kp_.public_key, msg_, big_s));
}

TEST_F(EcdsaFixture, RejectsBadPublicKeys) {
  const EcdsaSignature sig = ecdsa_sign(kp_.private_key, msg_);
  EXPECT_FALSE(ecdsa_verify(EcPoint{}, msg_, sig));  // infinity
  EcPoint off_curve = kp_.public_key;
  off_curve.x = off_curve.x + Fp160(std::uint64_t{1});
  EXPECT_FALSE(ecdsa_verify(off_curve, msg_, sig));
}

TEST_F(EcdsaFixture, SignRejectsBadPrivateKey) {
  EXPECT_THROW(ecdsa_sign(U192(0), msg_), std::invalid_argument);
  EXPECT_THROW(ecdsa_sign(Secp160r1::order(), msg_), std::invalid_argument);
}

TEST_F(EcdsaFixture, SignatureSerializationRoundTrip) {
  const EcdsaSignature sig = ecdsa_sign(kp_.private_key, msg_);
  const Bytes wire = sig.to_bytes();
  EXPECT_EQ(wire.size(), 48u);
  EXPECT_EQ(EcdsaSignature::from_bytes(wire), sig);
  EXPECT_THROW(EcdsaSignature::from_bytes(Bytes(47, 0)),
               std::invalid_argument);
}

class EcdsaManyKeys : public ::testing::TestWithParam<int> {};

TEST_P(EcdsaManyKeys, RoundTripAcrossKeysAndMessages) {
  const auto kp = ecdsa_generate_key(
      from_string("key-seed-" + std::to_string(GetParam())));
  const Bytes msg = from_string("message-" + std::to_string(GetParam()));
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
  EXPECT_TRUE(ecdsa_verify(kp.public_key, msg, sig));
  // Cross-message rejection.
  const Bytes other = from_string("message-x");
  EXPECT_FALSE(ecdsa_verify(kp.public_key, other, sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaManyKeys, ::testing::Range(0, 6));

// Known answers, captured from the bit-serial/Fermat arithmetic these
// routines replaced: any change in reduction, inversion or scalar
// multiplication must reproduce them byte for byte (keys, deterministic
// signatures and the signed ROM reference every prover boots from).
class EcdsaKnownAnswer : public ::testing::Test {
 protected:
  EcdsaKeyPair vendor_ =
      ecdsa_generate_key(from_string("prover-vendor-key"));
};

TEST_F(EcdsaKnownAnswer, VendorPublicKey) {
  EXPECT_EQ(to_hex(vendor_.public_key.encode(/*compressed=*/false)),
            "044378bbf73f986c960d3b8d4b5dad08ccd3b0c0d5"
            "f016ad5a28290e7b0851995662951d4d5bd81921");
  EXPECT_EQ(to_hex(vendor_.public_key.encode(/*compressed=*/true)),
            "034378bbf73f986c960d3b8d4b5dad08ccd3b0c0d5");
}

TEST_F(EcdsaKnownAnswer, Signatures) {
  struct Case {
    const char* message;
    const char* signature;  // r || s, 24 bytes each
  };
  const Case cases[] = {
      {"",
       "0000000049cc8d04a0867379af5f162785cede718d293688"
       "00000000ebb7065b0980cfeb787310e6e59ae54c6e595c05"},
      {"attestation request #42",
       "00000000e29ea3820bb9a807e61cbdc65db3849de9cc5ea3"
       "00000000ed590665744e73cbf7f12e512da03bd5fdc270e1"},
      {"ratt secure boot reference",
       "000000008c88bf36fea17e83a37a12957f47fae121970a3a"
       "00000000eadeadcc3a5835f8db63ff765a471740f738045a"},
  };
  for (const auto& c : cases) {
    const Bytes msg = from_string(c.message);
    const EcdsaSignature sig = ecdsa_sign(vendor_.private_key, msg);
    EXPECT_EQ(to_hex(sig.to_bytes()), c.signature) << c.message;
    EXPECT_TRUE(ecdsa_verify(vendor_.public_key, msg, sig)) << c.message;
  }
}

TEST_F(EcdsaKnownAnswer, DefaultProverRomReference) {
  const attest::ProverTemplate tmpl = attest::ProverDevice::make_template(
      attest::ProverConfig{}, from_string("app-seed"));
  EXPECT_EQ(to_hex(ByteView(tmpl.reference.expected_hash.data(),
                            tmpl.reference.expected_hash.size())),
            "ced9d67b169f77a85504858b393e7bab"
            "b775939d1cf08980748cc09857c76f6a");
  EXPECT_EQ(to_hex(tmpl.reference.signature.to_bytes()),
            "00000000e707c329b3f0d1b40670ec12ad03197dbfda9943"
            "00000000015f5f514e585336e35dc63c381a5c44d8210be6");
  EXPECT_EQ(tmpl.reference.vendor_key, vendor_.public_key);
}

}  // namespace
}  // namespace ratt::crypto
