// ECDSA over secp160r1 with SHA-1 message digests.
//
// Used in two places:
//   * Table 1 / Sec. 4.1 — pricing public-key request authentication on the
//     prover ("ECC (secp160r1)" sign/verify columns), which the paper rules
//     out because a single verification (~170 ms at 24 MHz) is itself DoS.
//   * Secure boot — the reference image hash stored in ROM is signed by the
//     device vendor (Sec. 2, "Secure Boot").
//
// Per-signature secrets are derived deterministically from the key and
// message (RFC 6979 in spirit, via HMAC-DRBG), so no ambient randomness is
// needed and all experiments are reproducible.
//
// Nothing here is constant-time on the host: the nonce k·G, the nonce
// inverse (binary extended Euclid) and the verifier's joint scalar
// multiplication all take data-dependent time. The simulated device's
// cost is priced by the timing model, not by these host cycles.
#pragma once

#include "ratt/crypto/bytes.hpp"
#include "ratt/crypto/ec.hpp"

namespace ratt::crypto {

struct EcdsaSignature {
  U192 r;
  U192 s;

  friend bool operator==(const EcdsaSignature&, const EcdsaSignature&) =
      default;

  /// Fixed-width serialization: r || s, 24 bytes each, big-endian.
  Bytes to_bytes() const;
  static EcdsaSignature from_bytes(ByteView bytes);
};

struct EcdsaKeyPair {
  U192 private_key;  // d in [1, n-1]
  EcPoint public_key;  // Q = d·G
};

// Arithmetic modulo the group order n, where ECDSA's scalars live.
// Public so tests can check it against a reference implementation;
// results are fully reduced, in [0, n).

/// a mod n, for any a < 2^192.
U192 modn(const U192& a);
/// a·b mod n, by Barrett reduction; requires a, b < n.
U192 modn_mul(const U192& a, const U192& b);
/// a^-1 mod n, by binary extended Euclid (variable-time); requires
/// a < n, throws std::domain_error for a == 0.
U192 modn_inv(const U192& a);

/// Derive a key pair from seed material (deterministic).
EcdsaKeyPair ecdsa_generate_key(ByteView seed);

/// Sign SHA-1(message) with private key d.
EcdsaSignature ecdsa_sign(const U192& d, ByteView message);

/// Verify a signature on SHA-1(message) against public key Q.
/// Rejects out-of-range (r, s) and off-curve / infinity public keys.
bool ecdsa_verify(const EcPoint& q, ByteView message,
                  const EcdsaSignature& sig);

}  // namespace ratt::crypto
