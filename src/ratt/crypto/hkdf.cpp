#include "ratt/crypto/hkdf.hpp"

#include <array>
#include <stdexcept>

#include "ratt/crypto/hmac.hpp"
#include "ratt/crypto/sha256.hpp"

namespace ratt::crypto {

Bytes hkdf_extract(ByteView salt, ByteView ikm) {
  // RFC 5869: absent salt = a string of HashLen zeros.
  static constexpr std::array<std::uint8_t, Sha256::kDigestSize> kZeroSalt{};
  const auto prk =
      Hmac<Sha256>::mac(salt.empty() ? ByteView(kZeroSalt) : salt, ikm);
  return Bytes(prk.begin(), prk.end());
}

Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length) {
  if (length > 255 * Sha256::kDigestSize) {
    throw std::invalid_argument("hkdf_expand: length too large");
  }
  Bytes okm;
  okm.reserve(length);
  Bytes t;  // T(0) = empty
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    Hmac<Sha256> h(prk);
    h.update(t);
    h.update(info);
    h.update(ByteView(&counter, 1));
    const auto block = h.finish();
    t.assign(block.begin(), block.end());
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + take);
    ++counter;
  }
  return okm;
}

Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

Bytes derive_purpose_key(ByteView master, std::string_view purpose,
                         std::size_t length) {
  const Bytes info = from_string(purpose);
  return hkdf(from_string("ratt-purpose-key-v1"), master, info, length);
}

}  // namespace ratt::crypto
