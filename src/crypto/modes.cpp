#include "crypto/modes.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/secret.hpp"

namespace sp::crypto {

namespace {
constexpr std::size_t kBlock = Aes::kBlockSize;
constexpr std::size_t kTag = 32;

void check_iv(std::span<const std::uint8_t> iv) {
  if (iv.size() != kBlock) throw std::invalid_argument("modes: IV must be 16 bytes");
}

/// PKCS#7 always pads, by 1 to 16 bytes.
std::size_t padded_size(std::size_t n) { return n / kBlock * kBlock + kBlock; }

/// CBC-encrypts `plaintext` with PKCS#7 padding into `out`, which must be
/// its padded size. Padding is applied per block: no padded copy is made.
void cbc_encrypt_into(const Aes& aes, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> plaintext, std::span<std::uint8_t> out) {
  const auto pad = static_cast<std::uint8_t>(out.size() - plaintext.size());
  std::uint8_t chain[kBlock];
  std::copy(iv.begin(), iv.end(), chain);
  std::uint8_t block[kBlock];
  for (std::size_t off = 0; off < out.size(); off += kBlock) {
    for (std::size_t i = 0, at = off; i < kBlock; ++i, ++at) {
      block[i] = (at < plaintext.size() ? plaintext[at] : pad) ^ chain[i];
    }
    aes.encrypt_block({block, kBlock}, out.subspan(off, kBlock));
    std::copy_n(out.begin() + static_cast<std::ptrdiff_t>(off), kBlock, chain);
  }
  secure_wipe(block, sizeof(block));  // last plaintext^chain block
}

}  // namespace

Bytes aes_cbc_encrypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> plaintext) {
  check_iv(iv);
  Bytes out(padded_size(plaintext.size()));
  cbc_encrypt_into(Aes(key), iv, plaintext, out);
  return out;
}

Bytes aes_cbc_decrypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> ciphertext) {
  check_iv(iv);
  if (ciphertext.empty() || ciphertext.size() % kBlock != 0) {
    throw std::runtime_error("aes_cbc_decrypt: ciphertext not a block multiple");
  }
  const Aes aes(key);
  Bytes out(ciphertext.size());
  std::uint8_t chain[kBlock];
  std::copy(iv.begin(), iv.end(), chain);
  std::uint8_t block[kBlock];
  for (std::size_t off = 0; off < ciphertext.size(); off += kBlock) {
    aes.decrypt_block(ciphertext.subspan(off, kBlock), {block, kBlock});
    for (std::size_t i = 0; i < kBlock; ++i) out[off + i] = block[i] ^ chain[i];
    std::copy(ciphertext.begin() + static_cast<std::ptrdiff_t>(off),
              ciphertext.begin() + static_cast<std::ptrdiff_t>(off + kBlock), chain);
  }
  secure_wipe(block, sizeof(block));
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > kBlock || pad > out.size()) {
    throw std::runtime_error("aes_cbc_decrypt: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw std::runtime_error("aes_cbc_decrypt: bad padding");
  }
  out.resize(out.size() - pad);
  return out;
}

Bytes aes_ctr_crypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
                    std::span<const std::uint8_t> data) {
  check_iv(nonce);
  const Aes aes(key);
  Bytes out(data.size());
  std::uint8_t counter[kBlock];
  std::copy(nonce.begin(), nonce.end(), counter);
  std::uint8_t keystream[kBlock];
  for (std::size_t off = 0; off < data.size(); off += kBlock) {
    aes.encrypt_block({counter, kBlock}, {keystream, kBlock});
    const std::size_t n = std::min(kBlock, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] = data[off + i] ^ keystream[i];
    // Increment big-endian counter in the trailing 8 bytes.
    for (std::size_t i = kBlock; i-- > kBlock - 8;) {
      if (++counter[i] != 0) break;
    }
  }
  secure_wipe(keystream, sizeof(keystream));
  return out;
}

Bytes seal(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
           std::span<const std::uint8_t> plaintext) {
  check_iv(iv);
  const SecretBytes enc_key{hkdf(key, {}, to_bytes("sp-seal-enc"), 32)};
  const SecretBytes mac_key{hkdf(key, {}, to_bytes("sp-seal-mac"), 32)};
  // One buffer at the envelope's final size: iv, ciphertext and tag are
  // each written into place once.
  const std::size_t body_size = kBlock + padded_size(plaintext.size());
  Bytes envelope(body_size + kTag);
  const std::span<std::uint8_t> out(envelope);
  std::copy(iv.begin(), iv.end(), out.begin());
  cbc_encrypt_into(Aes(enc_key.span()), iv, plaintext, out.first(body_size).subspan(kBlock));
  Bytes tag = hmac_sha256(mac_key.span(), out.first(body_size));
  std::copy(tag.begin(), tag.end(), out.subspan(body_size).begin());
  secure_wipe(tag);  // public once written, but keep the rule uniform
  return envelope;
}

Bytes open(std::span<const std::uint8_t> key, std::span<const std::uint8_t> envelope) {
  if (envelope.size() < kBlock + kTag) throw std::runtime_error("open: envelope too short");
  const SecretBytes enc_key{hkdf(key, {}, to_bytes("sp-seal-enc"), 32)};
  const SecretBytes mac_key{hkdf(key, {}, to_bytes("sp-seal-mac"), 32)};
  const auto body = envelope.first(envelope.size() - kTag);
  const auto tag = envelope.subspan(envelope.size() - kTag);
  const Bytes expect = hmac_sha256(mac_key.span(), body);
  if (!ct_equal(expect, tag)) throw std::runtime_error("open: authentication failed");
  return aes_cbc_decrypt(enc_key.span(), body.first(kBlock), body.subspan(kBlock));
}

}  // namespace sp::crypto
