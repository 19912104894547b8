// ChaCha20 stream cipher (RFC 8439 quarter-round core). Used only as the
// generator inside Drbg — all randomness in the reproduction flows through a
// seedable DRBG so every experiment is replayable bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/bytes.hpp"

namespace sp::crypto {

class ChaCha20 {
 public:
  /// key: 32 bytes, nonce: 12 bytes, counter: initial block counter.
  ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
           std::uint32_t counter = 0);

  /// The state holds the key words and the buffer unread keystream (C2
  /// KeyGen's exponents are drawn from it): both are wiped before the
  /// object's storage is released. A copy would replay the keystream, so
  /// there is none.
  ~ChaCha20();
  ChaCha20(const ChaCha20&) = delete;
  ChaCha20& operator=(const ChaCha20&) = delete;

  /// Produces `out.size()` keystream bytes, advancing internal state.
  void keystream(std::span<std::uint8_t> out);

 private:
  void block(std::array<std::uint8_t, 64>& out);

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_pos_ = 64;  // empty
};

}  // namespace sp::crypto
