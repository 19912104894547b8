#include "crypto/drbg.hpp"

#include <array>
#include <stdexcept>

#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"

namespace sp::crypto {

namespace {

constexpr std::uint8_t kNonce[12] = {'s', 'p', '-', 'd', 'r', 'b', 'g', '-', 'v', '1', 0, 0};

/// "sps\0" then the stream number, little-endian. The prefix differs from
/// kNonce's, so no numbered stream replays a seeded one under the same key.
std::array<std::uint8_t, 12> stream_nonce(std::uint64_t stream) {
  std::array<std::uint8_t, 12> out{'s', 'p', 's', 0};
  for (std::size_t i = 0; i < 8; ++i) out[4 + i] = static_cast<std::uint8_t>(stream >> (8 * i));
  return out;
}

}  // namespace

Drbg::Drbg(std::string_view seed)
    : Drbg(std::span(reinterpret_cast<const std::uint8_t*>(seed.data()), seed.size())) {}

Drbg::Drbg(std::span<const std::uint8_t> seed) {
  Sha256 h;
  h.update(seed);
  std::array<std::uint8_t, Sha256::kDigestSize> key = h.finish();
  stream_ = std::make_unique<ChaCha20>(key, std::span<const std::uint8_t>(kNonce, 12));
  secure_wipe(key.data(), key.size());
}

Drbg::Drbg(std::span<const std::uint8_t> key, std::uint64_t stream)
    : stream_(std::make_unique<ChaCha20>(key, stream_nonce(stream))) {}

Bytes Drbg::bytes(std::size_t n) {
  Bytes out(n);
  stream_->keystream(out);
  return out;
}

std::uint64_t Drbg::next_u64() {
  std::array<std::uint8_t, 8> b{};
  stream_->keystream(b);
  std::uint64_t v = 0;
  for (const std::uint8_t byte : b) v = (v << 8) | byte;
  return v;
}

std::uint64_t Drbg::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Drbg::uniform: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  for (;;) {
    const std::uint64_t v = next_u64();
    if (v < limit) return v % bound;
  }
}

double Drbg::uniform_real() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace sp::crypto
