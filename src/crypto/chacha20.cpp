#include "crypto/chacha20.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/secret.hpp"

namespace sp::crypto {

namespace {
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}
}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
                   std::uint32_t counter) {
  if (key.size() != 32) throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  if (nonce.size() != 12) throw std::invalid_argument("ChaCha20: nonce must be 12 bytes");
  state_[0] = 0x61707865u;
  state_[1] = 0x3320646eu;
  state_[2] = 0x79622d32u;
  state_[3] = 0x6b206574u;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

ChaCha20::~ChaCha20() {
  secure_wipe(state_.data(), sizeof(state_));
  secure_wipe(buffer_.data(), buffer_.size());
}

void ChaCha20::block(std::array<std::uint8_t, 64>& out) {
  std::array<std::uint32_t, 16> x = state_;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + state_[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  ++state_[12];
}

void ChaCha20::keystream(std::span<std::uint8_t> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (buffer_pos_ == 64) {
      block(buffer_);
      buffer_pos_ = 0;
    }
    const std::size_t take = std::min<std::size_t>(64 - buffer_pos_, out.size() - off);
    std::memcpy(out.data() + off, buffer_.data() + buffer_pos_, take);
    buffer_pos_ += take;
    off += take;
  }
}

}  // namespace sp::crypto
