#include "crypto/bytes.hpp"

#include <stdexcept>

namespace sp::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex character");
}

/// The bytes after the u32 length prefix at `off`; advances past both.
std::span<const std::uint8_t> get_field(std::span<const std::uint8_t> data, std::size_t& off) {
  const std::uint32_t len = get_u32(data, off);
  if (len > data.size() - off) throw std::invalid_argument("get_blob: truncated field");
  const std::span<const std::uint8_t> field = data.subspan(off, len);
  off += len;
  return field;
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  Bytes out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((hex_val(hex[2 * i]) << 4) | hex_val(hex[2 * i + 1]));
  }
  return out;
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(std::span<const std::uint8_t> data) {
  return std::string(data.begin(), data.end());
}

Bytes xor_cycle(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  if (b.empty()) return Bytes(a.begin(), a.end());
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(a[i] ^ b[i % b.size()]);
  }
  return out;
}

bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

bool ct_equal(std::string_view a, std::string_view b) {
  return ct_equal(
      std::span<const std::uint8_t>{reinterpret_cast<const std::uint8_t*>(a.data()), a.size()},
      std::span<const std::uint8_t>{reinterpret_cast<const std::uint8_t*>(b.data()), b.size()});
}

Bytes concat(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t& off) {
  if (off + 4 > data.size()) throw std::invalid_argument("get_u32: truncated");
  const std::uint32_t v = (std::uint32_t{data[off]} << 24) | (std::uint32_t{data[off + 1]} << 16) |
                          (std::uint32_t{data[off + 2]} << 8) | std::uint32_t{data[off + 3]};
  off += 4;
  return v;
}

void put_blob(Bytes& out, std::span<const std::uint8_t> blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

Bytes get_blob(std::span<const std::uint8_t> data, std::size_t& off) {
  const auto field = get_field(data, off);
  return Bytes(field.begin(), field.end());
}

void put_str(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_str(std::span<const std::uint8_t> data, std::size_t& off) {
  const auto field = get_field(data, off);
  return std::string(field.begin(), field.end());
}

}  // namespace sp::crypto
