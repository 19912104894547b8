// Canonical wire primitives for the durable SP/DH storage layer. WAL
// records, segment files and trace dumps are built from these three pieces
// (the protocol objects inside an envelope's value use crypto/bytes.hpp's
// big-endian field codec instead):
//
//  * little-endian fixed-width integers (the paper's deployment targets are
//    all LE; spelling the byte order out keeps files portable anyway);
//  * length-prefixed byte fields (u32 LE length, then the bytes) — no
//    delimiters, no escaping, no text;
//  * a fixed frame around every record: magic, a format-version byte, a
//    record-type byte, the payload length, and a CRC32C trailer covering
//    version + type + length + payload.
//
// The CRC is Castagnoli (CRC-32C, the iSCSI/ext4 polynomial), chosen over
// plain CRC-32 for its better burst-error detection; the implementation is
// a portable slice-by-8 table walk, no SSE4.2 dependency.
//
// Error model: every decode failure throws CodecError (an
// std::invalid_argument), so callers distinguish "bytes are not a valid
// record" from genuine logic errors. Decoders never read past the input
// span and reject trailing garbage.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "crypto/bytes.hpp"

namespace sp::codec {

using crypto::Bytes;

/// Thrown for every malformed-input condition: truncation, bad magic,
/// unsupported version, CRC mismatch, trailing bytes, oversized fields.
class CodecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Current wire format version. Bumped when a record layout changes;
/// decoders accept exactly the versions they know (docs/WIRE_FORMAT.md has
/// the negotiation rules).
inline constexpr std::uint8_t kWireVersion = 1;

/// CRC-32C (Castagnoli) of `data`, optionally chained from a previous crc.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

// ---------------------------------------------------------------- writer

/// Appends canonical little-endian fields to a growing byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-width fields only).
  void bytes(std::span<const std::uint8_t> data);
  /// u32 LE length prefix + bytes. Rejects fields over kMaxFieldBytes.
  void blob(std::span<const std::uint8_t> data);
  void str(std::string_view s);

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] Bytes take() { return std::move(out_); }
  [[nodiscard]] const Bytes& view() const { return out_; }

  /// Upper bound on a single length-prefixed field — large enough for any
  /// protocol object, small enough that a corrupted length can never drive
  /// a multi-gigabyte allocation.
  static constexpr std::size_t kMaxFieldBytes = 256u << 20;  // 256 MiB

 private:
  Bytes out_;
};

// ---------------------------------------------------------------- reader

/// Consumes canonical little-endian fields from a span; throws CodecError on
/// truncation or malformed lengths. Never reads past the input.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  /// `n` raw bytes (fixed-width field).
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n);
  /// Length-prefixed field as a subspan of the input (zero-copy).
  [[nodiscard]] std::span<const std::uint8_t> blob_view();
  /// Length-prefixed field, copied out.
  [[nodiscard]] Bytes blob();
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - off_; }
  /// Decoders call this last: trailing bytes mean the input is not the
  /// canonical encoding of anything.
  void expect_done(const char* what) const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
};

// ---------------------------------------------------------------- framing

/// Frame layout (offsets in bytes, integers LE):
///   0   4  magic "SPR1"
///   4   1  format version
///   5   1  record type
///   6   4  payload length N
///  10   N  payload
///  10+N 4  CRC32C over bytes [4, 10+N)
inline constexpr std::array<std::uint8_t, 4> kFrameMagic = {'S', 'P', 'R', '1'};
inline constexpr std::size_t kFrameOverhead = 14;

struct Frame {
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::span<const std::uint8_t> payload;
};

/// Wraps `payload` in a frame of the given record type (current version).
[[nodiscard]] Bytes frame(std::uint8_t type, std::span<const std::uint8_t> payload,
                          std::uint8_t version = kWireVersion);

/// Parses exactly one frame spanning the whole input; throws CodecError on
/// any mismatch (magic, version range, length, CRC, trailing bytes).
[[nodiscard]] Frame unframe(std::span<const std::uint8_t> data);

/// Streaming variant for log replay: attempts to parse one frame starting at
/// `off`. On success advances `off` past the frame and returns it; returns
/// nullopt — without advancing — when the bytes at `off` are truncated or
/// corrupt (a torn tail). `off == data.size()` is a clean end.
[[nodiscard]] std::optional<Frame> try_unframe_prefix(std::span<const std::uint8_t> data,
                                                      std::size_t& off);

}  // namespace sp::codec
