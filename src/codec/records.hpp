// The storage layer's record codecs (docs/WIRE_FORMAT.md has the layouts):
// the frame record types, and the host-table record envelope, which is
// the WAL's unit of replay. An envelope carries an operation (put / erase),
// a keyspace, a sequence number for id-counter recovery, the record id and
// the value bytes.
//
// The hosts treat an envelope value as opaque bytes: the SP stores a
// Puzzle::serialize() or AccessTree::serialize() record, and the DH stores
// the blob it was handed. So this library knows no protocol object, and it
// links only sp_crypto and sp_obs.
//
// encode_envelope emits one complete frame (codec/wire.hpp): magic,
// version, record type, length, payload, CRC32C. The decoders validate the
// frame, check the version and record type, and reject trailing bytes, so a
// decoded envelope re-encodes byte-identically.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "codec/wire.hpp"
#include "crypto/bytes.hpp"

namespace sp::codec {

/// Frame record-type byte. Values are wire constants: never renumber, only
/// append (docs/WIRE_FORMAT.md).
enum class RecordType : std::uint8_t {
  kEnvelope = 1,     ///< host-table record envelope (WAL unit)
  // Retired: 2-5 and 7 framed protocol objects that nothing produces any
  // more. They stay reserved and are never reused.
  kC1Puzzle = 2,
  kC2FileSet = 3,
  kObservation = 4,
  kDhBlob = 5,
  kSegment = 6,      ///< segment-file body (src/storage/segment.cpp)
  kAccessTree = 7,
  kTraceSpan = 8,    ///< one trace span (codec/trace_records.hpp)
};

// ------------------------------------------------------------- envelopes

/// One durable mutation of a host's table (osn/host_table.hpp). `seq`
/// carries the host's id counter at issue time (0 when not applicable) so
/// recovery can restore monotonic id issuance without replaying ids from
/// content.
struct Envelope {
  enum class Op : std::uint8_t {
    kPut = 1,      ///< insert or overwrite `id` with `value`
    kErase = 2,    ///< remove `id`
    /// Retired: appended to the SP's observation log. Still decoded, so a
    /// directory an older SP wrote stays readable (recovery drops a segment
    /// whose frames fail to decode); nothing writes it any more.
    kObserve = 3,
  };

  Op op = Op::kPut;
  std::uint8_t space = 0;  ///< host-defined keyspace (records / blobs)
  std::uint64_t seq = 0;
  std::string id;
  Bytes value;

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

[[nodiscard]] Bytes encode_envelope(const Envelope& env);
[[nodiscard]] Envelope decode_envelope(std::span<const std::uint8_t> data);
/// Payload-level decoder for frames already parsed out of a log stream.
[[nodiscard]] Envelope decode_envelope_payload(const Frame& f);

}  // namespace sp::codec
