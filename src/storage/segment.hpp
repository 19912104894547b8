// Immutable, memory-mapped segment files — the checkpointed half of the
// durable store (ROADMAP item 1). A segment is the snapshot a checkpoint
// takes of a host's table: a run of Envelope frames (one per live record)
// followed by a kSegment footer frame carrying the entry count and the
// maximum envelope sequence number. Frames are the same
// magic/version/CRC32C frames the WAL uses (codec/wire.hpp), so a segment
// detects the same corruption the log does — a bad byte anywhere fails the
// frame CRC at open and the segment is rejected whole.
//
// Readers mmap the file read-only and build an in-memory index (keyspace,
// id) -> frame offset in one forward scan at open; get() decodes the
// envelope on demand from the mapping, so resident cost is the index, not
// the values. SegmentWriter streams entries to a temp path; the caller
// (DurableStore::checkpoint) fsyncs and atomically renames.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "codec/records.hpp"
#include "crypto/bytes.hpp"

namespace sp::storage {

using crypto::Bytes;

/// Streams envelope frames into a segment file. Not thread-safe; one
/// checkpoint owns one writer. finish() writes the footer and fsyncs.
class SegmentWriter {
 public:
  /// Creates (truncating) `path`. Throws std::runtime_error on I/O failure.
  explicit SegmentWriter(std::string path);
  ~SegmentWriter();
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  void add(const codec::Envelope& env);
  /// Footer + fdatasync + close. Returns total file bytes. Must be called
  /// exactly once; the destructor aborts an unfinished file by unlinking it.
  std::uint64_t finish();

 private:
  void write_all(const std::uint8_t* data, std::size_t size);

  std::string path_;
  int fd_ = -1;
  std::uint64_t entries_ = 0;
  std::uint64_t max_seq_ = 0;
  std::uint64_t bytes_ = 0;
  bool finished_ = false;
};

/// Read-only view of one segment file. Immutable after open.
class Segment {
 public:
  /// mmaps and validates `path`: every frame must parse (CRC included), the
  /// footer count must match the entries seen. Throws codec::CodecError on
  /// corruption, std::runtime_error on I/O failure.
  explicit Segment(const std::string& path);
  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  /// Decoded value for (space, id), or nullopt when absent.
  [[nodiscard]] std::optional<codec::Envelope> get(std::uint8_t space, std::string_view id) const;
  /// Visits every entry in file order (recovery replay).
  void for_each(const std::function<void(const codec::Envelope&)>& fn) const;

  [[nodiscard]] std::uint64_t entries() const { return entries_; }
  [[nodiscard]] std::uint64_t max_seq() const { return max_seq_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }

 private:
  [[nodiscard]] static std::string index_id(std::uint8_t space, std::string_view id);

  const std::uint8_t* map_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t max_seq_ = 0;
  /// (space byte + id) -> byte offset of the envelope frame.
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace sp::storage
