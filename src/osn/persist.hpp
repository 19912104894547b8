// Shared persistence vocabulary for the OSN hosts (ROADMAP item 1).
//
// Both hosts speak codec::Envelope to their DurableStore; this header pins
// the keyspace bytes (wire constants — never renumber) and the write-path
// idiom:
//
//   1. encode the envelope OUTSIDE the shard lock (frames + CRC are pure
//      CPU, no reason to serialize them);
//   2. apply to the ShardedStore and enqueue the pre-encoded frame UNDER the
//      shard lock (put_then / take_then / mutate), so WAL order equals map
//      application order per key;
//   3. wait for durability OUTSIDE the lock — group commit batches every
//      concurrent waiter into one fsync.
//
// Envelope.seq carries the host's id counter at issue time; recovery
// restores the counter as max(seq) + 1, and checkpoints re-emit it through a
// kMeta envelope so compaction never regresses id issuance.
#pragma once

#include <cstdint>

namespace sp::osn {

/// codec::Envelope.space values for the OSN hosts.
enum class Space : std::uint8_t {
  kMeta = 0,            ///< counter carrier (value empty; only seq matters)
  kSpRecords = 1,       ///< ServiceProvider puzzle records
  /// Retired: the SP's observation log, which older directories still hold.
  /// Recovery skips it; nothing writes it, and the value is never reused.
  kSpObservations = 2,
  kDhBlobs = 3,         ///< StorageHost encrypted objects
};

inline constexpr std::uint8_t space_byte(Space s) { return static_cast<std::uint8_t>(s); }

}  // namespace sp::osn
