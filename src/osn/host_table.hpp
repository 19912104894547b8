// HostTable: the one durable id → bytes table under each OSN host (paper
// §IV-A). The SP keeps opaque puzzle rows in one and the DH keeps ciphertext
// in another; the table never reads what it stores. It is a std::map behind
// one sp::Mutex, an id counter, and an optional storage::DurableStore (null
// = in-memory: the same map, nothing logged).
//
// The table alone owns durability, so both hosts get it the same way:
//
//  * Recovery replays the directory: puts and erases in the table's own
//    keyspace rebuild the map; the seqs of those and of kMeta carriers
//    restore the id counter as max(seq) + 1. Every other keyspace (a retired
//    one, such as the SP's old observation log, or a newer writer's) is
//    skipped.
//  * The write idiom, which every mutation follows:
//      1. encode the envelope OUTSIDE the lock (frames + CRC are pure CPU,
//         no reason to serialize them);
//      2. apply to the map and enqueue the frame UNDER the lock, so WAL order
//         equals map order per id (store.hpp's checkpoint invariant);
//      3. wait for durability OUTSIDE the lock — group commit batches every
//         concurrent waiter into one fsync — then checkpoint once the live
//         WAL has passed checkpoint_wal_bytes.
//  * A checkpoint scan emits the counter carrier first (kMeta, the host's
//    counter id, seq = last issued), so compaction never regresses id
//    issuance, then every entry, a bounded chunk per hold of the lock.
//
// Accessors return copies, never references into locked state, and no
// member calls back into the table while holding the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "codec/records.hpp"
#include "crypto/bytes.hpp"
#include "storage/store.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::osn {

using crypto::Bytes;

/// codec::Envelope.space values for the OSN hosts. Wire constants: never
/// renumber, only append (docs/WIRE_FORMAT.md).
enum class Space : std::uint8_t {
  kMeta = 0,            ///< counter carrier (value empty; only seq matters)
  kSpRecords = 1,       ///< ServiceProvider puzzle records
  /// Retired: the SP's observation log, which older directories still hold.
  /// Recovery skips it; nothing writes it, and the value is never reused.
  kSpObservations = 2,
  kDhBlobs = 3,         ///< StorageHost encrypted objects
};

inline constexpr std::uint8_t space_byte(Space s) { return static_cast<std::uint8_t>(s); }

class HostTable {
 public:
  /// In-memory table for keyspace `space`; `counter_id` names its kMeta
  /// carrier (wire constant: "sp-counter", "dh-counter").
  HostTable(Space space, std::string counter_id);
  /// Durable table: opens (or creates) the WAL/segment pair in
  /// `durable.dir` and replays it before returning.
  HostTable(Space space, std::string counter_id, storage::DurableStore::Options durable);
  // The mutex pins the table in place.
  HostTable(const HostTable&) = delete;
  HostTable& operator=(const HostTable&) = delete;
  HostTable(HostTable&&) = delete;
  HostTable& operator=(HostTable&&) = delete;

  /// Issues the next counter value; every value is issued exactly once.
  [[nodiscard]] std::uint64_t issue() { return next_.fetch_add(1, std::memory_order_relaxed); }

  // ---- writes: each returns once its envelope is durable ----

  /// Inserts or overwrites `id`. `seq` is the counter value that issued the
  /// id, so recovery restores the counter past it.
  void put(const std::string& id, Bytes value, std::uint64_t seq);
  /// Overwrites an existing `id` and hands back the value it displaced.
  /// Throws std::out_of_range (prefixed with `who`) when `id` is absent.
  [[nodiscard]] Bytes replace(const std::string& id, Bytes value, const char* who);
  /// Runs `fn` on the stored value under the lock, then logs the result.
  /// Throws std::out_of_range (prefixed with `who`) when `id` is absent; an
  /// `fn` that throws must leave the value as it was, and nothing is
  /// logged. The frame is encoded under the lock: the edited value exists
  /// only there.
  void edit(const std::string& id, const char* who, const std::function<void(Bytes&)>& fn);
  /// Removes `id` and returns its value; nullopt (and nothing logged) when
  /// absent.
  [[nodiscard]] std::optional<Bytes> erase(const std::string& id);

  // ---- reads ----

  [[nodiscard]] std::optional<Bytes> get(const std::string& id) const;
  [[nodiscard]] bool contains(const std::string& id) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::map<std::string, Bytes> snapshot() const;
  /// Runs fn(id, value) on every entry under the lock.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const sp::MutexLock lock(mutex_);
    for (const auto& [id, value] : entries_) fn(id, value);
  }
  /// Mutating visit, for teardown wipes. Logs nothing.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const sp::MutexLock lock(mutex_);
    for (auto& [id, value] : entries_) fn(id, value);
  }

  // ---- persistence (null / no-ops for an in-memory table) ----

  [[nodiscard]] const storage::DurableStore* durable() const { return durable_.get(); }
  /// Replay stats from the durable constructor (zeroes when in-memory).
  [[nodiscard]] const storage::DurableStore::RecoveryStats& recovery_stats() const {
    return recovery_;
  }
  /// Compacts WAL history into a fresh segment (store.hpp's protocol).
  void checkpoint();
  /// Blocks until everything appended so far is durable.
  void sync();

 private:
  using Map = std::map<std::string, Bytes>;

  /// Envelope frame for a write; empty when in-memory (nothing to log).
  [[nodiscard]] Bytes frame(codec::Envelope::Op op, std::uint64_t seq, const std::string& id,
                            const Bytes& value) const;
  /// The write idiom, which every write goes through. `apply` runs under
  /// the lock and returns the frame to log, or nullopt when it changed
  /// nothing.
  template <typename Apply>
  void write(Apply&& apply);
  /// The checkpoint scan: the counter carrier, then every entry.
  void scan(const storage::DurableStore::Applier& emit) const;

  const Space space_;
  const std::string counter_id_;
  mutable sp::Mutex mutex_;
  Map entries_ SP_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> next_{1};
  std::unique_ptr<storage::DurableStore> durable_;  ///< null = in-memory
  storage::DurableStore::RecoveryStats recovery_;
};

}  // namespace sp::osn
