// Storage service DH (paper §IV-A): logically separate from the SP, holds
// only encrypted objects, publicly fetchable by URL. Includes the adversary
// surface the security analysis (§VI-B) needs: a snapshot of the stored
// blobs (what a curious DH holds) and tamper/remove APIs (malicious-DH DoS).
//
// Thread safety: blobs live in a HostTable (one map, one mutex), which also
// owns their durability, so concurrent store/fetch/tamper/remove from any
// number of threads is safe. URLs are derived from the table's atomic
// counter, so a URL issued once stays valid for the life of the host.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "crypto/bytes.hpp"
#include "osn/host_table.hpp"
#include "storage/store.hpp"

namespace sp::osn {

using crypto::Bytes;

class StorageHost {
 public:
  StorageHost();
  /// Durable DH: opens (or creates) the WAL/segment pair in `durable.dir`,
  /// replays it to rebuild the blob map and the URL counter, then serves.
  /// store/remove/tamper acknowledge only once their envelope is durable per
  /// the WAL's fsync policy.
  explicit StorageHost(storage::DurableStore::Options durable);
  /// Settles the process-wide object/byte gauges for everything still at
  /// rest in this instance.
  ~StorageHost();
  // The table's mutex pins the host in place: construct it where it serves.
  StorageHost(const StorageHost&) = delete;
  StorageHost& operator=(const StorageHost&) = delete;
  StorageHost(StorageHost&&) = delete;
  StorageHost& operator=(StorageHost&&) = delete;

  /// Stores a blob, held in a buffer sized to fit; returns its URL (URL_O
  /// in the paper). URLs are stable, unguessable-looking identifiers.
  std::string store(Bytes blob);

  /// Fetches a copy by URL; nullopt for an unknown URL (a revoked object,
  /// or a malicious SP pointing at nothing), counted as a miss. A copy, not
  /// a reference: a reference into the store would dangle when a
  /// malicious-DH thread removes or tampers the object mid-read. Every fetch
  /// and store is visible to the host (it *is* the host) — `observed_blobs`
  /// exposes that view to surveillance tests.
  [[nodiscard]] std::optional<Bytes> fetch(const std::string& url) const;

  [[nodiscard]] bool exists(const std::string& url) const { return blobs_.contains(url); }
  [[nodiscard]] std::size_t object_count() const { return blobs_.size(); }
  /// Total bytes at rest (bench reporting).
  [[nodiscard]] std::size_t bytes_stored() const;

  // ---- adversary surface (tests only; a real DH has these powers too) ----

  /// Every blob this host stores: a point-in-time copy of its surveillance
  /// view.
  [[nodiscard]] std::map<std::string, Bytes> observed_blobs() const { return blobs_.snapshot(); }
  /// Malicious DH: corrupt a stored object (flip a byte). Throws
  /// std::out_of_range when `byte_index` is outside the blob (empty blobs
  /// have no valid index) — the same contract as
  /// ServiceProvider::tamper_record, so the adversary surface agrees on what
  /// an invalid tamper means.
  void tamper(const std::string& url, std::size_t byte_index);
  /// Malicious DH: delete an object. Throws std::out_of_range for unknown
  /// URLs.
  void remove(const std::string& url);

  // ---- persistence (null / no-ops for an in-memory DH) ----

  [[nodiscard]] bool is_durable() const { return blobs_.durable() != nullptr; }
  [[nodiscard]] const storage::DurableStore* durable() const { return blobs_.durable(); }
  [[nodiscard]] const storage::DurableStore::RecoveryStats& recovery_stats() const {
    return blobs_.recovery_stats();
  }
  /// Compacts WAL history into a fresh segment (store.hpp's protocol).
  /// Every write also does, once it is acknowledged, whenever the live WAL
  /// crossed the configured threshold.
  void checkpoint() { blobs_.checkpoint(); }
  /// Blocks until everything appended so far is durable.
  void sync() { blobs_.sync(); }

 private:
  HostTable blobs_;
};

}  // namespace sp::osn
