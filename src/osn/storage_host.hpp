// Storage service DH (paper §IV-A): logically separate from the SP, holds
// only encrypted objects, publicly fetchable by URL. Includes the adversary
// surface the security analysis (§VI-B) needs: a snapshot of the stored
// blobs (what a curious DH holds) and tamper/remove APIs (malicious-DH DoS).
//
// Thread safety: blobs live in a ShardedStore (URL-hash striped mutexes), so
// concurrent store/fetch/tamper/remove from any number of threads is safe.
// URLs are derived from a global atomic counter — independent of shard
// layout, so a URL issued once stays valid for the life of the host.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "crypto/bytes.hpp"
#include "net/faults.hpp"
#include "osn/sharded_store.hpp"
#include "storage/store.hpp"

namespace sp::osn {

using crypto::Bytes;

class StorageHost {
 public:
  StorageHost() = default;
  /// Durable DH: opens (or creates) the WAL/segment pair in `durable.dir`,
  /// replays it to rebuild the blob map and the URL counter, then serves.
  /// store/remove/tamper acknowledge only once their envelope is durable per
  /// the WAL's fsync policy.
  explicit StorageHost(storage::DurableStore::Options durable);
  /// Settles the process-wide object/byte gauges for everything still at
  /// rest in this instance.
  ~StorageHost();
  // Shard mutexes pin the host in place: construct it where it serves.
  StorageHost(const StorageHost&) = delete;
  StorageHost& operator=(const StorageHost&) = delete;
  StorageHost(StorageHost&&) = delete;
  StorageHost& operator=(StorageHost&&) = delete;

  /// Stores a blob; returns its URL (URL_O in the paper). URLs are stable,
  /// unguessable-looking identifiers.
  std::string store(Bytes blob);

  /// Fetches a copy by URL; throws std::out_of_range for unknown URLs. A
  /// copy, not a reference: a reference into the store would dangle when a
  /// malicious-DH thread removes or tampers the object mid-read. Every fetch
  /// and store is visible to the host (it *is* the host) — `observed_blobs`
  /// exposes that view to surveillance tests.
  [[nodiscard]] Bytes fetch(const std::string& url) const;

  /// Fault-aware fetch (chaos layer, DESIGN.md "Fault model"): consults
  /// `faults` (may be null = fault-free) before serving. An injected miss —
  /// or a genuinely unknown URL — returns Err(kDhMiss) instead of throwing;
  /// an injected corruption deterministically flips one byte of the
  /// *delivered copy* (the object at rest is untouched), so decryption fails
  /// downstream exactly like a flaky CDN edge.
  [[nodiscard]] net::Expected<Bytes> try_fetch(const std::string& url,
                                               net::FaultStream* faults = nullptr) const;

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

  [[nodiscard]] bool is_durable() const { return durable_ != nullptr; }
  [[nodiscard]] const storage::DurableStore* durable() const { return durable_.get(); }
  [[nodiscard]] const storage::DurableStore::RecoveryStats& recovery_stats() const {
    return recovery_;
  }
  /// Compacts WAL history into a fresh segment (store.hpp's protocol).
  /// store and remove also do, once their write is acknowledged, whenever
  /// the live WAL crossed the configured threshold.
  void checkpoint();
  /// Blocks until everything appended so far is durable.
  void sync();

 private:
  /// checkpoint() iff the live WAL crossed the configured byte threshold.
  /// Called outside any shard lock.
  void maybe_checkpoint();
  void emit_state(const storage::DurableStore::Applier& emit) const;

  ShardedStore<Bytes> blobs_;
  std::atomic<std::uint64_t> next_{1};
  std::unique_ptr<storage::DurableStore> durable_;  ///< null = in-memory host
  storage::DurableStore::RecoveryStats recovery_;
};

}  // namespace sp::osn
