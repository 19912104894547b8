// Service provider SP (paper §IV-A): hosts puzzle records. The
// construction-specific DisplayPuzzle and Verify are sp::core's, run over a
// record on the SP's behalf. It is the semi-honest party of §VI-A, and it
// keeps only what serving reads: the records. A receiver's response is checked and dropped, so a
// wrong guess leaves no trace at the SP.
//
// The SP stores opaque byte records per puzzle id; the *meaning* of a record
// (Construction 1's puzzle Z_O vs Construction 2's perturbed tree τ')
// belongs to sp::core. This mirrors the paper's deployment, where the
// Amazon-EC2 app stores rows in MySQL without understanding the
// cryptography.
//
// Thread safety: the SP is a serving front-end, so every member is safe to
// call from any thread. Records live in a HostTable (one map, one mutex),
// which also owns their durability. Accessors return copies, never
// references into locked state.
#pragma once

#include <span>
#include <string>

#include "crypto/bytes.hpp"
#include "osn/host_table.hpp"
#include "storage/store.hpp"

namespace sp::osn {

using crypto::Bytes;

class ServiceProvider {
 public:
  ServiceProvider();
  /// Durable SP: opens (or creates) the WAL/segment pair in `durable.dir`,
  /// replays it to rebuild the record map and the id counter, then serves.
  /// Every store/replace/tamper afterwards is acknowledged only once its
  /// envelope is durable per the WAL's fsync policy.
  explicit ServiceProvider(storage::DurableStore::Options durable);
  /// The records hold answer hashes and blinded shares; even though the
  /// protocol keeps them useless to the SP, the simulation wipes them on
  /// teardown so test-process memory never accumulates puzzle material.
  ~ServiceProvider();
  // The table's mutex pins the SP in place: construct it where it serves.
  ServiceProvider(const ServiceProvider&) = delete;
  ServiceProvider& operator=(const ServiceProvider&) = delete;
  ServiceProvider(ServiceProvider&&) = delete;
  ServiceProvider& operator=(ServiceProvider&&) = delete;

  /// Stores a puzzle record; returns the puzzle id embedded in feed
  /// hyperlinks. Everything in `record` becomes part of the SP's view.
  std::string store_record(Bytes record);

  /// Copy of the stored record (a reference would dangle the moment another
  /// thread replaces it). Throws std::out_of_range for unknown ids.
  [[nodiscard]] Bytes record(const std::string& puzzle_id) const;
  [[nodiscard]] bool has_record(const std::string& puzzle_id) const {
    return records_.contains(puzzle_id);
  }
  [[nodiscard]] std::size_t record_count() const { return records_.size(); }

  /// Replaces an existing record in place (puzzle refresh keeps its id so
  /// existing feed hyperlinks stay valid). Throws std::out_of_range for
  /// unknown ids.
  void replace_record(const std::string& puzzle_id, Bytes record);

  /// True iff `needle` occurs in any stored record — the surveillance tests
  /// assert plaintext/context never does.
  [[nodiscard]] bool view_contains(std::span<const std::uint8_t> needle) const;

  // ---- adversary surface (malicious SP, §VI-A) ----

  /// Overwrites part of a stored record (e.g. URL_O or K_Z tampering).
  /// Throws std::out_of_range when [offset, offset + replacement.size())
  /// does not fit inside the record.
  void tamper_record(const std::string& puzzle_id, std::size_t offset, Bytes replacement);

  // ---- persistence (null / no-ops for an in-memory SP) ----

  [[nodiscard]] bool is_durable() const { return records_.durable() != nullptr; }
  [[nodiscard]] const storage::DurableStore* durable() const { return records_.durable(); }
  /// Replay stats from the durable constructor (zeroes when in-memory).
  [[nodiscard]] const storage::DurableStore::RecoveryStats& recovery_stats() const {
    return records_.recovery_stats();
  }
  /// Compacts WAL history into a fresh segment (store.hpp's protocol).
  /// Every write also does, once it is acknowledged, whenever the live WAL
  /// crossed the configured threshold.
  void checkpoint() { records_.checkpoint(); }
  /// Blocks until everything appended so far is durable.
  void sync() { records_.sync(); }

 private:
  HostTable records_;
};

}  // namespace sp::osn
