// DurableStore: the epoch-numbered WAL + segment pair behind a persistent
// host (ROADMAP item 1). One directory holds at most one live segment and
// the write-ahead logs that follow it:
//
//   seg-<E>.spseg   snapshot of the host's maps as of the start of epoch E
//   wal-<E>.log     every mutation appended during epoch E
//
// Lifecycle:
//
//  * recover(apply) — find the newest segment that passes validation, replay
//    its entries through `apply`, then replay every WAL file with epoch >=
//    the segment's in ascending epoch order (torn tails truncated). Opens
//    the group-commit writer on the newest WAL when done. Stale files from
//    epochs before the segment are deleted (a crash between checkpoint steps
//    leaves them behind; they are fully superseded).
//  * enqueue/wait/append — encode-free passthroughs to the WalWriter;
//    callers hand in codec::Envelope mutations. The durability contract is
//    the writer's (group commit, one fsync per batch).
//  * checkpoint(scan) — rotate the WAL to epoch E+1, stream the live state
//    the caller's `scan` emits into seg-<E+1>.tmp, fsync, atomically rename
//    to seg-<E+1>.spseg, fsync the directory, then delete the epoch-E files.
//    Correctness leans on the hosts' map-first write ordering: a record is
//    applied to the in-memory map *before* its envelope is enqueued (both
//    under the host table's lock), so by the time rotate_to() returns
//    every record in the old WAL is visible to the snapshot scan. Records
//    appended after the rotation may appear in both the snapshot and the
//    new WAL — replay is idempotent (puts overwrite, erases tolerate
//    missing ids), and segment-then-WAL order means the newer write wins.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "codec/records.hpp"
#include "storage/wal.hpp"

namespace sp::storage {

class DurableStore {
 public:
  struct Options {
    std::string dir;
    WalWriter::Options wal;
    /// maybe_checkpoint() fires when the live WAL exceeds this many bytes.
    std::uint64_t checkpoint_wal_bytes = 64ull << 20;
  };

  struct RecoveryStats {
    std::uint64_t segment_records = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t wal_files = 0;
    bool torn_tail = false;
    std::uint64_t max_seq = 0;   ///< largest envelope seq replayed
    double elapsed_ms = 0.0;
  };

  /// Creates `opts.dir` if needed and scans it for epoch files. The store is
  /// not writable until recover() runs — construction never touches file
  /// contents, so a corrupt directory fails in recover() where the caller
  /// handles it.
  explicit DurableStore(Options opts);
  ~DurableStore();
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  using Applier = std::function<void(const codec::Envelope&)>;
  /// Replays segment + WALs through `apply` and opens the writer. Call
  /// exactly once, before any append. Observes sp_storage_recovery_ms.
  RecoveryStats recover(const Applier& apply);

  using Ticket = WalWriter::Ticket;
  [[nodiscard]] Ticket enqueue(const codec::Envelope& env);
  void wait(Ticket ticket);
  void append(const codec::Envelope& env);
  void flush();

  /// Pre-encoded variant: host tables encode outside their lock and hand
  /// the finished frame over while holding it (see osn/host_table.hpp).
  [[nodiscard]] Ticket enqueue_framed(Bytes framed) { return writer_->enqueue(std::move(framed)); }

  /// `scan` must invoke the emit callback once per live record; see the
  /// ordering note in the file header. Serialized internally — concurrent
  /// checkpoints queue behind one mutex; appends continue throughout.
  using Scanner = std::function<void(const Applier& emit)>;
  void checkpoint(const Scanner& scan);
  /// checkpoint(scan) iff the live WAL crossed checkpoint_wal_bytes. Writers
  /// that cross it together checkpoint once: the rest find the fresh WAL.
  bool maybe_checkpoint(const Scanner& scan);

  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::uint64_t wal_bytes() const { return writer_->current_file_bytes(); }
  [[nodiscard]] const std::string& dir() const { return opts_.dir; }

  [[nodiscard]] static std::string segment_path(const std::string& dir, std::uint64_t epoch);
  [[nodiscard]] static std::string wal_path(const std::string& dir, std::uint64_t epoch);

 private:
  void checkpoint_locked(const Scanner& scan) SP_REQUIRES(admin_mutex_);

  Options opts_;
  std::unique_ptr<WalWriter> writer_;  ///< null until recover()

  mutable sp::Mutex admin_mutex_;  ///< serializes checkpoint vs. epoch reads
  std::uint64_t epoch_ SP_GUARDED_BY(admin_mutex_) = 0;
};

}  // namespace sp::storage
