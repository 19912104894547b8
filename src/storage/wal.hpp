// Append-only write-ahead log with group commit (ROADMAP item 1).
//
// One background writer thread owns the file descriptor; callers enqueue
// framed records and wait for durability. The writer drains *everything*
// queued in one pass, writes it with a single write(2), then issues one
// fdatasync covering the whole batch — so under concurrent load N appends
// pay one fsync, and a single-threaded caller degrades to classic
// write+sync. This is the batched single-writer queue of the exemplar
// (badem's write_database_queue), rebuilt on the repo's sp::Mutex/CondVar
// capability wrappers.
//
// Durability contract: when append() (or Ticket::wait via enqueue/wait)
// returns, the record is in the file per the fsync policy — kBatch means
// fdatasync completed, kNever means write(2) completed (survives process
// death, not power loss; the SIGKILL chaos tests run in this mode).
//
// Crash kill points (chaos layer): with a kill-point predicate configured,
// the writer asks it once per record. On a yes it writes a deliberately torn
// prefix of that record and dies — default std::_Exit(kCrashExitCode);
// tests override on_crash to raise SIGKILL. The crash tests build the
// predicate from the seeded fault schedule, so one plan seed always kills
// the writer at the same record. Recovery replay (replay() + the torn-tail
// truncation) is what makes this survivable, and the crash tests gate
// exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "codec/wire.hpp"
#include "crypto/bytes.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::storage {

using crypto::Bytes;

class WalWriter {
 public:
  enum class Fsync : std::uint8_t {
    kNever,  ///< write(2) only — survives SIGKILL, not power loss
    kBatch,  ///< one fdatasync per drained batch (group commit)
  };

  struct Options {
    Fsync fsync = Fsync::kBatch;
    /// Kill point: asked once per record, on the writer thread, in append
    /// order; true = die at this record. Empty = never crashes.
    std::function<bool()> kill_point;
    /// Invoked at a kill point after the torn write. Must not return.
    /// Default: std::_Exit(kCrashExitCode).
    std::function<void()> on_crash;
  };

  static constexpr int kCrashExitCode = 137;

  /// Opens (creating if needed) `path` for appending. Throws
  /// std::runtime_error on I/O failure.
  WalWriter(std::string path, Options opts);
  /// Drains the queue, then joins the writer thread.
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opaque position in the append order; wait(ticket) blocks until every
  /// record at or before it is durable.
  using Ticket = std::uint64_t;

  /// Enqueues one framed record and returns immediately. Queue position —
  /// and therefore replay order — is fixed at enqueue time, which is what
  /// lets a host table enqueue under its lock (cheap) and wait outside it.
  Ticket enqueue(Bytes framed);
  /// Blocks until the record behind `ticket` is durable.
  void wait(Ticket ticket);
  /// enqueue + wait.
  void append(Bytes framed);
  /// Barrier: every record enqueued before the call is durable on return.
  void flush();

  /// Rotate to a new file: all queued records drain to the old file first,
  /// the old fd is fsynced (kBatch) and closed, then appends continue in
  /// `new_path`. Blocks until the switch happened.
  void rotate_to(std::string new_path);

  [[nodiscard]] const std::string& path() const;
  /// Bytes appended to the *current* file so far (checkpoint trigger).
  [[nodiscard]] std::uint64_t current_file_bytes() const;

 private:
  struct Pending {
    Bytes data;
    std::uint64_t seq = 0;
    bool rotate = false;
    std::string rotate_path;
    // Origin trace of the enqueuing request (zero = untraced). The writer's
    // group-commit span links back to these, making "which requests did this
    // fsync cover" a first-class question in a trace dump.
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
    std::uint64_t origin_span = 0;
  };

  void worker_loop();
  void write_batch(std::vector<Pending>& batch) SP_EXCLUDES(mutex_);
  void write_all_or_die(const std::uint8_t* data, std::size_t size);

  Options opts_;
  int fd_ = -1;          ///< owned by the worker thread after construction
  std::string path_;     ///< guarded by mutex_ (rotate swaps it)

  mutable sp::Mutex mutex_;
  sp::CondVar work_cv_;     ///< writer wakes on new work / shutdown
  sp::CondVar durable_cv_;  ///< waiters wake when durable_seq_ advances
  std::vector<Pending> queue_ SP_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ SP_GUARDED_BY(mutex_) = 0;
  std::uint64_t durable_seq_ SP_GUARDED_BY(mutex_) = 0;
  std::uint64_t file_bytes_ SP_GUARDED_BY(mutex_) = 0;
  bool shutdown_ SP_GUARDED_BY(mutex_) = false;
  std::string error_ SP_GUARDED_BY(mutex_);  ///< first writer I/O failure; waiters rethrow
  std::thread thread_;
};

/// Replays every valid frame of a WAL file in order. A torn or corrupt tail
/// stops the replay cleanly; when `truncate_torn_tail` is set the file is
/// truncated back to the last valid frame so a reopened writer appends
/// after clean data. Returns the stats the recovery metrics report.
struct WalReplayStats {
  std::uint64_t records = 0;
  std::uint64_t valid_bytes = 0;
  bool torn_tail = false;
};
WalReplayStats replay_wal(const std::string& path,
                          const std::function<void(const codec::Frame&)>& apply,
                          bool truncate_torn_tail = true);

}  // namespace sp::storage
