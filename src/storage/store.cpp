#include "storage/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/segment.hpp"

namespace sp::storage {

namespace fs = std::filesystem;

namespace {

/// Store-level instruments (docs/OBSERVABILITY.md catalog).
struct StoreMetrics {
  obs::Counter& recovered_records;
  obs::Counter& torn_tails;
  obs::Counter& checkpoints;
  obs::Gauge& segment_bytes;

  static StoreMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StoreMetrics m{
        reg.counter("sp_storage_recovered_records_total", "Records replayed during recovery"),
        reg.counter("sp_storage_torn_tails_total", "WAL torn tails truncated during recovery"),
        reg.counter("sp_storage_checkpoints_total", "Segment checkpoints completed"),
        reg.gauge("sp_storage_segment_bytes", "Bytes in live segment files"),
    };
    return m;
  }
};

/// One cold-start replay of a store's segment and WALs.
const obs::Phase kRecover{"storage.recover", []() -> obs::Histogram& {
  return obs::MetricsRegistry::global().histogram(
      "sp_storage_recovery_ms", "Cold-start recovery replay time",
      obs::Histogram::exponential_bounds(1.0, 2.5, 16));
}};

/// Parses "<prefix><digits><suffix>" into the epoch; nullopt on mismatch.
std::optional<std::uint64_t> parse_epoch(const std::string& name, std::string_view prefix,
                                         std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return std::nullopt;
  const std::string digits = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t epoch = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw std::runtime_error("DurableStore: open dir " + dir + ": " + std::strerror(errno));
  }
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string DurableStore::segment_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/seg-" + std::to_string(epoch) + ".spseg";
}

std::string DurableStore::wal_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/wal-" + std::to_string(epoch) + ".log";
}

DurableStore::DurableStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty()) throw std::invalid_argument("DurableStore: dir required");
  fs::create_directories(opts_.dir);
}

DurableStore::~DurableStore() = default;

DurableStore::RecoveryStats DurableStore::recover(const Applier& apply) {
  if (writer_) throw std::logic_error("DurableStore::recover: already recovered");
  obs::Span span(kRecover);
  RecoveryStats stats;

  std::vector<std::uint64_t> seg_epochs;
  std::vector<std::uint64_t> wal_epochs;
  for (const auto& entry : fs::directory_iterator(opts_.dir)) {
    const std::string name = entry.path().filename().string();
    if (const auto e = parse_epoch(name, "seg-", ".spseg")) seg_epochs.push_back(*e);
    if (const auto e = parse_epoch(name, "wal-", ".log")) wal_epochs.push_back(*e);
  }
  std::sort(seg_epochs.rbegin(), seg_epochs.rend());  // newest first
  std::sort(wal_epochs.begin(), wal_epochs.end());

  // Newest segment that validates wins; a corrupt or half-written newer one
  // is deleted so it can never shadow the good snapshot again.
  std::uint64_t base_epoch = 0;
  bool have_segment = false;
  for (const std::uint64_t e : seg_epochs) {
    try {
      const Segment seg(segment_path(opts_.dir, e));
      seg.for_each([&](const codec::Envelope& env) {
        apply(env);
        ++stats.segment_records;
        if (env.seq > stats.max_seq) stats.max_seq = env.seq;
      });
      base_epoch = e;
      have_segment = true;
      StoreMetrics::get().segment_bytes.set(static_cast<std::int64_t>(seg.file_bytes()));
      break;
    } catch (const codec::CodecError&) {
      fs::remove(segment_path(opts_.dir, e));
    }
  }

  std::uint64_t newest_epoch = have_segment ? base_epoch : 0;
  for (const std::uint64_t e : wal_epochs) {
    if (have_segment && e < base_epoch) {
      fs::remove(wal_path(opts_.dir, e));  // fully superseded by the segment
      continue;
    }
    const WalReplayStats r = replay_wal(wal_path(opts_.dir, e), [&](const codec::Frame& f) {
      const codec::Envelope env = codec::decode_envelope_payload(f);
      apply(env);
      if (env.seq > stats.max_seq) stats.max_seq = env.seq;
    });
    stats.wal_records += r.records;
    ++stats.wal_files;
    if (r.torn_tail) {
      stats.torn_tail = true;
      StoreMetrics::get().torn_tails.inc();
    }
    newest_epoch = std::max(newest_epoch, e);
  }

  {
    const sp::MutexLock lock(admin_mutex_);
    epoch_ = newest_epoch;
  }
  writer_ = std::make_unique<WalWriter>(wal_path(opts_.dir, newest_epoch), opts_.wal);

  stats.elapsed_ms = span.end();
  StoreMetrics::get().recovered_records.inc(stats.segment_records + stats.wal_records);
  return stats;
}

DurableStore::Ticket DurableStore::enqueue(const codec::Envelope& env) {
  return writer_->enqueue(codec::encode_envelope(env));
}

void DurableStore::wait(Ticket ticket) {
  // Durability stall as seen by the requesting thread — the counterpart of
  // the writer-side wal.fsync span, attached to the caller's trace.
  obs::Span wait_span(obs::Tracer::current(), "wal.wait");
  writer_->wait(ticket);
}

void DurableStore::append(const codec::Envelope& env) {
  writer_->append(codec::encode_envelope(env));
}

void DurableStore::flush() { writer_->flush(); }

std::uint64_t DurableStore::epoch() const {
  const sp::MutexLock lock(admin_mutex_);
  return epoch_;
}

void DurableStore::checkpoint(const Scanner& scan) {
  if (!writer_) throw std::logic_error("DurableStore::checkpoint: recover() first");
  const sp::MutexLock lock(admin_mutex_);
  checkpoint_locked(scan);
}

void DurableStore::checkpoint_locked(const Scanner& scan) {
  const std::uint64_t old_epoch = epoch_;
  const std::uint64_t new_epoch = old_epoch + 1;

  // 1. Rotate: everything appended so far drains — durably — into the old
  //    WAL; new appends land in wal-<new_epoch>.
  writer_->rotate_to(wal_path(opts_.dir, new_epoch));

  // 2. Snapshot the live state into a temp file, then publish atomically.
  const std::string tmp = segment_path(opts_.dir, new_epoch) + ".tmp";
  std::uint64_t seg_bytes = 0;
  {
    SegmentWriter seg(tmp);
    scan([&](const codec::Envelope& env) { seg.add(env); });
    seg_bytes = seg.finish();
  }
  fs::rename(tmp, segment_path(opts_.dir, new_epoch));
  fsync_dir(opts_.dir);

  // 3. The old epoch is fully superseded: snapshot covers the old WAL (see
  //    the ordering note in store.hpp) and any older segment.
  fs::remove(wal_path(opts_.dir, old_epoch));
  std::error_code ec;
  fs::remove(segment_path(opts_.dir, old_epoch), ec);  // may not exist

  epoch_ = new_epoch;
  StoreMetrics& m = StoreMetrics::get();
  m.checkpoints.inc();
  m.segment_bytes.set(static_cast<std::int64_t>(seg_bytes));
}

bool DurableStore::maybe_checkpoint(const Scanner& scan) {
  if (writer_->current_file_bytes() < opts_.checkpoint_wal_bytes) return false;
  const sp::MutexLock lock(admin_mutex_);
  // Re-read under the lock: a writer that checkpointed first rotated the WAL.
  if (writer_->current_file_bytes() < opts_.checkpoint_wal_bytes) return false;
  checkpoint_locked(scan);
  return true;
}

}  // namespace sp::storage
