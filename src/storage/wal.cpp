#include "storage/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::storage {

namespace {

/// WAL instruments (docs/OBSERVABILITY.md catalog); process-wide totals
/// across every writer.
struct WalMetrics {
  obs::Counter& appends;
  obs::Counter& batches;
  obs::Counter& wal_bytes;

  static WalMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static WalMetrics m{
        reg.counter("sp_storage_wal_appends_total", "Records appended to write-ahead logs"),
        reg.counter("sp_storage_wal_batches_total", "Group-commit batches written"),
        reg.counter("sp_storage_wal_bytes_total", "Bytes appended to write-ahead logs"),
    };
    return m;
  }
};

/// One group-commit batch's fdatasync (Fsync::kBatch only).
const obs::Phase kFsync{"wal.fsync", []() -> obs::Histogram& {
  return obs::MetricsRegistry::global().histogram("sp_storage_fsync_ms",
                                                  "fdatasync latency per group-commit batch");
}};

int open_append(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    throw std::runtime_error("WalWriter: open(" + path + "): " + std::strerror(errno));
  }
  return fd;
}

}  // namespace

WalWriter::WalWriter(std::string path, Options opts) : opts_(std::move(opts)), path_(std::move(path)) {
  fd_ = open_append(path_);
  struct stat st{};
  if (::fstat(fd_, &st) == 0) file_bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (!opts_.on_crash) {
    opts_.on_crash = [] { std::_Exit(kCrashExitCode); };
  }
  thread_ = std::thread([this] { worker_loop(); });
}

WalWriter::~WalWriter() {
  {
    const sp::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) {
    if (opts_.fsync == Fsync::kBatch) ::fdatasync(fd_);
    ::close(fd_);
  }
}

WalWriter::Ticket WalWriter::enqueue(Bytes framed) {
  Ticket ticket = 0;
  Pending p;
  p.data = std::move(framed);
  // Tag the record with the enqueuing request's trace (and mark the enqueue
  // moment as a zero-ish span in that trace) so the group-commit batch can
  // link back to it.
  const obs::TraceContext ctx = obs::Tracer::current();
  if (ctx.sampled()) {
    const obs::TraceId id = ctx.trace_id();
    p.trace_hi = id.hi;
    p.trace_lo = id.lo;
    obs::Span enqueue_span(ctx, "wal.enqueue");
    p.origin_span = enqueue_span.span_id();
    enqueue_span.end();
  }
  {
    const sp::MutexLock lock(mutex_);
    p.seq = ++next_seq_;
    ticket = p.seq;
    queue_.push_back(std::move(p));
  }
  work_cv_.notify_one();
  return ticket;
}

void WalWriter::wait(Ticket ticket) {
  sp::MutexLock lock(mutex_);
  while (durable_seq_ < ticket && error_.empty()) durable_cv_.wait(lock);
  if (!error_.empty()) throw std::runtime_error("WalWriter: " + error_);
}

void WalWriter::append(Bytes framed) { wait(enqueue(std::move(framed))); }

void WalWriter::flush() {
  std::uint64_t last = 0;
  {
    const sp::MutexLock lock(mutex_);
    last = next_seq_;
  }
  wait(last);
}

void WalWriter::rotate_to(std::string new_path) {
  Ticket ticket = 0;
  {
    const sp::MutexLock lock(mutex_);
    Pending p;
    p.seq = ++next_seq_;
    p.rotate = true;
    p.rotate_path = std::move(new_path);
    ticket = p.seq;
    queue_.push_back(std::move(p));
  }
  work_cv_.notify_one();
  wait(ticket);
}

const std::string& WalWriter::path() const {
  const sp::MutexLock lock(mutex_);
  return path_;
}

std::uint64_t WalWriter::current_file_bytes() const {
  const sp::MutexLock lock(mutex_);
  return file_bytes_;
}

void WalWriter::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      sp::MutexLock lock(mutex_);
      while (queue_.empty() && !shutdown_) work_cv_.wait(lock);
      if (queue_.empty()) return;  // shutdown with a drained queue
      batch.swap(queue_);
    }
    write_batch(batch);
  }
}

void WalWriter::write_all_or_die(const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void WalWriter::write_batch(std::vector<Pending>& batch) {
  WalMetrics& metrics = WalMetrics::get();
  // The writer thread has no request context — a group commit serves many.
  // When any record in the batch came from a sampled request, open a forced
  // (sampling-exempt) trace whose root links to every sampled origin: the
  // exported dump then shows request → wal.enqueue → wal.group_commit.
  obs::Span batch_span;
  {
    std::vector<obs::SpanLink> origins;
    for (const Pending& p : batch) {
      if ((p.trace_hi | p.trace_lo) != 0) {
        origins.push_back(obs::SpanLink{obs::TraceId{p.trace_hi, p.trace_lo}, p.origin_span});
      }
    }
    if (!origins.empty()) {
      batch_span = obs::Tracer::global().start_trace_forced("wal.group_commit");
      if (batch_span.recording()) {
        batch_span.add_attr("records", static_cast<std::int64_t>(batch.size()));
        for (const obs::SpanLink& link : origins) batch_span.add_link(link);
      }
    }
  }
  const obs::ContextGuard batch_guard(batch_span.context());
  try {
    Bytes buffer;
    std::uint64_t last_seq = 0;
    std::uint64_t records = 0;
    const auto commit_buffer = [&] {
      if (!buffer.empty()) {
        obs::Span write_span(obs::Tracer::current(), "wal.write");
        if (write_span.recording()) {
          write_span.add_attr("bytes", static_cast<std::int64_t>(buffer.size()));
        }
        write_all_or_die(buffer.data(), buffer.size());
        metrics.wal_bytes.inc(buffer.size());
      }
      if (opts_.fsync == Fsync::kBatch) {
        const obs::Span fsync(kFsync);
        if (::fdatasync(fd_) != 0) {
          throw std::runtime_error(std::string("fdatasync: ") + std::strerror(errno));
        }
      }
      metrics.batches.inc();
      metrics.appends.inc(records);
      const std::uint64_t bytes = buffer.size();
      buffer.clear();
      records = 0;
      if (last_seq > 0) {
        const sp::MutexLock lock(mutex_);
        durable_seq_ = last_seq;
        file_bytes_ += bytes;
      }
      durable_cv_.notify_all();
    };

    for (Pending& p : batch) {
      if (p.rotate) {
        // Everything queued before the rotation lands — durably — in the
        // old file, so the old epoch's WAL is complete before the new one
        // starts accepting records.
        commit_buffer();
        if (opts_.fsync == Fsync::kBatch) ::fdatasync(fd_);
        ::close(fd_);
        fd_ = open_append(p.rotate_path);
        {
          const sp::MutexLock lock(mutex_);
          path_ = p.rotate_path;
          file_bytes_ = 0;
          durable_seq_ = p.seq;
        }
        last_seq = p.seq;
        durable_cv_.notify_all();
        continue;
      }
      if (opts_.kill_point && opts_.kill_point()) {
        // Kill point: flush the intact prefix of the batch, then die midway
        // through this record — the torn tail recovery must truncate.
        if (!buffer.empty()) write_all_or_die(buffer.data(), buffer.size());
        write_all_or_die(p.data.data(), p.data.size() / 2);
        opts_.on_crash();
        std::_Exit(kCrashExitCode);  // on_crash must not return
      }
      buffer.insert(buffer.end(), p.data.begin(), p.data.end());
      last_seq = p.seq;
      ++records;
    }
    commit_buffer();
  } catch (const std::exception& e) {
    batch_span.set_status(obs::SpanStatus::kTerminal);
    const sp::MutexLock lock(mutex_);
    if (error_.empty()) error_ = e.what();
    durable_cv_.notify_all();
  }
}

WalReplayStats replay_wal(const std::string& path,
                          const std::function<void(const codec::Frame&)>& apply,
                          bool truncate_torn_tail) {
  WalReplayStats stats;
  Bytes contents;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return stats;  // no file yet: empty log
    contents.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::size_t off = 0;
  while (off < contents.size()) {
    const auto f = codec::try_unframe_prefix(contents, off);
    if (!f) {
      stats.torn_tail = true;
      break;
    }
    apply(*f);
    ++stats.records;
  }
  stats.valid_bytes = off;
  if (stats.torn_tail && truncate_torn_tail) {
    if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0) {
      throw std::runtime_error("replay_wal: truncate(" + path + "): " + std::strerror(errno));
    }
  }
  return stats;
}

}  // namespace sp::storage
