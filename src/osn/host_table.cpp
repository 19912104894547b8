#include "osn/host_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sp::osn {

namespace {
/// Entries a checkpoint scan copies per hold of the table lock.
constexpr std::size_t kScanChunk = 64;
}  // namespace

HostTable::HostTable(Space space, std::string counter_id)
    : space_(space), counter_id_(std::move(counter_id)) {}

HostTable::HostTable(Space space, std::string counter_id, storage::DurableStore::Options durable)
    : HostTable(space, std::move(counter_id)) {
  durable_ = std::make_unique<storage::DurableStore>(std::move(durable));
  // Replay into a local map: holding mutex_ across recover() would order it
  // before the store's admin lock, which a checkpoint takes before the scan
  // takes mutex_.
  Map entries;
  std::uint64_t max_seq = 0;
  recovery_ = durable_->recover([&](const codec::Envelope& env) {
    if (env.space == space_byte(Space::kMeta)) {
      max_seq = std::max(max_seq, env.seq);
      return;
    }
    // A retired keyspace (the SP's old observation log) or a newer
    // writer's: skipped.
    if (env.space != space_byte(space_)) return;
    max_seq = std::max(max_seq, env.seq);
    if (env.op == codec::Envelope::Op::kPut) {
      entries[env.id] = env.value;
    } else if (env.op == codec::Envelope::Op::kErase) {
      entries.erase(env.id);
    }
  });
  next_.store(max_seq + 1, std::memory_order_relaxed);
  const sp::MutexLock lock(mutex_);
  entries_ = std::move(entries);
}

template <typename Apply>
void HostTable::write(Apply&& apply) {
  storage::DurableStore::Ticket ticket = 0;
  {
    const sp::MutexLock lock(mutex_);
    std::optional<Bytes> framed = apply(entries_);
    if (!framed || !durable_) return;
    ticket = durable_->enqueue_framed(std::move(*framed));
  }
  durable_->wait(ticket);
  durable_->maybe_checkpoint([this](const storage::DurableStore::Applier& emit) { scan(emit); });
}

Bytes HostTable::frame(codec::Envelope::Op op, std::uint64_t seq, const std::string& id,
                       const Bytes& value) const {
  if (!durable_) return {};
  return codec::encode_envelope(codec::Envelope{op, space_byte(space_), seq, id, value});
}

void HostTable::put(const std::string& id, Bytes value, std::uint64_t seq) {
  Bytes framed = frame(codec::Envelope::Op::kPut, seq, id, value);
  write([&](Map& entries) -> std::optional<Bytes> {
    entries[id] = std::move(value);
    return std::move(framed);
  });
}

Bytes HostTable::replace(const std::string& id, Bytes value, const char* who) {
  Bytes framed = frame(codec::Envelope::Op::kPut, 0, id, value);
  Bytes displaced;
  write([&](Map& entries) -> std::optional<Bytes> {
    const auto it = entries.find(id);
    if (it == entries.end()) throw std::out_of_range(std::string(who) + ": unknown key " + id);
    displaced = std::exchange(it->second, std::move(value));
    return std::move(framed);
  });
  return displaced;
}

void HostTable::edit(const std::string& id, const char* who,
                     const std::function<void(Bytes&)>& fn) {
  write([&](Map& entries) -> std::optional<Bytes> {
    const auto it = entries.find(id);
    if (it == entries.end()) throw std::out_of_range(std::string(who) + ": unknown key " + id);
    fn(it->second);
    return frame(codec::Envelope::Op::kPut, 0, id, it->second);
  });
}

std::optional<Bytes> HostTable::erase(const std::string& id) {
  Bytes framed = frame(codec::Envelope::Op::kErase, 0, id, {});
  std::optional<Bytes> gone;
  write([&](Map& entries) -> std::optional<Bytes> {
    const auto it = entries.find(id);
    if (it == entries.end()) return std::nullopt;
    gone = std::move(it->second);
    entries.erase(it);
    return std::move(framed);
  });
  return gone;
}

std::optional<Bytes> HostTable::get(const std::string& id) const {
  const sp::MutexLock lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool HostTable::contains(const std::string& id) const {
  const sp::MutexLock lock(mutex_);
  return entries_.count(id) > 0;
}

std::size_t HostTable::size() const {
  const sp::MutexLock lock(mutex_);
  return entries_.size();
}

std::map<std::string, Bytes> HostTable::snapshot() const {
  const sp::MutexLock lock(mutex_);
  return entries_;
}

void HostTable::checkpoint() {
  if (!durable_) return;
  durable_->checkpoint([this](const storage::DurableStore::Applier& emit) { scan(emit); });
}

void HostTable::sync() {
  if (durable_) durable_->flush();
}

void HostTable::scan(const storage::DurableStore::Applier& emit) const {
  emit(codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kMeta),
                       next_.load(std::memory_order_relaxed) - 1, counter_id_, {}});
  // Copy kScanChunk entries at a time under the lock, each chunk resuming
  // after the last id copied, and emit them outside it: requests wait for
  // one chunk's copy, never for the segment write. Every entry present when
  // the WAL rotated is emitted once; a write that lands during the scan is
  // in the new WAL either way, which replays after the segment.
  std::string last;
  for (bool first = true;; first = false) {
    std::vector<codec::Envelope> chunk;
    {
      const sp::MutexLock lock(mutex_);
      for (auto it = first ? entries_.begin() : entries_.upper_bound(last);
           it != entries_.end() && chunk.size() < kScanChunk; ++it) {
        chunk.push_back(codec::Envelope{codec::Envelope::Op::kPut, space_byte(space_), 0,
                                        it->first, it->second});
      }
    }
    if (chunk.empty()) return;
    for (const codec::Envelope& env : chunk) emit(env);
    last = chunk.back().id;
  }
}

}  // namespace sp::osn
