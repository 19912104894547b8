#include "osn/service_provider.hpp"

#include <algorithm>
#include <stdexcept>

#include "codec/records.hpp"
#include "crypto/secret.hpp"
#include "obs/metrics.hpp"
#include "osn/persist.hpp"

namespace sp::osn {

namespace {

/// SP front-end instruments (docs/OBSERVABILITY.md catalog). One set for the
/// process: every ServiceProvider instance reports into the same series,
/// which is the aggregate a deployment scrapes.
struct SpMetrics {
  obs::Counter& store;
  obs::Counter& replace;
  obs::Counter& read;
  obs::Counter& tamper;
  obs::Counter& tamper_rejected;
  obs::Gauge& records;

  static SpMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static SpMetrics m{
        reg.counter("osn_sp_requests_total", "ServiceProvider requests by operation",
                    {{"op", "store_record"}}),
        reg.counter("osn_sp_requests_total", "", {{"op", "replace_record"}}),
        reg.counter("osn_sp_requests_total", "", {{"op", "record"}}),
        reg.counter("osn_sp_requests_total", "", {{"op", "tamper_record"}}),
        reg.counter("osn_sp_tamper_rejected_total",
                    "tamper_record calls rejected by the bounds check"),
        reg.gauge("osn_sp_records", "Puzzle records held across all SP instances"),
    };
    return m;
  }
};

}  // namespace

ServiceProvider::ServiceProvider(storage::DurableStore::Options durable)
    : durable_(std::make_unique<storage::DurableStore>(std::move(durable))) {
  // kSpRecords/kMeta seqs restore the id counter.
  std::uint64_t max_record_seq = 0;
  recovery_ = durable_->recover([&](const codec::Envelope& env) {
    switch (static_cast<Space>(env.space)) {
      case Space::kMeta:
        max_record_seq = std::max(max_record_seq, env.seq);
        break;
      case Space::kSpRecords:
        max_record_seq = std::max(max_record_seq, env.seq);
        if (env.op == codec::Envelope::Op::kPut) {
          records_.put(env.id, env.value);
        } else if (env.op == codec::Envelope::Op::kErase) {
          records_.erase(env.id);
        }
        break;
      default:
        // Unknown space (a newer writer's data) or a retired one: the
        // observation log of older directories (keyspace 2) is skipped here.
        break;
    }
  });
  next_.store(max_record_seq + 1, std::memory_order_relaxed);
  SpMetrics::get().records.add(static_cast<std::int64_t>(records_.size()));
}

ServiceProvider::~ServiceProvider() {
  // No lock: by the time the destructor runs, no other thread may touch the
  // object (the usual C++ lifetime rule; the hammer tests join first).
  std::size_t wiped = 0;
  records_.for_each_mutable([&wiped](const std::string&, Bytes& rec) {
    crypto::secure_wipe(rec);
    ++wiped;
  });
  SpMetrics::get().records.sub(static_cast<std::int64_t>(wiped));
}

std::string ServiceProvider::store_record(Bytes record) {
  // fetch_add keeps ids unique under concurrent stores; which thread gets
  // which id is scheduling-dependent, but every id is issued exactly once.
  const std::uint64_t n = next_.fetch_add(1, std::memory_order_relaxed);
  const std::string id = "puzzle-" + std::to_string(n);
  if (durable_) {
    // persist.hpp's idiom: encode outside the lock, map-apply + enqueue
    // under it, wait for the group commit outside.
    Bytes framed = codec::encode_envelope(codec::Envelope{
        codec::Envelope::Op::kPut, space_byte(Space::kSpRecords), n, id, record});
    storage::DurableStore::Ticket ticket = 0;
    records_.put_then(id, std::move(record),
                      [&] { ticket = durable_->enqueue_framed(std::move(framed)); });
    durable_->wait(ticket);
    maybe_checkpoint();
  } else {
    records_.put(id, std::move(record));
  }
  SpMetrics::get().store.inc();
  SpMetrics::get().records.add(1);
  return id;
}

Bytes ServiceProvider::record(const std::string& puzzle_id) const {
  SpMetrics::get().read.inc();
  return records_.get(puzzle_id, "ServiceProvider");
}

void ServiceProvider::replace_record(const std::string& puzzle_id, Bytes record) {
  SpMetrics::get().replace.inc();
  Bytes framed;
  if (durable_) {
    framed = codec::encode_envelope(codec::Envelope{
        codec::Envelope::Op::kPut, space_byte(Space::kSpRecords), 0, puzzle_id, record});
  }
  storage::DurableStore::Ticket ticket = 0;
  records_.mutate(puzzle_id, "ServiceProvider", [&](Bytes& stored) {
    crypto::secure_wipe(stored);  // refresh must not leave the old puzzle readable
    stored = std::move(record);
    if (durable_) ticket = durable_->enqueue_framed(std::move(framed));
  });
  if (durable_) {
    durable_->wait(ticket);
    maybe_checkpoint();
  }
}

namespace {
bool contains(std::span<const std::uint8_t> haystack, std::span<const std::uint8_t> needle) {
  if (needle.empty() || needle.size() > haystack.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
         haystack.end();
}
}  // namespace

bool ServiceProvider::view_contains(std::span<const std::uint8_t> needle) const {
  bool found = false;
  records_.for_each([&](const std::string&, const Bytes& rec) {
    if (contains(rec, needle)) found = true;
  });
  return found;
}

bool ServiceProvider::serve_ok(net::FaultStream* faults) const {
  if (faults == nullptr) return true;
  return !faults->next_sp_error();
}

std::size_t ServiceProvider::partial_drop(std::size_t n_shares, net::FaultStream* faults) const {
  if (faults == nullptr) return 0;
  return faults->next_sp_partial(n_shares);
}

void ServiceProvider::tamper_record(const std::string& puzzle_id, std::size_t offset,
                                    Bytes replacement) {
  SpMetrics::get().tamper.inc();
  storage::DurableStore::Ticket ticket = 0;
  bool queued = false;
  records_.mutate(puzzle_id, "ServiceProvider", [&](Bytes& stored) {
    // Subtraction-form bounds check: `offset + replacement.size()` wraps for
    // huge offsets and would wave an out-of-bounds write through.
    if (offset > stored.size() || replacement.size() > stored.size() - offset) {
      SpMetrics::get().tamper_rejected.inc();
      throw std::out_of_range("ServiceProvider: tamper out of range");
    }
    std::copy(replacement.begin(), replacement.end(),
              stored.begin() + static_cast<std::ptrdiff_t>(offset));
    if (durable_) {
      // Encoded under the lock — the tampered value exists only here. An
      // adversary-surface path, so the serialization cost is irrelevant.
      ticket = durable_->enqueue(codec::Envelope{
          codec::Envelope::Op::kPut, space_byte(Space::kSpRecords), 0, puzzle_id, stored});
      queued = true;
    }
  });
  if (queued) durable_->wait(ticket);
}

void ServiceProvider::checkpoint() {
  if (!durable_) return;
  durable_->checkpoint([this](const storage::DurableStore::Applier& emit) { emit_state(emit); });
}

void ServiceProvider::maybe_checkpoint() {
  durable_->maybe_checkpoint(
      [this](const storage::DurableStore::Applier& emit) { emit_state(emit); });
}

void ServiceProvider::sync() {
  if (durable_) durable_->flush();
}

void ServiceProvider::emit_state(const storage::DurableStore::Applier& emit) const {
  // Counter carrier first: compaction must never regress id issuance.
  emit(codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kMeta),
                       next_.load(std::memory_order_relaxed) - 1, "sp-counter", {}});
  records_.for_each([&](const std::string& id, const Bytes& rec) {
    emit(codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kSpRecords), 0, id, rec});
  });
}

}  // namespace sp::osn
