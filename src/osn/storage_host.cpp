#include "osn/storage_host.hpp"

#include <algorithm>
#include <stdexcept>

#include "codec/records.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "osn/persist.hpp"

namespace sp::osn {

namespace {

/// DH front-end instruments (docs/OBSERVABILITY.md catalog); process-wide
/// totals across every StorageHost instance.
struct DhMetrics {
  obs::Counter& store;
  obs::Counter& fetch;
  obs::Counter& fetch_miss;
  obs::Counter& remove;
  obs::Counter& tamper;
  obs::Counter& tamper_rejected;
  obs::Gauge& objects;
  obs::Gauge& bytes_at_rest;

  static DhMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static DhMetrics m{
        reg.counter("osn_dh_requests_total", "StorageHost requests by operation",
                    {{"op", "store"}}),
        reg.counter("osn_dh_requests_total", "", {{"op", "fetch"}}),
        reg.counter("osn_dh_fetch_miss_total", "Fetches of unknown URLs (malicious-SP pointers)"),
        reg.counter("osn_dh_requests_total", "", {{"op", "remove"}}),
        reg.counter("osn_dh_requests_total", "", {{"op", "tamper"}}),
        reg.counter("osn_dh_tamper_rejected_total",
                    "tamper calls rejected by the bounds check"),
        reg.gauge("osn_dh_objects", "Encrypted objects at rest across all DH instances"),
        reg.gauge("osn_dh_bytes", "Encrypted bytes at rest across all DH instances"),
    };
    return m;
  }
};

}  // namespace

StorageHost::StorageHost(storage::DurableStore::Options durable)
    : durable_(std::make_unique<storage::DurableStore>(std::move(durable))) {
  std::uint64_t max_counter_seq = 0;
  recovery_ = durable_->recover([&](const codec::Envelope& env) {
    switch (static_cast<Space>(env.space)) {
      case Space::kMeta:
        max_counter_seq = std::max(max_counter_seq, env.seq);
        break;
      case Space::kDhBlobs:
        max_counter_seq = std::max(max_counter_seq, env.seq);
        if (env.op == codec::Envelope::Op::kPut) {
          blobs_.put(env.id, env.value);
        } else if (env.op == codec::Envelope::Op::kErase) {
          blobs_.erase(env.id);
        }
        break;
      default:
        break;  // unknown space: a newer writer's data, skip
    }
  });
  next_.store(max_counter_seq + 1, std::memory_order_relaxed);
  std::size_t objects = 0, bytes = 0;
  blobs_.for_each([&](const std::string&, const Bytes& blob) {
    ++objects;
    bytes += blob.size();
  });
  DhMetrics::get().objects.add(static_cast<std::int64_t>(objects));
  DhMetrics::get().bytes_at_rest.add(static_cast<std::int64_t>(bytes));
}

StorageHost::~StorageHost() {
  std::size_t objects = 0, bytes = 0;
  blobs_.for_each([&](const std::string&, const Bytes& blob) {
    ++objects;
    bytes += blob.size();
  });
  DhMetrics::get().objects.sub(static_cast<std::int64_t>(objects));
  DhMetrics::get().bytes_at_rest.sub(static_cast<std::int64_t>(bytes));
}

std::string StorageHost::store(Bytes blob) {
  // URL = hash of (counter || size): stable and unguessable-looking, without
  // depending on content (two identical ciphertexts get distinct URLs). The
  // counter is a global atomic so URLs never depend on shard layout.
  const std::uint64_t counter = next_.fetch_add(1, std::memory_order_relaxed);
  Bytes url_preimage;
  for (int i = 7; i >= 0; --i) url_preimage.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
  const std::uint64_t size = blob.size();
  for (int i = 7; i >= 0; --i) url_preimage.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  const std::string url =
      "dh://objects/" + crypto::to_hex(crypto::Sha256::hash(url_preimage)).substr(0, 24);
  DhMetrics::get().store.inc();
  DhMetrics::get().objects.add(1);
  DhMetrics::get().bytes_at_rest.add(static_cast<std::int64_t>(size));
  if (durable_) {
    // persist.hpp's idiom: encode outside the lock, map-apply + enqueue
    // under it, wait for the group commit outside.
    Bytes framed = codec::encode_envelope(codec::Envelope{
        codec::Envelope::Op::kPut, space_byte(Space::kDhBlobs), counter, url, blob});
    storage::DurableStore::Ticket ticket = 0;
    blobs_.put_then(url, std::move(blob),
                    [&] { ticket = durable_->enqueue_framed(std::move(framed)); });
    durable_->wait(ticket);
    maybe_checkpoint();
  } else {
    blobs_.put(url, std::move(blob));
  }
  return url;
}

Bytes StorageHost::fetch(const std::string& url) const {
  DhMetrics::get().fetch.inc();
  try {
    return blobs_.get(url, "StorageHost");
  } catch (const std::out_of_range&) {
    DhMetrics::get().fetch_miss.inc();
    throw;
  }
}

net::Expected<Bytes> StorageHost::try_fetch(const std::string& url,
                                            net::FaultStream* faults) const {
  DhMetrics::get().fetch.inc();
  std::optional<net::ServeError> injected;
  if (faults != nullptr) injected = faults->next_dh();
  if (injected == net::ServeError::kDhMiss) {
    // An injected miss IS a miss from the caller's point of view — it must
    // land in the miss series too, or the chaos dashboards undercount.
    DhMetrics::get().fetch_miss.inc();
    return net::ServeError::kDhMiss;
  }
  std::optional<Bytes> blob = blobs_.get_if(url);
  if (!blob) {
    DhMetrics::get().fetch_miss.inc();
    return net::ServeError::kDhMiss;
  }
  if (injected == net::ServeError::kCorruptedBlob && !blob->empty()) {
    (*blob)[blob->size() / 2] ^= 0x5a;
  }
  return std::move(*blob);
}

std::size_t StorageHost::bytes_stored() const {
  std::size_t total = 0;
  blobs_.for_each([&total](const std::string&, const Bytes& blob) { total += blob.size(); });
  return total;
}

void StorageHost::tamper(const std::string& url, std::size_t byte_index) {
  DhMetrics::get().tamper.inc();
  storage::DurableStore::Ticket ticket = 0;
  bool queued = false;
  blobs_.mutate(url, "StorageHost", [&](Bytes& blob) {
    // Same contract as ServiceProvider::tamper_record: an index outside the
    // blob (any index, for an empty blob) is the adversary asking for a
    // write that does not exist — reject it, never wrap it around.
    if (byte_index >= blob.size()) {
      DhMetrics::get().tamper_rejected.inc();
      throw std::out_of_range("StorageHost: tamper out of range");
    }
    blob[byte_index] ^= 0x01;
    if (durable_) {
      ticket = durable_->enqueue(codec::Envelope{codec::Envelope::Op::kPut,
                                                 space_byte(Space::kDhBlobs), 0, url, blob});
      queued = true;
    }
  });
  if (queued) durable_->wait(ticket);
}

void StorageHost::remove(const std::string& url) {
  std::optional<Bytes> gone;
  if (durable_) {
    Bytes framed = codec::encode_envelope(
        codec::Envelope{codec::Envelope::Op::kErase, space_byte(Space::kDhBlobs), 0, url, {}});
    storage::DurableStore::Ticket ticket = 0;
    bool queued = false;
    gone = blobs_.take_then(url, [&](const Bytes&) {
      ticket = durable_->enqueue_framed(std::move(framed));
      queued = true;
    });
    if (queued) {
      durable_->wait(ticket);
      maybe_checkpoint();
    }
  } else {
    gone = blobs_.take(url);
  }
  if (!gone) throw std::out_of_range("StorageHost: unknown URL");
  // Count the op only on the path actually taken: a failed remove removed
  // nothing, so it must not inflate the remove series (it threw above).
  DhMetrics::get().remove.inc();
  DhMetrics::get().objects.sub(1);
  DhMetrics::get().bytes_at_rest.sub(static_cast<std::int64_t>(gone->size()));
}

void StorageHost::checkpoint() {
  if (!durable_) return;
  durable_->checkpoint([this](const storage::DurableStore::Applier& emit) { emit_state(emit); });
}

void StorageHost::maybe_checkpoint() {
  durable_->maybe_checkpoint(
      [this](const storage::DurableStore::Applier& emit) { emit_state(emit); });
}

void StorageHost::sync() {
  if (durable_) durable_->flush();
}

void StorageHost::emit_state(const storage::DurableStore::Applier& emit) const {
  // Counter carrier first: compaction must never regress URL issuance.
  emit(codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kMeta),
                       next_.load(std::memory_order_relaxed) - 1, "dh-counter", {}});
  blobs_.for_each([&](const std::string& url, const Bytes& blob) {
    emit(codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kDhBlobs), 0, url, blob});
  });
}

}  // namespace sp::osn
