#include "osn/storage_host.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

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

StorageHost::StorageHost() : blobs_(Space::kDhBlobs, "dh-counter") {}

StorageHost::StorageHost(storage::DurableStore::Options durable)
    : blobs_(Space::kDhBlobs, "dh-counter", std::move(durable)) {
  DhMetrics::get().objects.add(static_cast<std::int64_t>(blobs_.size()));
  DhMetrics::get().bytes_at_rest.add(static_cast<std::int64_t>(bytes_stored()));
}

StorageHost::~StorageHost() {
  DhMetrics::get().objects.sub(static_cast<std::int64_t>(blobs_.size()));
  DhMetrics::get().bytes_at_rest.sub(static_cast<std::int64_t>(bytes_stored()));
}

std::string StorageHost::store(Bytes blob) {
  // URL = hash of (counter || size): stable and unguessable-looking, without
  // depending on content (two identical ciphertexts get distinct URLs).
  const std::uint64_t counter = blobs_.issue();
  Bytes url_preimage;
  for (int i = 7; i >= 0; --i) url_preimage.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
  const std::uint64_t size = blob.size();
  for (int i = 7; i >= 0; --i) url_preimage.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  std::string url =
      "dh://objects/" + crypto::to_hex(crypto::Sha256::hash(url_preimage)).substr(0, 24);
  DhMetrics::get().store.inc();
  DhMetrics::get().objects.add(1);
  DhMetrics::get().bytes_at_rest.add(static_cast<std::int64_t>(size));
  // Held at its size: a sealed envelope arrives in a buffer grown for its
  // appended tag, up to twice what it holds, and the blob stays resident
  // for the life of the post.
  blob.shrink_to_fit();
  blobs_.put(url, std::move(blob), counter);
  return url;
}

std::optional<Bytes> StorageHost::fetch(const std::string& url) const {
  DhMetrics::get().fetch.inc();
  std::optional<Bytes> blob = blobs_.get(url);
  if (!blob) DhMetrics::get().fetch_miss.inc();
  return blob;
}

std::size_t StorageHost::bytes_stored() const {
  std::size_t total = 0;
  blobs_.for_each([&total](const std::string&, const Bytes& blob) { total += blob.size(); });
  return total;
}

void StorageHost::tamper(const std::string& url, std::size_t byte_index) {
  DhMetrics::get().tamper.inc();
  blobs_.edit(url, "StorageHost", [&](Bytes& blob) {
    // Same contract as ServiceProvider::tamper_record: an index outside the
    // blob (any index, for an empty blob) is the adversary asking for a
    // write that does not exist — reject it, never wrap it around.
    if (byte_index >= blob.size()) {
      DhMetrics::get().tamper_rejected.inc();
      throw std::out_of_range("StorageHost: tamper out of range");
    }
    blob[byte_index] ^= 0x01;
  });
}

void StorageHost::remove(const std::string& url) {
  const std::optional<Bytes> gone = blobs_.erase(url);
  if (!gone) throw std::out_of_range("StorageHost: unknown URL");
  // Count the op only on the path actually taken: a failed remove removed
  // nothing, so it must not inflate the remove series (it threw above).
  DhMetrics::get().remove.inc();
  DhMetrics::get().objects.sub(1);
  DhMetrics::get().bytes_at_rest.sub(static_cast<std::int64_t>(gone->size()));
}

}  // namespace sp::osn
