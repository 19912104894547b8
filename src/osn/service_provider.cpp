#include "osn/service_provider.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/secret.hpp"
#include "obs/metrics.hpp"

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

ServiceProvider::ServiceProvider() : records_(Space::kSpRecords, "sp-counter") {}

ServiceProvider::ServiceProvider(storage::DurableStore::Options durable)
    : records_(Space::kSpRecords, "sp-counter", std::move(durable)) {
  SpMetrics::get().records.add(static_cast<std::int64_t>(records_.size()));
}

ServiceProvider::~ServiceProvider() {
  std::size_t wiped = 0;
  records_.for_each([&wiped](const std::string&, Bytes& rec) {
    crypto::secure_wipe(rec);
    ++wiped;
  });
  SpMetrics::get().records.sub(static_cast<std::int64_t>(wiped));
}

std::string ServiceProvider::store_record(Bytes record) {
  // Every counter value is issued once, so ids stay unique under concurrent
  // stores; which thread gets which id is scheduling-dependent.
  const std::uint64_t n = records_.issue();
  std::string id = "puzzle-" + std::to_string(n);
  records_.put(id, std::move(record), n);
  SpMetrics::get().store.inc();
  SpMetrics::get().records.add(1);
  return id;
}

Bytes ServiceProvider::record(const std::string& puzzle_id) const {
  SpMetrics::get().read.inc();
  std::optional<Bytes> rec = records_.get(puzzle_id);
  if (!rec) throw std::out_of_range("ServiceProvider: unknown key " + puzzle_id);
  return std::move(*rec);
}

void ServiceProvider::replace_record(const std::string& puzzle_id, Bytes record) {
  SpMetrics::get().replace.inc();
  Bytes old = records_.replace(puzzle_id, std::move(record), "ServiceProvider");
  crypto::secure_wipe(old);  // refresh must not leave the old puzzle readable
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

void ServiceProvider::tamper_record(const std::string& puzzle_id, std::size_t offset,
                                    Bytes replacement) {
  SpMetrics::get().tamper.inc();
  records_.edit(puzzle_id, "ServiceProvider", [&](Bytes& stored) {
    // Subtraction-form bounds check: `offset + replacement.size()` wraps for
    // huge offsets and would wave an out-of-bounds write through.
    if (offset > stored.size() || replacement.size() > stored.size() - offset) {
      SpMetrics::get().tamper_rejected.inc();
      throw std::out_of_range("ServiceProvider: tamper out of range");
    }
    std::copy(replacement.begin(), replacement.end(),
              stored.begin() + static_cast<std::ptrdiff_t>(offset));
  });
}

}  // namespace sp::osn
