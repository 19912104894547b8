#include "net/simnet.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace sp::net {

namespace {

/// Link-layer instruments: modeled transfer counts/bytes/delays across every
/// Network instance (docs/OBSERVABILITY.md catalog).
struct NetMetrics {
  obs::Counter& transfers;
  obs::Counter& bytes;
  obs::Histogram& transfer_ms;

  static NetMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static NetMetrics m{
        reg.counter("net_transfers_total", "Modeled request/response exchanges"),
        reg.counter("net_bytes_total", "Modeled payload bytes moved"),
        reg.histogram("net_transfer_ms", "Modeled per-exchange network delay"),
    };
    return m;
  }
};

}  // namespace

DeviceProfile pc_profile() { return DeviceProfile{"pc-quadcore-2.5ghz", 1.0}; }

DeviceProfile tablet_profile() { return DeviceProfile{"nexus7-tablet", 5.0}; }

LinkProfile wlan_80211n_to_ec2() {
  // Paper: 802.11n at 60 Mbps; EC2 path adds tens of ms RTT.
  return LinkProfile{"802.11n-60mbps-ec2", 60.0, 40.0, 8.0, 0.15};
}

LinkProfile loopback() { return LinkProfile{"loopback", 100000.0, 0.0, 0.0, 0.0}; }

double Network::transfer_ms(std::size_t bytes, crypto::Drbg& rng, int round_trips) const {
  if (round_trips < 1) throw std::invalid_argument("Network::transfer_ms: round_trips >= 1");
  const double payload_ms =
      (static_cast<double>(bytes) * 8.0) / (link_.bandwidth_mbps * 1000.0);
  double delay = payload_ms + round_trips * (link_.rtt_ms + link_.per_request_overhead_ms);
  if (link_.jitter_frac > 0.0) {
    // Uniform multiplicative jitter in [1, 1 + jitter_frac) — deterministic
    // given the stream, mirroring the paper's observed instability.
    delay *= 1.0 + link_.jitter_frac * rng.uniform_real();
  }
  NetMetrics& metrics = NetMetrics::get();
  metrics.transfers.inc();
  metrics.bytes.inc(bytes);
  metrics.transfer_ms.observe(delay);
  return delay;
}

}  // namespace sp::net
