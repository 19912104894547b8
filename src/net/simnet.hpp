// Simulated network and device model.
//
// The paper's Figure 10 decomposes every operation into *local processing
// delay* and *network delay* measured on real hardware (PC + Nexus 7 tablet,
// 802.11n WLAN to an EC2 server). We have neither the testbed nor the
// tablet, so we substitute (documented in DESIGN.md):
//
//  * local processing — real measured CPU time of our implementation,
//    multiplied by a device profile's cpu_scale (tablet ≈ 4–6× a 2013 PC on
//    browser crypto, per contemporaneous sunspider-class benchmarks);
//  * network delay — a deterministic transfer-time model over the *actual
//    byte counts* the protocol produces: per-request overhead + RTT +
//    size/bandwidth + seeded jitter (the paper notes "instability ... due
//    to the unpredictability of the communication network speed").
//
// The shape of Fig. 10 (who wins, what grows with N) is produced by the real
// protocol byte counts and real crypto timings, not by hard-coded curves.
#pragma once

#include <chrono>
#include <string>
#include <type_traits>

#include "crypto/drbg.hpp"

namespace sp::net {

/// Measures real elapsed CPU-ish time (steady clock) for local-processing
/// accounting.
class CpuTimer {
 public:
  CpuTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Client device: scales measured local CPU time.
struct DeviceProfile {
  std::string name;
  double cpu_scale = 1.0;
};

/// Access link + server path characteristics.
struct LinkProfile {
  std::string name;
  double bandwidth_mbps = 60.0;        ///< effective payload throughput
  double rtt_ms = 40.0;                ///< client <-> server round trip
  double per_request_overhead_ms = 8;  ///< HTTP/TLS handling per request
  double jitter_frac = 0.15;           ///< uniform multiplicative jitter
};

/// Paper setup: quad-core 2.5 GHz PC.
DeviceProfile pc_profile();
/// Paper setup: Nexus 7 (2013) tablet; ~5x slower on JS crypto workloads.
DeviceProfile tablet_profile();
/// Paper setup: 802.11n WLAN at 60 Mbps to an EC2-hosted app.
LinkProfile wlan_80211n_to_ec2();
/// Zero-cost link for pure-CPU experiments.
LinkProfile loopback();

/// Deterministic network delay model. It holds only the link: each call
/// draws its jitter from the caller's stream, so concurrent requests share
/// one Network without a lock, and a request's delays replay with its
/// stream. `const` because modeling a transfer doesn't change the link — it
/// lets the whole receiver-side serving path be const.
class Network {
 public:
  explicit Network(LinkProfile link) : link_(std::move(link)) {}

  /// Delay for one request/response exchange moving `bytes` of payload,
  /// with its jitter drawn from `rng`. `round_trips` models chatty
  /// exchanges (e.g. multi-file uploads). The link never fails on its own:
  /// a serving request that draws a timeout from its fault schedule skips
  /// this call, and one that draws a latency spike adds the surcharge to
  /// the delay returned here.
  double transfer_ms(std::size_t bytes, crypto::Drbg& rng, int round_trips = 1) const;

  [[nodiscard]] const LinkProfile& link() const { return link_; }

 private:
  LinkProfile link_;
};

/// Accumulates the Fig. 10 decomposition for one protocol run.
///
/// Concurrency contract: a ledger is a plain value — every request owns its
/// own copy and no ledger is ever shared between threads. The serving core
/// constructs one per access/share call and hands it back inside the
/// result, so ledgers need (and have) no locks.
class CostLedger {
 public:
  /// Defaults to the PC profile (cpu_scale 1.0).
  CostLedger() : device_{"pc-quadcore-2.5ghz", 1.0} {}
  explicit CostLedger(DeviceProfile device) : device_(std::move(device)) {}

  /// Adds measured local CPU time (scaled by the device profile).
  void add_local_measured(double raw_ms) { local_ms_ += raw_ms * device_.cpu_scale; }
  /// Adds modeled network delay.
  void add_network(double ms) { network_ms_ += ms; }
  /// Adds modeled wait that moved no payload: timed-out exchanges and
  /// retry backoff. Kept apart from network_ms so the Fig. 10 network
  /// series stays comparable with and without faults.
  void add_wait(double ms) { wait_ms_ += ms; }
  /// Tracks payload volume for reporting.
  void add_bytes(std::size_t n) { bytes_ += n; }

  /// Folds another attempt's costs into this ledger (device profile is kept
  /// from *this). Retry loops merge every attempt so a request's ledger
  /// reflects everything it really paid, failed attempts included.
  void merge(const CostLedger& other) {
    local_ms_ += other.local_ms_;
    network_ms_ += other.network_ms_;
    wait_ms_ += other.wait_ms_;
    bytes_ += other.bytes_;
  }

  [[nodiscard]] double local_ms() const { return local_ms_; }
  [[nodiscard]] double network_ms() const { return network_ms_; }
  [[nodiscard]] double wait_ms() const { return wait_ms_; }
  [[nodiscard]] double total_ms() const { return local_ms_ + network_ms_ + wait_ms_; }
  [[nodiscard]] std::size_t bytes_transferred() const { return bytes_; }
  [[nodiscard]] const DeviceProfile& device() const { return device_; }

 private:
  DeviceProfile device_;
  double local_ms_ = 0;
  double network_ms_ = 0;
  double wait_ms_ = 0;
  std::size_t bytes_ = 0;
};

// The per-request-copy contract above only holds while ledgers stay freely
// copyable values; adding a lock or reference member would break it.
static_assert(std::is_copy_constructible_v<CostLedger> && std::is_copy_assignable_v<CostLedger>,
              "CostLedger must stay a per-request copyable value type");

}  // namespace sp::net
