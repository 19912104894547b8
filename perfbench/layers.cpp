// Per-layer attribution: counter deltas, span self time, and unit probes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "bench.hpp"
#include "crypto/modes.hpp"
#include "ec/pairing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"
#include "sss/shamir.hpp"

namespace perfbench {

namespace obs = sp::obs;
using Clock = std::chrono::steady_clock;

namespace {

// Phases whose sp_phase_latency_ms series the traced run reads as sum/count
// means (never as percentiles: the family's first bucket is 50 us wide).
const char* const kPhases[] = {"c1.upload",      "c1.sign",   "c2.upload",
                               "c2.reconstruct", "c2.keygen", "c2.decrypt"};

void put_hist(Counters& c, const std::string& key, obs::Histogram& h) {
  c.v[key + ".sum_ms"] = h.sum_ms();
  c.v[key + ".count"] = static_cast<double>(h.count());
}

/// Median wall time per call of `fn` over `reps` calls, in ns.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    const auto t1 = Clock::now();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  return median_of(std::move(ns));
}

}  // namespace

Counters Counters::read() {
  auto& reg = obs::MetricsRegistry::global();
  const auto bounds = obs::Histogram::default_latency_bounds_ms();
  Counters c;
  for (const char* phase : kPhases) {
    put_hist(c, std::string("phase.") + phase,
             reg.histogram("sp_phase_latency_ms", "", bounds, {{"phase", phase}}));
  }
  put_hist(c, "multi_pairing", reg.histogram("crypto_multi_pairing_ms", "", bounds));
  put_hist(c, "fsync", reg.histogram("sp_storage_fsync_ms", "", bounds));
  auto count = [&](const std::string& key, const std::string& name, const obs::Labels& labels) {
    c.v[key] = static_cast<double>(reg.counter(name, "", labels).value());
  };
  count("verify_jobs", "sp_verify_jobs_total", {});
  count("verify_batches", "sp_verify_batches_total", {});
  count("pairs", "crypto_multi_pairing_pairs_total", {});
  count("miller_hits", "crypto_miller_table_hits_total", {});
  count("miller_builds", "crypto_miller_table_builds_total", {});
  count("lagrange_hits", "sss_lagrange_cache_hits_total", {});
  count("lagrange_builds", "sss_lagrange_cache_builds_total", {});
  count("observe", "osn_sp_requests_total", {{"op", "observe"}});
  count("wal_appends", "sp_storage_wal_appends_total", {});
  count("wal_batches", "sp_storage_wal_batches_total", {});
  count("wal_bytes", "sp_storage_wal_bytes_total", {});
  count("transfers", "net_transfers_total", {});
  count("overwritten_recent", "sp_traces_overwritten_total", {{"ring", "recent"}});
  count("overwritten_kept", "sp_traces_overwritten_total", {{"ring", "kept"}});
  count("spans_dropped", "sp_trace_spans_dropped_total", {});
  // State gauges: meaningful only while the session is live.
  c.v["sp_observations"] = static_cast<double>(reg.gauge("osn_sp_observations").value());
  c.v["dh_bytes"] = static_cast<double>(reg.gauge("osn_dh_bytes").value());
  return c;
}

double Counters::delta(const Counters& before, const std::string& key) const {
  return v.at(key) - before.v.at(key);
}

void Counters::add_delta(const Counters& before, const Counters& after) {
  for (const auto& [key, value] : after.v) v[key] += value - before.v.at(key);
}

double Counters::get(const std::string& key) const {
  const auto it = v.find(key);
  return it == v.end() ? 0 : it->second;
}

const SpanTotals::Entry& SpanTotals::get(const std::string& name) const {
  static const Entry kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

double SpanTotals::mean_ms(const std::string& name) const {
  const Entry& e = get(name);
  return e.count == 0 ? 0 : e.total_ms / static_cast<double>(e.count);
}

TraceCollector::TraceCollector() : thread_([this] {
  // Drained far more often than the rings (sized in main) can fill.
  while (!stop_.load()) {
    absorb();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}) {}

TraceCollector::~TraceCollector() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

SpanTotals TraceCollector::finish() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  absorb();
  return totals_;
}

void TraceCollector::absorb() {
  const std::vector<obs::TraceData> traces = obs::Tracer::global().drain();
  for (const obs::PhaseStat& stat : obs::phase_breakdown(traces)) {
    SpanTotals::Entry& e = totals_.by_name[stat.name];
    e.count += stat.count;
    e.total_ms += stat.total_ms;
    e.self_ms += stat.self_ms;
  }
}

Probes run_probes(const sp::ec::Curve& curve, std::size_t k, std::size_t object_bytes,
                  std::uint64_t seed) {
  Drbg rng("perfbench-probes-" + std::to_string(seed));
  Probes p;
  const auto& fp = curve.fp();

  // field: chained products, so no call can be folded or reordered away.
  {
    const sp::field::Fp b = sp::field::Fp::random_nonzero(fp, rng);
    sp::field::Fp a = sp::field::Fp::random_nonzero(fp, rng);
    constexpr int kMuls = 4000;
    p.field_mul_ns = median_ns(9, [&](int) {
                       for (int i = 0; i < kMuls; ++i) a = a * b;
                     }) /
                     kMuls;
    constexpr int kInvs = 50;
    p.field_inv_us = median_ns(9, [&](int) {
                       for (int i = 0; i < kInvs; ++i) a = a.inv() + b;
                     }) /
                     kInvs / 1e3;
  }

  // ec: fresh points, so neither a fixed-base nor a Miller-line table hits.
  {
    std::vector<sp::ec::Point> pts;
    for (int i = 0; i < 18; ++i) pts.push_back(curve.random_group_element(rng));
    const sp::ec::Pairing pairing(curve);
    sp::field::Fp2 acc = pairing.one();
    p.pairing_ms = median_ns(9, [&](int i) { acc = acc * pairing(pts[i], pts[i + 9]); }) / 1e6;
    std::vector<sp::crypto::BigInt> scalars;
    for (int i = 0; i < 17; ++i) {
      scalars.push_back(sp::crypto::BigInt::from_bytes(rng.bytes(20)).mod(curve.order()));
    }
    sp::ec::Point sink;
    p.scalar_mul_us =
        median_ns(17, [&](int i) { sink = curve.mul(pts[i % pts.size()], scalars[i]); }) / 1e3;
  }

  // sss: a fresh polynomial per call, so every reconstruct builds its basis.
  {
    const sp::sss::Shamir shamir(fp);
    const std::size_t n = std::max<std::size_t>(k, 2);
    std::vector<std::vector<sp::sss::Share>> sets;
    const sp::crypto::BigInt secret = sp::crypto::BigInt::from_bytes(rng.bytes(32));
    for (int i = 0; i < 15; ++i) {
      auto shares = shamir.split(secret, k, n, rng);
      shares.resize(k);
      sets.push_back(std::move(shares));
    }
    const sp::crypto::BigInt want = secret.mod(fp->p());
    p.sss_reconstruct_us =
        median_ns(15, [&](int i) { p.ok = p.ok && shamir.reconstruct(sets[i]) == want; }) / 1e3;
  }

  // crypto: the DEM (AES-CBC + HMAC-SHA256 envelope) at 64 KiB.
  {
    const Bytes key = rng.bytes(32);
    const Bytes iv = rng.bytes(16);
    auto rate = [](double bytes, double ns) { return bytes / 1e6 / (ns / 1e9); };
    const Bytes big = rng.bytes(64 * 1024);
    Bytes sealed;
    const double seal_ns = median_ns(5, [&](int) { sealed = sp::crypto::seal(key, iv, big); });
    const double open_ns =
        median_ns(5, [&](int) { p.ok = p.ok && sp::crypto::open(key, sealed) == big; });
    p.seal_mb_s = rate(static_cast<double>(big.size()), seal_ns);
    p.open_mb_s = rate(static_cast<double>(big.size()), open_ns);
    const Bytes obj = rng.bytes(object_bytes);
    const Bytes obj_sealed = sp::crypto::seal(key, iv, obj);
    p.open_object_ms =
        median_ns(9, [&](int) { p.ok = p.ok && sp::crypto::open(key, obj_sealed) == obj; }) / 1e6;
  }
  return p;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double median_of(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace perfbench
