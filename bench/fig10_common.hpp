// Shared harness for the Figure 10 reproduction binaries.
//
// Paper experimental setup (§VIII): message length 100 characters, answers
// 20 characters, questions 50 characters, threshold k = 1, N (number of
// context pairs) varying; CP-ABE needs >= 2 leaves so observations start at
// N = 2. Delay is decomposed into local processing and network (including
// server-side handling). PC vs Nexus-7-tablet panels differ only in the
// device profile's CPU scaling.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"

namespace sp::bench {

namespace net = sp::net;  // lets bench mains say net::pc_profile()

using core::Context;
using core::Knowledge;
using core::Session;
using core::SessionConfig;

/// Paper workload: N pairs, 50-char questions, 20-char answers.
inline Context paper_context(std::size_t n, crypto::Drbg& rng) {
  Context ctx;
  for (std::size_t i = 0; i < n; ++i) {
    std::string q = "q" + std::to_string(i) + ":";
    while (q.size() < 50) q.push_back(static_cast<char>('a' + rng.uniform(26)));
    std::string a;
    while (a.size() < 20) a.push_back(static_cast<char>('a' + rng.uniform(26)));
    ctx.add(q, a);
  }
  return ctx;
}

/// Paper workload: 100-character message.
inline crypto::Bytes paper_message(crypto::Drbg& rng) {
  crypto::Bytes msg(100);
  for (auto& b : msg) b = static_cast<std::uint8_t>('A' + rng.uniform(26));
  return msg;
}

/// Percentile summary of a latency histogram: what the load benches report
/// instead of sorting raw sample vectors. Percentiles are the histogram's
/// bucket-interpolated estimates, so a bench and a production scrape of the
/// same instrument agree by construction.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

inline LatencySummary summarize(const obs::Histogram& hist) {
  LatencySummary s;
  s.count = hist.count();
  if (s.count > 0) s.mean_ms = hist.sum_ms() / static_cast<double>(s.count);
  s.p50_ms = hist.percentile(0.50);
  s.p95_ms = hist.percentile(0.95);
  s.p99_ms = hist.percentile(0.99);
  s.max_ms = hist.max_ms();
  return s;
}

struct Sample {
  double local_ms = 0;
  double network_ms = 0;
  std::size_t bytes = 0;

  [[nodiscard]] double total_ms() const { return local_ms + network_ms; }
};

/// Averages `trials` runs of one (construction, role, device) cell.
struct Cell {
  Sample sharer;
  Sample receiver;
};

enum class Scheme { kC1, kC2 };

/// One full share+access run; returns the sharer and receiver ledgers.
inline Cell run_once(Scheme scheme, std::size_t n, std::size_t k,
                     const net::DeviceProfile& device, const std::string& seed) {
  SessionConfig cfg;
  cfg.pairing_preset = ec::ParamPreset::kFull;  // the paper's 512-bit scale
  cfg.seed = seed;
  Session session(cfg);
  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);

  crypto::Drbg wl(seed + "-workload");
  const Context ctx = paper_context(n, wl);
  const crypto::Bytes msg = paper_message(wl);

  const auto receipt = scheme == Scheme::kC1
                           ? session.share_c1(sharer, msg, ctx, k, n, device)
                           : session.share_c2(sharer, msg, ctx, k, device);
  const auto result = session.access(receiver, receipt.post_id, Knowledge::full(ctx), device);
  if (!result.success()) {
    std::fprintf(stderr, "fig10 harness: access unexpectedly failed (n=%zu)\n", n);
  }
  Cell cell;
  cell.sharer = {receipt.cost.local_ms(), receipt.cost.network_ms(),
                 receipt.cost.bytes_transferred()};
  cell.receiver = {result.cost.local_ms(), result.cost.network_ms(),
                   result.cost.bytes_transferred()};
  return cell;
}

/// Averaged cell over `trials` independent seeds, plus total-delay stddev —
/// the paper remarks on measurement "instability ... due to the
/// unpredictability of the communication network speed", so we report it.
struct AvgCell {
  Cell mean;
  double sharer_total_sd = 0;
  double receiver_total_sd = 0;
};

inline AvgCell run_avg(Scheme scheme, std::size_t n, std::size_t k,
                       const net::DeviceProfile& device, const std::string& tag, int trials) {
  AvgCell out;
  std::vector<double> sharer_totals, receiver_totals;
  for (int t = 0; t < trials; ++t) {
    const Cell c = run_once(scheme, n, k, device, tag + "-t" + std::to_string(t));
    out.mean.sharer.local_ms += c.sharer.local_ms / trials;
    out.mean.sharer.network_ms += c.sharer.network_ms / trials;
    out.mean.sharer.bytes += c.sharer.bytes / static_cast<std::size_t>(trials);
    out.mean.receiver.local_ms += c.receiver.local_ms / trials;
    out.mean.receiver.network_ms += c.receiver.network_ms / trials;
    out.mean.receiver.bytes += c.receiver.bytes / static_cast<std::size_t>(trials);
    sharer_totals.push_back(c.sharer.total_ms());
    receiver_totals.push_back(c.receiver.total_ms());
  }
  auto stddev = [](const std::vector<double>& xs) {
    if (xs.size() < 2) return 0.0;
    double mean = 0;
    for (double x : xs) mean += x / static_cast<double>(xs.size());
    double var = 0;
    for (double x : xs) var += (x - mean) * (x - mean) / static_cast<double>(xs.size() - 1);
    return std::sqrt(var);
  };
  out.sharer_total_sd = stddev(sharer_totals);
  out.receiver_total_sd = stddev(receiver_totals);
  return out;
}

}  // namespace sp::bench
