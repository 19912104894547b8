// Fault-sweep load generator (PR 5).
//
// Drives an 8-thread mixed C1/C2 serving load (one receiver per thread)
// through the seeded fault-injection layer at uniform fault rates
// {0, 1%, 5%, 10%}, with the session's RetryPolicy absorbing transient
// faults. Per the fault determinism contract, thread t exclusively drives
// receiver t, so every (receiver, post) request series is issued from one
// thread in order and the fault schedule replays byte-for-byte per seed.
//
// Reported per rate: throughput, success rate, outcome split
// (granted / denied / deadline-exceeded), mean serving attempts, per-kind
// injected-fault counts, and latency percentiles where each request's
// latency = measured processing wall time + the modeled network *and*
// fault/backoff wait, accounted on seeded per-worker virtual wire clocks
// (fig10_common.hpp: VirtualWireClocks) instead of slept off — so the
// throughput a fault rate costs is reproducible per seed, not a function
// of scheduler oversleep on the CI runner.
//
// The retry-overhead A/B isolates what the retry layer itself costs when
// nothing fails: 8 threads, wire waits off, access_with_retries on an
// armed-but-silent injector (uniform rate 0) versus plain access() on a
// fault-free session — the PR 4 serving path. Acceptance bar: < 2%.
//
// Writes the sweep + overhead + a full metrics snapshot to BENCH_PR5.json.
//
// Usage: bench_fault_sweep [--quick] [--out PATH]
//   --quick  test preset, fewer requests (CI smoke; wire is virtual, so the
//            quick preset no longer compresses it)
//   --out    JSON output path (default BENCH_PR5.json)
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "fig10_common.hpp"
#include "obs/metrics.hpp"

namespace {

using sp::core::AccessResult;
using sp::core::Context;
using sp::core::Knowledge;
using sp::core::Session;
using sp::core::SessionConfig;
using sp::crypto::to_bytes;

constexpr std::size_t kThreads = 8;

struct BenchConfig {
  sp::ec::ParamPreset preset = sp::ec::ParamPreset::kFull;  // the 512-bit preset
  const char* preset_name = "full-512bit";
  std::size_t requests_per_thread = 25;  // 200 requests per rate
  double wire_scale = 1.0;   // fraction of modeled network+wait on the virtual wire clock
  int overhead_reps = 3;     // alternated on/off pairs in the retry-overhead A/B
  std::size_t overhead_tile = 2;  // A/B stream = tile x the sweep stream
  std::string out_path = "BENCH_PR5.json";
};

/// One per-rate serving universe: its own session (own fault schedule and
/// injector counters), one sharer, kThreads receiver friends, one C1 and one
/// C2 post at k = 2.
struct Rig {
  explicit Rig(double rate, const BenchConfig& bench) {
    SessionConfig cfg;
    cfg.pairing_preset = bench.preset;
    cfg.seed = "bench-pr5";
    if (rate >= 0) cfg.faults = sp::net::FaultPlan::uniform(rate, "bench-pr5-sweep");
    cfg.retry.max_attempts = 5;
    session = std::make_unique<Session>(cfg);
    sharer = session->register_user("sharer");
    for (std::size_t i = 0; i < kThreads; ++i) {
      receivers.push_back(session->register_user("receiver-" + std::to_string(i)));
      session->befriend(sharer, receivers.back());
    }
    ctx = Context({{"Where did we meet?", "Paris"},
                   {"What did we eat?", "pizza"},
                   {"Who hosted?", "Alice"},
                   {"Which month?", "June"}});
    c1_object = to_bytes("the shared event photo, say 100 bytes of payload padding......");
    c2_object = c1_object;
    c1_post = session->share_c1(sharer, c1_object, ctx, 2, 4, sp::net::pc_profile()).post_id;
    c2_post = session->share_c2(sharer, c2_object, ctx, 2, sp::net::pc_profile()).post_id;
  }

  std::unique_ptr<Session> session;
  sp::osn::UserId sharer = 0;
  std::vector<sp::osn::UserId> receivers;
  Context ctx;
  sp::crypto::Bytes c1_object, c2_object;
  std::string c1_post, c2_post;
};

struct RateStats {
  double fault_rate = 0;
  std::size_t issued = 0;
  std::size_t granted = 0;
  std::size_t denied = 0;
  std::size_t deadline = 0;
  std::uint64_t attempts = 0;
  double wall_ms = 0;              // real elapsed time of the (sleep-free) run
  double virtual_makespan_ms = 0;  // slowest worker's processing + virtual wire
  double throughput_rps = 0;       // requests per second of virtual makespan
  sp::bench::LatencySummary latency;
  std::array<std::uint64_t, sp::net::kFaultKindCount> injected{};

  [[nodiscard]] double success_rate() const {
    return issued == 0 ? 0.0 : static_cast<double>(granted) / static_cast<double>(issued);
  }
  [[nodiscard]] double mean_attempts() const {
    return issued == 0 ? 0.0 : static_cast<double>(attempts) / static_cast<double>(issued);
  }
};

/// One load run: thread t drives receiver t through `per_thread` requests
/// (7/8 C1, 1/8 C2), with retries iff `with_retries`. Each worker accounts
/// its request's modeled network + fault/backoff wait (scaled by
/// `wire_scale`) on its virtual wire clock, so throughput reflects what the
/// faults actually cost without paying or mis-measuring real sleeps.
RateStats run_load(const Rig& rig, std::size_t per_thread, double wire_scale,
                   bool with_retries) {
  sp::obs::MetricsRegistry run_registry;
  sp::obs::Histogram& latency = run_registry.histogram(
      "bench_request_latency_ms", "Per-request latency (processing + modeled waits)",
      sp::obs::Histogram::exponential_bounds(0.1, 1.3, 45));

  std::atomic<std::size_t> granted{0}, denied{0}, deadline{0};
  std::atomic<std::uint64_t> attempts{0};
  sp::bench::VirtualWireClocks clocks(kThreads);
  const Knowledge knows = Knowledge::full(rig.ctx);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::string& post = (i % 8 == 7) ? rig.c2_post : rig.c1_post;
        const auto start = std::chrono::steady_clock::now();
        const AccessResult result =
            with_retries
                ? rig.session->access_with_retries(rig.receivers[t], post, knows,
                                                   sp::net::pc_profile(), /*max_draws=*/4)
                : rig.session->access(rig.receivers[t], post, knows, sp::net::pc_profile());
        const double proc_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                .count();
        // Network time and fault/backoff waits both hold the receiver's
        // socket open; charging them to the worker's virtual clock is what
        // makes the sweep's throughput numbers mean something.
        const double wire_ms =
            (result.cost.network_ms() + result.cost.wait_ms()) * wire_scale;
        clocks.advance(t, proc_ms + wire_ms);
        latency.observe(proc_ms + wire_ms);
        attempts.fetch_add(static_cast<std::uint64_t>(result.attempts),
                           std::memory_order_relaxed);
        if (result.success()) {
          granted.fetch_add(1, std::memory_order_relaxed);
        } else if (result.error == sp::net::ServeError::kDeadlineExceeded) {
          deadline.fetch_add(1, std::memory_order_relaxed);
        } else {
          denied.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();

  RateStats stats;
  stats.issued = kThreads * per_thread;
  stats.granted = granted.load();
  stats.denied = denied.load();
  stats.deadline = deadline.load();
  stats.attempts = attempts.load();
  stats.wall_ms = wall_ms;
  stats.virtual_makespan_ms = clocks.makespan_ms();
  stats.throughput_rps =
      1000.0 * static_cast<double>(stats.issued) / stats.virtual_makespan_ms;
  stats.latency = sp::bench::summarize(latency);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cfg.preset = sp::ec::ParamPreset::kTest;
      cfg.preset_name = "test-256bit";
      cfg.requests_per_thread = 6;  // 48 requests per rate
      // Wire time is virtual now, so quick mode keeps the full modeled
      // delay — compressing it bought CI wall time back when it was slept.
      cfg.overhead_reps = 1;
      cfg.overhead_tile = 1;
    } else if (arg == "--out" && i + 1 < argc) {
      cfg.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.10};
  const std::size_t issued_per_rate = kThreads * cfg.requests_per_thread;

  std::printf("# Fault sweep: %zu threads x %zu requests/thread per rate (7:1 C1:C2), "
              "preset %s, wire x%.2f, retries max_attempts=5\n",
              kThreads, cfg.requests_per_thread, cfg.preset_name, cfg.wire_scale);
  std::printf("# %6s %8s %8s %8s %9s %9s %12s %9s %9s\n", "rate", "granted", "denied",
              "deadln", "success", "attempts", "thruput_rps", "p50_ms", "p99_ms");

  std::vector<RateStats> sweep;
  std::vector<Rig> rigs;
  rigs.reserve(rates.size());
  for (std::size_t r = 0; r < rates.size(); ++r) {
    rigs.emplace_back(rates[r], cfg);
    if (r == 0) {
      // Warmup on the silent rig: pre-faults the fixed-base tables so the
      // first timed run isn't penalized, and validates the catalog grants.
      const RateStats warm = run_load(rigs[0], 2, 0.0, /*with_retries=*/true);
      if (warm.granted != warm.issued) {
        std::fprintf(stderr, "warmup: only %zu/%zu requests succeeded\n", warm.granted,
                     warm.issued);
        return 1;
      }
    }
    RateStats s = run_load(rigs[r], cfg.requests_per_thread, cfg.wire_scale,
                           /*with_retries=*/true);
    s.fault_rate = rates[r];
    const sp::net::FaultInjector* injector = rigs[r].session->fault_injector();
    for (std::size_t k = 0; k < sp::net::kFaultKindCount; ++k) {
      s.injected[k] = injector ? injector->injected(static_cast<sp::net::FaultKind>(k)) : 0;
    }
    if (s.granted + s.denied + s.deadline != s.issued) {
      std::fprintf(stderr, "rate %.2f: outcome split does not account for every request\n",
                   rates[r]);
      return 1;
    }
    std::printf("  %5.0f%% %8zu %8zu %8zu %8.2f%% %9.2f %12.2f %9.1f %9.1f\n",
                100.0 * rates[r], s.granted, s.denied, s.deadline, 100.0 * s.success_rate(),
                s.mean_attempts(), s.throughput_rps, s.latency.p50_ms, s.latency.p99_ms);
    sweep.push_back(std::move(s));
  }

  // Acceptance bars the sweep itself can check (deterministic per seed):
  // a silent schedule must not fail anything, and 5-attempt retries must
  // absorb a 1% fault rate to >= 99.5% end-to-end success.
  if (sweep[0].granted != sweep[0].issued) {
    std::fprintf(stderr, "rate 0: %zu/%zu granted — silent faults broke the clean path\n",
                 sweep[0].granted, sweep[0].issued);
    return 1;
  }
  if (sweep[1].success_rate() < 0.995) {
    std::fprintf(stderr, "rate 1%%: success rate %.4f is below the 99.5%% bar\n",
                 sweep[1].success_rate());
    return 1;
  }

  // -- Retry-layer overhead A/B ------------------------------------------
  // Wire waits off so the comparison is pure processing; the retries arm
  // keeps its armed-but-silent injector (rate 0) so the measured cost
  // includes the fault-tape draws a production deployment would pay. Both
  // arms alternate first per pair and keep their best-of to shed outliers.
  Rig plain_rig(-1.0, cfg);  // faults = nullopt: the PR 4 serving path
  const std::size_t ab_per_thread = cfg.requests_per_thread * cfg.overhead_tile;
  run_load(plain_rig, ab_per_thread, 0.0, /*with_retries=*/false);  // warm
  run_load(rigs[0], ab_per_thread, 0.0, /*with_retries=*/true);
  double retries_ms = 1e300;
  double plain_ms = 1e300;
  for (int rep = 0; rep < cfg.overhead_reps; ++rep) {
    const bool retries_first = (rep % 2 == 0);
    for (const bool arm_retries : {retries_first, !retries_first}) {
      double& best = arm_retries ? retries_ms : plain_ms;
      const Rig& rig = arm_retries ? rigs[0] : plain_rig;
      best = std::min(best, run_load(rig, ab_per_thread, 0.0, arm_retries).wall_ms);
    }
  }
  const double overhead_pct = 100.0 * (retries_ms - plain_ms) / plain_ms;
  std::printf("# retry-layer overhead @8 threads (wire off, %zu reqs): retries %.1f ms, "
              "plain %.1f ms, %.2f%%\n",
              kThreads * ab_per_thread, retries_ms, plain_ms, overhead_pct);

  auto& global = sp::obs::MetricsRegistry::global();
  if (global.series_count() == 0) {
    std::fprintf(stderr, "global metrics snapshot is empty — instrumentation did not record\n");
    return 1;
  }

  std::FILE* out = std::fopen(cfg.out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", cfg.out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_fault_sweep\",\n");
  std::fprintf(out, "  \"preset\": \"%s\",\n", cfg.preset_name);
  std::fprintf(out, "  \"threads\": %zu,\n", kThreads);
  std::fprintf(out, "  \"requests_per_rate\": %zu,\n", issued_per_rate);
  std::fprintf(out, "  \"traffic_mix\": \"7/8 C1, 1/8 C2\",\n");
  std::fprintf(out, "  \"wire_scale\": %.2f,\n", cfg.wire_scale);
  std::fprintf(out,
               "  \"latency_model\": \"measured processing wall time + simnet network delay "
               "and fault/backoff waits accounted on seeded per-worker virtual wire clocks "
               "(no wall-clock sleeps; throughput = requests / virtual makespan)\",\n");
  std::fprintf(out, "  \"retry_policy\": {\"max_attempts\": 5, \"base_backoff_ms\": 25.0, "
                    "\"backoff_factor\": 2.0, \"max_backoff_ms\": 1000.0, "
                    "\"jitter_frac\": 0.25, \"deadline_ms\": 15000.0},\n");
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RateStats& s = sweep[i];
    std::fprintf(out,
                 "    {\"fault_rate\": %.2f, \"issued\": %zu, \"granted\": %zu, "
                 "\"denied\": %zu, \"deadline_exceeded\": %zu, \"success_rate\": %.4f, "
                 "\"mean_attempts\": %.3f,\n     \"faults_injected\": {",
                 s.fault_rate, s.issued, s.granted, s.denied, s.deadline, s.success_rate(),
                 s.mean_attempts());
    for (std::size_t k = 0; k < sp::net::kFaultKindCount; ++k) {
      std::fprintf(out, "\"%s\": %llu%s", to_string(static_cast<sp::net::FaultKind>(k)),
                   static_cast<unsigned long long>(s.injected[k]),
                   k + 1 < sp::net::kFaultKindCount ? ", " : "");
    }
    std::fprintf(out,
                 "},\n     \"wall_ms\": %.1f, \"virtual_makespan_ms\": %.1f, "
                 "\"throughput_rps\": %.2f, \"p50_ms\": %.1f, "
                 "\"p95_ms\": %.1f, \"p99_ms\": %.1f, \"max_ms\": %.1f}%s\n",
                 s.wall_ms, s.virtual_makespan_ms, s.throughput_rps, s.latency.p50_ms,
                 s.latency.p95_ms,
                 s.latency.p99_ms, s.latency.max_ms, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"success_rate_at_1pct\": %.4f,\n", sweep[1].success_rate());
  std::fprintf(out, "  \"retry_overhead\": {\n");
  std::fprintf(out, "    \"threads\": %zu,\n    \"wire_scale\": 0.0,\n", kThreads);
  std::fprintf(out, "    \"requests\": %zu,\n", kThreads * ab_per_thread);
  std::fprintf(out, "    \"ab_pairs\": %d,\n", cfg.overhead_reps);
  std::fprintf(out, "    \"retries_wall_ms\": %.2f,\n", retries_ms);
  std::fprintf(out, "    \"plain_access_wall_ms\": %.2f,\n", plain_ms);
  std::fprintf(out, "    \"overhead_pct\": %.2f\n  },\n", overhead_pct);
  std::fprintf(out, "  \"metrics\": %s\n}\n", global.to_json().c_str());
  std::fclose(out);
  std::printf("# wrote %s\n", cfg.out_path.c_str());
  return 0;
}
