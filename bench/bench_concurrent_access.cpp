// Concurrent serving-core load generator (PR 3) + instrumentation overhead
// measurement (PR 4).
//
// Models the paper's deployment front-end under receiver load: a fixed
// catalog of posts (mixed Construction 1 / Construction 2), a stream of
// access requests fanned over 1/2/4/8 worker threads, and per-request
// latency = measured processing wall time + the simnet-modeled network
// delay, which each worker accounts on a seeded VIRTUAL wire clock
// (fig10_common.hpp: VirtualWireClocks) rather than sleeping it off — the
// modeled delay is deterministic per seed, so the virtual makespan is
// reproducible where a sleep-paced run inherited scheduler jitter and CI
// oversleep. The serving reality measured is unchanged: receiver requests
// are network-dominated, so a thread-safe core overlaps many in-flight
// requests' wire waits even when their crypto serializes on few cores —
// which is exactly what per-worker clocks + max-over-workers makespan
// compute.
//
// Latency percentiles come from an obs::Histogram (a private per-run
// registry), not from sorting raw sample vectors — the bench reports exactly
// what a production scrape of the same instrument would report.
//
// The PR 4 section A/Bs the 8-thread run with the global MetricsRegistry
// recording vs no-op (wire waits off, so pure processing is compared) and
// reports the relative overhead; the acceptance bar is < 2%.
//
// The PR 7 section splits the latency series per scheme (the acceptance bar
// for the batch-verify pipeline is on C2 access latency specifically, and a
// 7:1 mix would bury it in the aggregate), separating measured processing
// time from the modeled wire wait so the crypto-path improvement is visible
// next to the network floor.
//
// The PR 8 section A/Bs durability: two fresh sessions with identical crypto
// config — one in-memory, one WAL-backed (fsync=batch) on a throwaway
// directory — serve the same mixed read/write stream (every 4th operation is
// an upload-path write) at 8 threads. Acceptance: the WAL arm's p50 within
// 1.25x of the in-memory p50.
//
// The PR 9 section A/Bs the request-lifecycle tracer: wire off, tracer
// disabled vs enabled at 1% head sampling (the production posture).
// Acceptance: <= 2% overhead at 1% sampling; the disabled arm is the
// baseline because a disabled tracer's fast path is a single relaxed atomic
// load per would-be span. See the section comment for why it runs one
// worker thread and reports a paired-median delta.
//
// Reports aggregate throughput and p50/p95/p99 latency per thread count and
// writes the series + overheads + the WAL A/B + a full metrics snapshot to
// BENCH_PR9.json.
//
// Usage: bench_concurrent_access [--quick] [--out PATH]
//   --quick  test preset, fewer requests (CI smoke; wire is virtual, so the
//            quick preset no longer compresses it)
//   --out    JSON output path (default BENCH_PR9.json)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "fig10_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using sp::core::AccessResult;
using sp::core::Context;
using sp::core::Knowledge;
using sp::core::Session;
using sp::core::SessionConfig;
using sp::crypto::to_bytes;

struct BenchConfig {
  sp::ec::ParamPreset preset = sp::ec::ParamPreset::kFull;  // the 512-bit preset
  const char* preset_name = "full-512bit";
  std::size_t requests = 48;
  double wire_scale = 1.0;      // fraction of modeled network delay on the virtual wire clock
  int overhead_reps = 6;        // alternated on/off pairs in the overhead A/B
  std::size_t overhead_tile = 4;  // A/B request stream = tile x the scaling stream
  std::string out_path = "BENCH_PR9.json";
};

struct RunStats {
  std::size_t threads = 0;
  std::size_t requests = 0;
  std::size_t granted = 0;
  double wall_ms = 0;            // real elapsed time of the (sleep-free) run
  double virtual_makespan_ms = 0;  // slowest worker's processing + virtual wire
  double throughput_rps = 0;       // requests per second of virtual makespan
  sp::bench::LatencySummary latency;
  // Per-scheme split: total = processing + modeled wire, proc = processing
  // only. The C2 rows are the batch-verify pipeline's acceptance series.
  sp::bench::LatencySummary c1_total, c1_proc;
  sp::bench::LatencySummary c2_total, c2_proc;
};

/// One load run: `threads` workers drain the shared request stream. Request
/// latencies land in a run-private registry histogram; the returned summary
/// is that histogram's view. `is_c2[i]` routes request i's samples to the
/// per-scheme histograms (empty = skip the per-scheme split).
RunStats run_load(const Session& session, const std::vector<Session::AccessRequest>& requests,
                  std::size_t threads, double wire_scale,
                  const std::vector<bool>& is_c2 = {}) {
  // Fine-grained bounds (0.1 ms .. ~10 s, x1.3 steps) so interpolated p99
  // has useful resolution; the private registry keeps bench samples out of
  // the serving snapshot.
  sp::obs::MetricsRegistry run_registry;
  const auto bounds = sp::obs::Histogram::exponential_bounds(0.1, 1.3, 45);
  sp::obs::Histogram& latency = run_registry.histogram(
      "bench_request_latency_ms", "Per-request latency (processing + realized wire wait)",
      bounds);
  sp::obs::Histogram& c1_total = run_registry.histogram(
      "bench_c1_latency_ms", "C1 request latency (processing + wire)", bounds);
  sp::obs::Histogram& c1_proc = run_registry.histogram(
      "bench_c1_proc_ms", "C1 request processing time", bounds);
  sp::obs::Histogram& c2_total = run_registry.histogram(
      "bench_c2_latency_ms", "C2 request latency (processing + wire)", bounds);
  sp::obs::Histogram& c2_proc = run_registry.histogram(
      "bench_c2_proc_ms", "C2 request processing time", bounds);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> granted{0};
  sp::bench::VirtualWireClocks clocks(threads);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        const auto& req = requests[i];
        const auto start = std::chrono::steady_clock::now();
        const AccessResult result = session.access(req.receiver, req.post_id, req.knowledge,
                                                   req.device);
        const double proc_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                .count();
        // The modeled wire time keeps this worker "on the socket" — it goes
        // on the worker's virtual clock (not a real sleep), which is what
        // lets the makespan reflect overlapped in-flight requests.
        const double wire_ms = result.cost.network_ms() * wire_scale;
        clocks.advance(t, proc_ms + wire_ms);
        latency.observe(proc_ms + wire_ms);
        if (!is_c2.empty()) {
          (is_c2[i] ? c2_total : c1_total).observe(proc_ms + wire_ms);
          (is_c2[i] ? c2_proc : c1_proc).observe(proc_ms);
        }
        if (result.success()) granted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();

  RunStats stats;
  stats.threads = threads;
  stats.requests = requests.size();
  stats.granted = granted.load();
  stats.wall_ms = wall_ms;
  stats.virtual_makespan_ms = clocks.makespan_ms();
  stats.throughput_rps =
      1000.0 * static_cast<double>(requests.size()) / stats.virtual_makespan_ms;
  stats.latency = sp::bench::summarize(latency);
  stats.c1_total = sp::bench::summarize(c1_total);
  stats.c1_proc = sp::bench::summarize(c1_proc);
  stats.c2_total = sp::bench::summarize(c2_total);
  stats.c2_proc = sp::bench::summarize(c2_proc);
  return stats;
}

/// Process CPU time in milliseconds. The tracing A/B compares on this, not
/// wall time: tracer overhead is pure CPU work, and on a shared runner wall
/// time carries steal/frequency noise an order of magnitude larger than the
/// effect being measured.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1000.0 * static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Catalog {
  std::vector<sp::osn::UserId> receivers;
  std::vector<std::string> c1_posts;
  std::vector<std::string> c2_posts;
};

/// The standard bench catalog: one sharer, 8 receiver friends, 6 C1 posts +
/// 2 C2 posts of the same object. Factored out so the PR 8 durability A/B
/// can build identical catalogs in fresh sessions.
Catalog build_catalog(Session& session, const Context& ctx, const sp::crypto::Bytes& object) {
  Catalog cat;
  const auto sharer = session.register_user("sharer");
  for (int i = 0; i < 8; ++i) {
    cat.receivers.push_back(session.register_user("receiver-" + std::to_string(i)));
    session.befriend(sharer, cat.receivers.back());
  }
  for (int i = 0; i < 6; ++i) {
    cat.c1_posts.push_back(
        session.share_c1(sharer, object, ctx, 2, 4, sp::net::pc_profile()).post_id);
  }
  for (int i = 0; i < 2; ++i) {
    cat.c2_posts.push_back(session.share_c2(sharer, object, ctx, 2, sp::net::pc_profile()).post_id);
  }
  return cat;
}

/// The 7/8 C1, 1/8 C2 request stream over a catalog — the paper's I1 is the
/// common path, I2 the heavy tail. Fully deterministic given the index.
std::vector<Session::AccessRequest> make_request_stream(const Catalog& cat, const Context& ctx,
                                                        std::size_t n,
                                                        std::vector<bool>* is_c2_out) {
  std::vector<Session::AccessRequest> requests(n);
  std::vector<bool> is_c2(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].receiver = cat.receivers[i % cat.receivers.size()];
    is_c2[i] = (i % 8 == 7);
    requests[i].post_id =
        is_c2[i] ? cat.c2_posts[i % cat.c2_posts.size()] : cat.c1_posts[i % cat.c1_posts.size()];
    requests[i].knowledge = Knowledge::full(ctx);
    requests[i].device = sp::net::pc_profile();
  }
  if (is_c2_out != nullptr) *is_c2_out = std::move(is_c2);
  return requests;
}

struct MixedRwStats {
  std::size_t ops = 0;
  std::size_t writes = 0;
  double wall_ms = 0;              // real elapsed time of the (sleep-free) run
  double virtual_makespan_ms = 0;  // slowest worker's processing + virtual wire
  double ops_per_sec = 0;          // operations per second of virtual makespan
  sp::bench::LatencySummary all, read, write;
};

/// PR 8 durability A/B load: the access stream with every 4th operation
/// replaced by a write — alternating DH blob store / SP record store, the
/// upload half of the serving mix. On a durable session store()/
/// store_record() return only once the mutation's WAL envelope is committed
/// per the fsync policy, so a WAL stall lands in exactly these samples.
/// Reads account their modeled wire wait on the virtual clock like run_load.
MixedRwStats run_mixed_rw(Session& session, const std::vector<Session::AccessRequest>& requests,
                          std::size_t threads, double wire_scale) {
  sp::obs::MetricsRegistry run_registry;
  const auto bounds = sp::obs::Histogram::exponential_bounds(0.01, 1.3, 55);
  sp::obs::Histogram& all = run_registry.histogram(
      "bench_mixed_rw_ms", "Mixed read/write op latency", bounds);
  sp::obs::Histogram& read = run_registry.histogram(
      "bench_mixed_read_ms", "Access latency within the mixed stream", bounds);
  sp::obs::Histogram& write = run_registry.histogram(
      "bench_mixed_write_ms", "Acknowledged-durable write latency", bounds);
  const auto payload =
      to_bytes("ciphertext-shaped upload payload: 64 bytes of filler padding..");

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> write_ops{0};
  std::atomic<std::size_t> failures{0};
  sp::bench::VirtualWireClocks clocks(threads);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        const auto start = std::chrono::steady_clock::now();
        if (i % 4 == 3) {
          if ((i / 4) % 2 == 0) {
            (void)session.storage_host().store(payload);
          } else {
            (void)session.service_provider().store_record(payload);
          }
          const double ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                  .count();
          clocks.advance(t, ms);
          all.observe(ms);
          write.observe(ms);
          write_ops.fetch_add(1, std::memory_order_relaxed);
        } else {
          const auto& req = requests[i];
          const AccessResult result =
              session.access(req.receiver, req.post_id, req.knowledge, req.device);
          const double proc_ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                  .count();
          const double wire_ms = result.cost.network_ms() * wire_scale;
          clocks.advance(t, proc_ms + wire_ms);
          all.observe(proc_ms + wire_ms);
          read.observe(proc_ms + wire_ms);
          if (!result.success()) failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();
  if (failures.load() != 0) {
    std::fprintf(stderr, "mixed rw: %zu accesses denied\n", failures.load());
    std::exit(1);
  }
  MixedRwStats s;
  s.ops = requests.size();
  s.writes = write_ops.load();
  s.wall_ms = wall_ms;
  s.virtual_makespan_ms = clocks.makespan_ms();
  s.ops_per_sec = 1000.0 * static_cast<double>(requests.size()) / s.virtual_makespan_ms;
  s.all = sp::bench::summarize(all);
  s.read = sp::bench::summarize(read);
  s.write = sp::bench::summarize(write);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cfg.preset = sp::ec::ParamPreset::kTest;
      cfg.preset_name = "test-256bit";
      cfg.requests = 16;
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

  SessionConfig session_cfg;
  session_cfg.pairing_preset = cfg.preset;
  session_cfg.seed = "bench-pr3";
  Session session(session_cfg);

  const Context ctx({{"Where did we meet?", "Paris"},
                     {"What did we eat?", "pizza"},
                     {"Who hosted?", "Alice"},
                     {"Which month?", "June"},
                     {"Which city hosted the afterparty?", "Lyon"}});
  const auto object = to_bytes("the shared event photo, say 100 bytes of payload padding......");
  const Catalog cat = build_catalog(session, ctx, object);

  std::vector<bool> is_c2;
  const std::vector<Session::AccessRequest> requests =
      make_request_stream(cat, ctx, cfg.requests, &is_c2);

  // Warmup + API validation: one access_parallel batch must grant everything
  // (it also pre-faults the fixed-base tables so run 1 isn't penalized).
  const auto warmup = session.access_parallel(requests, 4);
  std::size_t warm_ok = 0;
  for (const auto& r : warmup) warm_ok += r.success() ? 1 : 0;
  if (warm_ok != warmup.size()) {
    std::fprintf(stderr, "warmup: only %zu/%zu requests succeeded\n", warm_ok, warmup.size());
    return 1;
  }

  std::printf("# Concurrent access load: %zu requests (7:1 C1:C2), preset %s, wire x%.2f\n",
              cfg.requests, cfg.preset_name, cfg.wire_scale);
  std::printf("# %7s %9s %12s %9s %9s %9s\n", "threads", "vwall_ms", "thruput_rps", "p50_ms",
              "p95_ms", "p99_ms");
  std::vector<RunStats> series;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const RunStats s = run_load(session, requests, threads, cfg.wire_scale, is_c2);
    if (s.granted != s.requests) {
      std::fprintf(stderr, "run %zu threads: only %zu/%zu granted\n", threads, s.granted,
                   s.requests);
      return 1;
    }
    std::printf("  %7zu %9.1f %12.2f %9.1f %9.1f %9.1f\n", s.threads, s.virtual_makespan_ms,
                s.throughput_rps, s.latency.p50_ms, s.latency.p95_ms, s.latency.p99_ms);
    series.push_back(s);
  }
  const double speedup = series.back().throughput_rps / series.front().throughput_rps;
  std::printf("# aggregate throughput speedup, 8 threads vs 1: %.2fx\n", speedup);

  // -- PR 7: C2-focused latency series -----------------------------------
  // The mixed stream carries only 1/8 C2 traffic, too few samples for stable
  // C2 percentiles; this dedicated all-C2 stream (same catalog, same
  // session) is the acceptance series for the batch-verify pipeline. The
  // processing column isolates the crypto path from the modeled wire floor.
  const std::size_t c2_requests_n = std::max<std::size_t>(cfg.requests / 2, 8);
  std::vector<Session::AccessRequest> c2_stream(c2_requests_n);
  std::vector<bool> c2_flags(c2_requests_n, true);
  for (std::size_t i = 0; i < c2_requests_n; ++i) {
    c2_stream[i].receiver = cat.receivers[i % cat.receivers.size()];
    c2_stream[i].post_id = cat.c2_posts[i % cat.c2_posts.size()];
    c2_stream[i].knowledge = Knowledge::full(ctx);
    c2_stream[i].device = sp::net::pc_profile();
  }
  std::printf("# C2-only stream: %zu requests\n", c2_requests_n);
  std::printf("# %7s %9s %9s %9s %9s\n", "threads", "tot_p50", "tot_p95", "proc_p50",
              "proc_p95");
  std::vector<RunStats> c2_series;
  for (const std::size_t threads : {1u, 8u}) {
    const RunStats s = run_load(session, c2_stream, threads, cfg.wire_scale, c2_flags);
    if (s.granted != s.requests) {
      std::fprintf(stderr, "C2 run %zu threads: only %zu/%zu granted\n", threads, s.granted,
                   s.requests);
      return 1;
    }
    std::printf("  %7zu %9.1f %9.1f %9.1f %9.1f\n", s.threads, s.c2_total.p50_ms,
                s.c2_total.p95_ms, s.c2_proc.p50_ms, s.c2_proc.p95_ms);
    c2_series.push_back(s);
  }

  // -- PR 4: instrumentation overhead A/B --------------------------------
  // 8 threads, wire waits OFF: with sleeps in the loop the ~ns-scale
  // instrument cost would vanish under scheduler noise, so the comparison is
  // pure processing. The request stream is tiled longer than the scaling runs
  // so each arm runs long enough that OS jitter is well under a percent, the
  // arm that goes first alternates per pair (no warm/cold ordering bias), and
  // each arm keeps its best-of across all pairs to shed outliers.
  std::vector<Session::AccessRequest> ab_requests;
  ab_requests.reserve(requests.size() * cfg.overhead_tile);
  for (std::size_t rep = 0; rep < cfg.overhead_tile; ++rep) {
    ab_requests.insert(ab_requests.end(), requests.begin(), requests.end());
  }
  auto& global = sp::obs::MetricsRegistry::global();
  run_load(session, ab_requests, 8, 0.0);  // warm both arms' code + data
  double on_ms = 1e300;
  double off_ms = 1e300;
  for (int rep = 0; rep < cfg.overhead_reps; ++rep) {
    const bool on_first = (rep % 2 == 0);
    for (const bool arm_on : {on_first, !on_first}) {
      global.set_enabled(arm_on);
      double& best = arm_on ? on_ms : off_ms;
      best = std::min(best, run_load(session, ab_requests, 8, 0.0).wall_ms);
    }
  }
  global.set_enabled(true);
  const double overhead_pct = 100.0 * (on_ms - off_ms) / off_ms;
  std::printf("# instrumentation overhead @8 threads (wire off, %zu reqs): on %.1f ms, off %.1f ms, %.2f%%\n",
              ab_requests.size(), on_ms, off_ms, overhead_pct);

  // -- PR 9: tracing overhead A/B ----------------------------------------
  // Same discipline as the metrics A/B: the tiled stream, 8 threads, wire
  // waits off, alternated arm order, best-of per arm. The traced arm runs
  // the production posture — 1% head sampling — so 99% of requests pay only
  // the sampling draw and the 1% that record pay the full span tree. The
  // tracer is drained between runs so ring churn from one arm cannot bleed
  // into the next.
  auto& tracer = sp::obs::Tracer::global();
  {
    sp::obs::TracerConfig trace_cfg;
    trace_cfg.sample_probability = 0.01;
    trace_cfg.ring_slots = 1024;
    tracer.configure(trace_cfg);
  }
  // Methodology differs from the metrics A/B in two ways, both because the
  // expected delta here is ~0 and would drown in measurement noise:
  //  * one worker thread and process-CPU-time arms, not eight threads on
  //    wall time — the tracer's per-request cost is thread-count
  //    independent CPU work, and on a shared runner wall time carries
  //    steal/frequency noise (observed per-pair swings of +-18%) an order
  //    of magnitude larger than the effect;
  //  * a paired statistic instead of best-of — each pair runs its two arms
  //    back-to-back (ambient drift cancels within the pair, order
  //    alternates across pairs) and the reported overhead is the MEDIAN of
  //    the per-pair relative deltas.
  const int trace_reps = cfg.overhead_reps * 2;
  double trace_on_ms = 1e300;
  double trace_off_ms = 1e300;
  std::vector<double> trace_deltas_pct;
  for (int rep = 0; rep < trace_reps; ++rep) {
    const bool on_first = (rep % 2 == 0);
    double pair_ms[2];  // [0] = off arm, [1] = on arm
    for (const bool arm_on : {on_first, !on_first}) {
      tracer.set_enabled(arm_on);
      const double cpu_before = process_cpu_ms();
      run_load(session, ab_requests, 1, 0.0);
      pair_ms[arm_on ? 1 : 0] = process_cpu_ms() - cpu_before;
      tracer.set_enabled(false);
      (void)tracer.drain();
    }
    trace_on_ms = std::min(trace_on_ms, pair_ms[1]);
    trace_off_ms = std::min(trace_off_ms, pair_ms[0]);
    trace_deltas_pct.push_back(100.0 * (pair_ms[1] - pair_ms[0]) / pair_ms[0]);
  }
  tracer.configure(sp::obs::TracerConfig{});
  std::sort(trace_deltas_pct.begin(), trace_deltas_pct.end());
  const double trace_overhead_pct =
      trace_deltas_pct.size() % 2 == 1
          ? trace_deltas_pct[trace_deltas_pct.size() / 2]
          : 0.5 * (trace_deltas_pct[trace_deltas_pct.size() / 2 - 1] +
                   trace_deltas_pct[trace_deltas_pct.size() / 2]);
  std::printf(
      "# tracing overhead @1 thread (wire off, %zu reqs, 1%% sampling): best on-cpu %.1f ms, "
      "best off-cpu %.1f ms, paired-median %.2f%% (bar 2%%)\n",
      ab_requests.size(), trace_on_ms, trace_off_ms, trace_overhead_pct);

  // -- PR 8: WAL durability A/B ------------------------------------------
  // Fresh sessions so neither arm inherits the scaling runs' warm state
  // asymmetrically; each arm gets one unrecorded warm run over its own
  // stream. The WAL arm keeps PersistenceConfig's default fsync=batch — the
  // honest arm, every write acknowledged only after its group commit.
  namespace fs = std::filesystem;
  const fs::path wal_dir =
      fs::temp_directory_path() / ("sp-bench-walab-" + std::to_string(::getpid()));
  const std::size_t mixed_n = cfg.requests * 2;
  MixedRwStats mem_rw, wal_rw;
  {
    SessionConfig mem_cfg = session_cfg;
    mem_cfg.seed = "bench-pr8-mem";
    Session mem_session(mem_cfg);
    const Catalog mem_cat = build_catalog(mem_session, ctx, object);
    const auto stream = make_request_stream(mem_cat, ctx, mixed_n, nullptr);
    run_mixed_rw(mem_session, stream, 8, cfg.wire_scale);  // warm
    mem_rw = run_mixed_rw(mem_session, stream, 8, cfg.wire_scale);
  }
  {
    SessionConfig wal_cfg = session_cfg;
    wal_cfg.seed = "bench-pr8-wal";
    sp::core::PersistenceConfig persist;
    persist.dir = wal_dir.string();
    wal_cfg.persistence = persist;
    Session wal_session(wal_cfg);
    const Catalog wal_cat = build_catalog(wal_session, ctx, object);
    const auto stream = make_request_stream(wal_cat, ctx, mixed_n, nullptr);
    run_mixed_rw(wal_session, stream, 8, cfg.wire_scale);  // warm
    wal_rw = run_mixed_rw(wal_session, stream, 8, cfg.wire_scale);
  }
  std::error_code wal_ec;
  fs::remove_all(wal_dir, wal_ec);
  const double wal_p50_ratio = wal_rw.all.p50_ms / mem_rw.all.p50_ms;
  std::printf(
      "# WAL durability A/B @8 threads (1/4 writes, fsync=batch): mem p50 %.2f ms, "
      "wal p50 %.2f ms, ratio %.3f (bar 1.25)\n",
      mem_rw.all.p50_ms, wal_rw.all.p50_ms, wal_p50_ratio);
  std::printf("#   write p50: mem %.3f ms, wal %.3f ms\n", mem_rw.write.p50_ms,
              wal_rw.write.p50_ms);

  if (global.series_count() == 0) {
    std::fprintf(stderr, "global metrics snapshot is empty — instrumentation did not record\n");
    return 1;
  }

  std::FILE* out = std::fopen(cfg.out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", cfg.out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_concurrent_access\",\n");
  std::fprintf(out, "  \"preset\": \"%s\",\n", cfg.preset_name);
  std::fprintf(out, "  \"requests_per_run\": %zu,\n", cfg.requests);
  std::fprintf(out, "  \"traffic_mix\": \"7/8 C1, 1/8 C2\",\n");
  std::fprintf(out, "  \"wire_scale\": %.2f,\n", cfg.wire_scale);
  std::fprintf(out,
               "  \"latency_model\": \"measured processing wall time + simnet network delay "
               "accounted on seeded per-worker virtual wire clocks (no wall-clock sleeps; "
               "throughput = requests / virtual makespan)\",\n");
  std::fprintf(out, "  \"percentile_source\": \"obs::Histogram bucket interpolation\",\n");
  auto scheme_json = [](const sp::bench::LatencySummary& s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %llu, \"mean_ms\": %.1f, \"p50_ms\": %.1f, \"p95_ms\": %.1f}",
                  static_cast<unsigned long long>(s.count), s.mean_ms, s.p50_ms, s.p95_ms);
    return std::string(buf);
  };
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < series.size(); ++i) {
    const RunStats& s = series[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"wall_ms\": %.1f, \"virtual_makespan_ms\": %.1f, "
                 "\"throughput_rps\": %.2f, "
                 "\"p50_ms\": %.1f, \"p95_ms\": %.1f, \"p99_ms\": %.1f, \"max_ms\": %.1f,\n"
                 "     \"c1_total\": %s, \"c1_proc\": %s,\n"
                 "     \"c2_total\": %s, \"c2_proc\": %s}%s\n",
                 s.threads, s.wall_ms, s.virtual_makespan_ms, s.throughput_rps,
                 s.latency.p50_ms, s.latency.p95_ms,
                 s.latency.p99_ms, s.latency.max_ms, scheme_json(s.c1_total).c_str(),
                 scheme_json(s.c1_proc).c_str(), scheme_json(s.c2_total).c_str(),
                 scheme_json(s.c2_proc).c_str(), i + 1 < series.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"c2_runs\": [\n");
  for (std::size_t i = 0; i < c2_series.size(); ++i) {
    const RunStats& s = c2_series[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"virtual_makespan_ms\": %.1f, "
                 "\"throughput_rps\": %.2f,\n"
                 "     \"total\": %s, \"proc\": %s}%s\n",
                 s.threads, s.virtual_makespan_ms, s.throughput_rps,
                 scheme_json(s.c2_total).c_str(),
                 scheme_json(s.c2_proc).c_str(), i + 1 < c2_series.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_8_vs_1\": %.2f,\n", speedup);
  std::fprintf(out, "  \"instrumentation_overhead\": {\n");
  std::fprintf(out, "    \"threads\": 8,\n    \"wire_scale\": 0.0,\n");
  std::fprintf(out, "    \"requests\": %zu,\n", ab_requests.size());
  std::fprintf(out, "    \"ab_pairs\": %d,\n", cfg.overhead_reps);
  std::fprintf(out, "    \"metrics_on_wall_ms\": %.2f,\n", on_ms);
  std::fprintf(out, "    \"metrics_off_wall_ms\": %.2f,\n", off_ms);
  std::fprintf(out, "    \"overhead_pct\": %.2f\n  },\n", overhead_pct);
  std::fprintf(out, "  \"tracing_overhead\": {\n");
  std::fprintf(out, "    \"threads\": 1,\n    \"wire_scale\": 0.0,\n");
  std::fprintf(out, "    \"requests\": %zu,\n", ab_requests.size());
  std::fprintf(out, "    \"ab_pairs\": %d,\n", trace_reps);
  std::fprintf(out, "    \"sample_probability\": 0.01,\n");
  std::fprintf(out, "    \"trace_on_best_wall_ms\": %.2f,\n", trace_on_ms);
  std::fprintf(out, "    \"trace_off_best_wall_ms\": %.2f,\n", trace_off_ms);
  std::fprintf(out, "    \"overhead_pct_paired_median\": %.2f,\n", trace_overhead_pct);
  std::fprintf(out, "    \"per_pair_deltas_pct\": [");
  for (std::size_t i = 0; i < trace_deltas_pct.size(); ++i) {
    std::fprintf(out, "%s%.2f", i == 0 ? "" : ", ", trace_deltas_pct[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out,
               "    \"acceptance\": \"<= 2%% at 1%% sampling; disabled arm is the baseline "
               "(fast path = one relaxed load)\"\n  },\n");
  auto rw_json = [&scheme_json](const MixedRwStats& s) {
    return "{\"wall_ms\": " + std::to_string(s.wall_ms) +
           ", \"virtual_makespan_ms\": " + std::to_string(s.virtual_makespan_ms) +
           ", \"ops_per_sec\": " + std::to_string(s.ops_per_sec) +
           ", \"all\": " + scheme_json(s.all) + ", \"read\": " + scheme_json(s.read) +
           ", \"write\": " + scheme_json(s.write) + "}";
  };
  std::fprintf(out, "  \"wal_ab\": {\n");
  std::fprintf(out, "    \"threads\": 8,\n    \"operations\": %zu,\n", mem_rw.ops);
  std::fprintf(out, "    \"write_fraction\": 0.25,\n    \"fsync\": \"batch\",\n");
  std::fprintf(out, "    \"memory\": %s,\n", rw_json(mem_rw).c_str());
  std::fprintf(out, "    \"wal\": %s,\n", rw_json(wal_rw).c_str());
  std::fprintf(out, "    \"p50_ratio\": %.3f,\n", wal_p50_ratio);
  std::fprintf(out, "    \"acceptance\": \"wal p50 <= 1.25x in-memory p50\"\n  },\n");
  std::fprintf(out, "  \"metrics\": %s\n}\n", global.to_json().c_str());
  std::fclose(out);
  std::printf("# wrote %s\n", cfg.out_path.c_str());
  return 0;
}
