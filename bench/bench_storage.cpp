// Cold-start durability benchmark (PR 8): populates a WAL-backed StorageHost
// with N posts (default 1M; --quick drops to 50k), checkpoints halfway so the
// on-disk history crosses a segment + WAL boundary (the realistic cold-start
// shape), then measures
//   * populate throughput (4 writer threads through the group-commit queue),
//   * cold-start recovery: best-of-3 reopen wall time and records/s,
//   * mixed read/write throughput (3/4 fetch, 1/4 store; 4 threads) on an
//     in-memory host vs the WAL-backed host reopened with fsync=batch,
// and writes the whole report to BENCH_PR8.json. The session-level WAL A/B
// and its 1.25x p50 bar are a ctest (tests/osn/test_persistence.cpp).
//
// Populate runs fsync=never: the durability story exercised here is crash
// (SIGKILL) tolerance via the kernel page cache — the contract the recovery
// tests enforce (tests/storage/test_crash_recovery.cpp) — not power loss.
// The fsync cost itself shows up in the mixed-rw WAL arm, which reopens the
// store with fsync=batch.
//
// Usage: bench_storage [--quick] [--posts N] [--out PATH]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "crypto/bytes.hpp"
#include "fig10_common.hpp"
#include "obs/metrics.hpp"
#include "osn/storage_host.hpp"
#include "storage/store.hpp"

namespace {

namespace fs = std::filesystem;
using sp::crypto::Bytes;
using sp::crypto::to_bytes;
using sp::osn::StorageHost;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// ~100-byte payload, distinct per post so recovery verification would catch
/// cross-wired records, padded to the size class the paper's encrypted
/// objects start at.
Bytes payload_for(std::uint64_t i) {
  std::string s = "post-" + std::to_string(i) + ":";
  s.resize(96, 'x');
  return to_bytes(s);
}

/// Fills `dh` with posts [lo, hi) from `threads` writers (the group-commit
/// path needs concurrent appenders to batch). Collects every 64th URL for
/// the later read mix.
void fill(StorageHost& dh, std::uint64_t lo, std::uint64_t hi, std::size_t threads,
          std::vector<std::string>& sample_urls) {
  std::vector<std::vector<std::string>> per(threads);
  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = lo + t; i < hi; i += threads) {
        std::string url = dh.store(payload_for(i));
        if (i % 64 == 0) per[t].push_back(std::move(url));
      }
    });
  }
  for (auto& w : writers) w.join();
  for (auto& p : per) {
    sample_urls.insert(sample_urls.end(), std::make_move_iterator(p.begin()),
                       std::make_move_iterator(p.end()));
  }
}

struct MixStats {
  double wall_ms = 0;
  double ops_per_sec = 0;
  sp::bench::LatencySummary all, read, write;
};

/// 3/4 fetch, 1/4 store from `threads` workers; read targets stride the
/// sampled URL set with a Fibonacci-hash step so successive ops hit
/// different shards. On a durable host every store is acknowledged-durable
/// per the host's fsync policy before its sample lands.
MixStats mixed_rw(StorageHost& dh, const std::vector<std::string>& urls, std::size_t ops,
                  std::size_t threads) {
  sp::obs::MetricsRegistry run_registry;
  const auto bounds = sp::obs::Histogram::exponential_bounds(0.0002, 1.3, 60);
  sp::obs::Histogram& all = run_registry.histogram("bench_host_mixed_ms", "Mixed op", bounds);
  sp::obs::Histogram& read = run_registry.histogram("bench_host_read_ms", "Fetch", bounds);
  sp::obs::Histogram& write = run_registry.histogram("bench_host_write_ms", "Store", bounds);

  std::atomic<std::size_t> next{0};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= ops) return;
        const auto start = std::chrono::steady_clock::now();
        if (i % 4 == 3) {
          (void)dh.store(payload_for(1'000'000'000ull + i));
          const double ms = ms_since(start);
          all.observe(ms);
          write.observe(ms);
        } else {
          (void)dh.fetch(urls[(i * 2654435761ull) % urls.size()]);
          const double ms = ms_since(start);
          all.observe(ms);
          read.observe(ms);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  MixStats s;
  s.wall_ms = ms_since(wall_start);
  s.ops_per_sec = 1000.0 * static_cast<double>(ops) / s.wall_ms;
  s.all = sp::bench::summarize(all);
  s.read = sp::bench::summarize(read);
  s.write = sp::bench::summarize(write);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t posts = 1'000'000;
  std::string out_path = "BENCH_PR8.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      posts = 50'000;
    } else if (arg == "--posts" && i + 1 < argc) {
      posts = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--posts N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  constexpr std::size_t kWriters = 4;

  const fs::path dir =
      fs::temp_directory_path() / ("sp-bench-storage-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto opts = [&dir](sp::storage::WalWriter::Fsync f) {
    sp::storage::DurableStore::Options o;
    o.dir = dir.string();
    o.wal.fsync = f;
    // The bench places its one checkpoint itself, halfway through populate.
    o.checkpoint_wal_bytes = std::numeric_limits<std::uint64_t>::max();
    return o;
  };

  // -- populate ------------------------------------------------------------
  std::vector<std::string> sample_urls;
  double populate_ms = 0;
  double checkpoint_ms = 0;
  std::uint64_t wal_bytes_at_close = 0;
  {
    StorageHost dh(opts(sp::storage::WalWriter::Fsync::kNever));
    const auto t0 = std::chrono::steady_clock::now();
    fill(dh, 0, posts / 2, kWriters, sample_urls);
    const auto ck0 = std::chrono::steady_clock::now();
    dh.checkpoint();
    checkpoint_ms = ms_since(ck0);
    fill(dh, posts / 2, posts, kWriters, sample_urls);
    dh.sync();
    populate_ms = ms_since(t0);
    wal_bytes_at_close = dh.durable()->wal_bytes();
    if (dh.object_count() != posts) {
      std::fprintf(stderr, "populate: %zu/%llu posts stored\n", dh.object_count(),
                   static_cast<unsigned long long>(posts));
      return 1;
    }
  }
  const double populate_rps = 1000.0 * static_cast<double>(posts) / populate_ms;
  std::printf("# populate: %llu posts, %zu writers, %.0f ms (%.0f posts/s), checkpoint %.0f ms\n",
              static_cast<unsigned long long>(posts), kWriters, populate_ms, populate_rps,
              checkpoint_ms);

  // -- cold-start recovery -------------------------------------------------
  // Reopen the directory from scratch: segment load + WAL replay + index
  // rebuild, timed as the host constructor. recover() never rewrites clean
  // files, so repeated trials see identical on-disk state; best-of-3 sheds
  // page-cache warmup noise.
  constexpr int kTrials = 3;
  double trials_ms[kTrials] = {};
  double best_ms = 1e300;
  sp::storage::DurableStore::RecoveryStats rec{};
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    StorageHost dh(opts(sp::storage::WalWriter::Fsync::kNever));
    trials_ms[t] = ms_since(t0);
    best_ms = std::min(best_ms, trials_ms[t]);
    rec = dh.recovery_stats();
    if (dh.object_count() != posts) {
      std::fprintf(stderr, "recovery trial %d: %zu/%llu posts\n", t, dh.object_count(),
                   static_cast<unsigned long long>(posts));
      return 1;
    }
  }
  const std::uint64_t replayed = rec.segment_records + rec.wal_records;
  const double recovery_rps = 1000.0 * static_cast<double>(replayed) / best_ms;
  std::printf(
      "# cold-start recovery: best %.0f ms of %d trials (%.0f records/s; "
      "%llu segment + %llu wal records)\n",
      best_ms, kTrials, recovery_rps, static_cast<unsigned long long>(rec.segment_records),
      static_cast<unsigned long long>(rec.wal_records));

  // -- mixed read/write: in-memory vs WAL ----------------------------------
  const std::size_t mix_ops = static_cast<std::size_t>(posts / 5);
  MixStats mem_stats;
  {
    StorageHost mem;  // in-memory arm, pre-filled with the same corpus
    std::vector<std::string> mem_urls;
    fill(mem, 0, posts, kWriters, mem_urls);
    mixed_rw(mem, mem_urls, mix_ops / 10 + 1, kWriters);  // warm
    mem_stats = mixed_rw(mem, mem_urls, mix_ops, kWriters);
  }
  MixStats wal_stats;
  {
    StorageHost dh(opts(sp::storage::WalWriter::Fsync::kBatch));
    mixed_rw(dh, sample_urls, mix_ops / 10 + 1, kWriters);  // warm
    wal_stats = mixed_rw(dh, sample_urls, mix_ops, kWriters);
  }
  const double host_p50_ratio = wal_stats.all.p50_ms / mem_stats.all.p50_ms;
  std::printf(
      "# mixed rw (%zu ops, 1/4 writes, %zu threads): mem %.0f ops/s, wal(batch) %.0f ops/s, "
      "p50 ratio %.3f\n",
      mix_ops, kWriters, mem_stats.ops_per_sec, wal_stats.ops_per_sec, host_p50_ratio);
  std::printf("#   write p50: mem %.4f ms, wal %.4f ms\n", mem_stats.write.p50_ms,
              wal_stats.write.p50_ms);

  fs::remove_all(dir, ec);

  // -- report --------------------------------------------------------------
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  auto mix_json = [](const MixStats& s) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"wall_ms\": %.1f, \"ops_per_sec\": %.1f, \"p50_ms\": %.4f, "
                  "\"p95_ms\": %.4f, \"read_p50_ms\": %.4f, \"write_p50_ms\": %.4f, "
                  "\"write_p95_ms\": %.4f}",
                  s.wall_ms, s.ops_per_sec, s.all.p50_ms, s.all.p95_ms, s.read.p50_ms,
                  s.write.p50_ms, s.write.p95_ms);
    return std::string(buf);
  };
  std::fprintf(out, "{\n  \"bench\": \"bench_storage\",\n");
  std::fprintf(out, "  \"posts\": %llu,\n", static_cast<unsigned long long>(posts));
  std::fprintf(out, "  \"payload_bytes\": 96,\n");
  std::fprintf(out, "  \"populate\": {\"threads\": %zu, \"fsync\": \"never\", "
                    "\"wall_ms\": %.1f, \"posts_per_sec\": %.1f, \"checkpoint_ms\": %.1f, "
                    "\"checkpoint_at\": %llu, \"wal_bytes_at_close\": %llu},\n",
               kWriters, populate_ms, populate_rps, checkpoint_ms,
               static_cast<unsigned long long>(posts / 2),
               static_cast<unsigned long long>(wal_bytes_at_close));
  std::fprintf(out, "  \"cold_start_recovery\": {\"trials_ms\": [%.1f, %.1f, %.1f], "
                    "\"best_ms\": %.1f, \"segment_records\": %llu, \"wal_records\": %llu, "
                    "\"records_per_sec\": %.1f, \"verified_object_count\": %llu},\n",
               trials_ms[0], trials_ms[1], trials_ms[2], best_ms,
               static_cast<unsigned long long>(rec.segment_records),
               static_cast<unsigned long long>(rec.wal_records), recovery_rps,
               static_cast<unsigned long long>(posts));
  std::fprintf(out, "  \"host_mixed_rw\": {\n");
  std::fprintf(out, "    \"ops\": %zu,\n    \"threads\": %zu,\n    \"write_fraction\": 0.25,\n",
               mix_ops, kWriters);
  std::fprintf(out, "    \"memory\": %s,\n", mix_json(mem_stats).c_str());
  std::fprintf(out, "    \"wal_batch\": %s,\n", mix_json(wal_stats).c_str());
  std::fprintf(out, "    \"p50_ratio\": %.3f\n  }\n}\n", host_p50_ratio);
  std::fclose(out);
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
