// Concurrency hammer for the observability instruments, aimed at the TSan CI
// job (suite name matches its -R "ThreadPool|ConcurrencyHammer|…" filter).
// Writers pound counters/gauges/histograms while readers scrape both
// exposition formats and other threads register new series — exactly the
// serving-vs-monitoring interleaving production sees. Counts must come out
// exact: striped relaxed atomics lose nothing, they only relax ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using sp::obs::MetricsRegistry;

constexpr std::size_t kWriters = 8;
constexpr std::size_t kItersPerWriter = 5000;

TEST(ObsConcurrencyHammer, CountsAreExactUnderContention) {
  MetricsRegistry reg;
  auto& counter = reg.counter("hammer_total", "");
  auto& gauge = reg.gauge("hammer_depth", "");
  auto& hist = reg.histogram("hammer_ms", "", {0.5, 1, 2});

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kItersPerWriter; ++i) {
        counter.inc();
        gauge.add(1);
        hist.observe(static_cast<double>((t + i) % 4));  // 0,1,2,3 -> all buckets
        gauge.sub(1);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(counter.value(), kWriters * kItersPerWriter);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), kWriters * kItersPerWriter);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(ObsConcurrencyHammer, ScrapesRaceWritersAndRegistrations) {
  MetricsRegistry reg;
  auto& counter = reg.counter("hammer_total", "");
  auto& hist = reg.histogram("hammer_ms", "", {0.5, 1, 2});
  std::atomic<bool> stop{false};

  // Readers: scrape both formats and percentiles while everything churns.
  std::thread prometheus_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = reg.to_prometheus();
      EXPECT_FALSE(text.empty());
    }
  });
  std::thread json_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = reg.to_json();
      EXPECT_FALSE(json.empty());
      (void)hist.percentile(0.99);
    }
  });
  // Registrar: keeps taking the registry's write lock mid-scrape, and must
  // always get the same instrument back for the same (name, labels).
  std::thread registrar([&] {
    for (int round = 0; !stop.load(std::memory_order_relaxed); ++round) {
      const std::string op = "op" + std::to_string(round % 7);
      auto& a = reg.counter("hammer_labeled_total", "", {{"op", op}});
      auto& b = reg.counter("hammer_labeled_total", "", {{"op", op}});
      EXPECT_EQ(&a, &b);
      a.inc();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (std::size_t i = 0; i < kItersPerWriter; ++i) {
        counter.inc();
        hist.observe(0.25);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  prometheus_reader.join();
  json_reader.join();
  registrar.join();

  EXPECT_EQ(counter.value(), kWriters * kItersPerWriter);
  EXPECT_EQ(hist.count(), kWriters * kItersPerWriter);
  EXPECT_GE(reg.series_count(), 2u);
}

TEST(ObsConcurrencyHammer, PhaseSpansFromManyThreads) {
  // Every thread's first span races the phase's first registration.
  static const sp::obs::Phase phase{"hammer.phase", []() -> sp::obs::Histogram& {
    return MetricsRegistry::global().histogram("hammer_phase_span_ms", "", {1000});
  }};
  const std::uint64_t count0 =
      MetricsRegistry::global().histogram("hammer_phase_span_ms", "", {1000}).count();
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> timed_threads{0};
  for (std::size_t t = 0; t < kWriters; ++t) {
    workers.emplace_back([&] {
      double total_ms = 0;  // what this thread's ledger would be charged
      for (std::size_t i = 0; i < 500; ++i) {
        sp::obs::Span span(phase);
        total_ms += span.end();
      }
      if (total_ms >= 0) timed_threads.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(phase.series().count() - count0, kWriters * 500);
  EXPECT_EQ(timed_threads.load(), kWriters);
}

}  // namespace
