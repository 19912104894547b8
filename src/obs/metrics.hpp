// Process-wide observability: cheap thread-safe instruments for the serving
// core, with Prometheus text exposition and a JSON snapshot dump.
//
// The ROADMAP's "heavy traffic from millions of users" north star needs a
// continuous view of throughput, queue depth, phase latencies and failure
// rates — the per-request CostLedger in src/net/simnet.hpp decomposes ONE
// request, this layer aggregates ALL of them. The paper's own evaluation
// (Fig. 10) is exactly such a phase decomposition; related provider-mediated
// OSN access-control systems live or die on per-request provider overhead,
// so we measure ours on every request instead of only in one-off benches.
//
// Design constraints, in order:
//
//  * Hot-path increments never take a lock. Counters and histograms stripe
//    their state over cache-line-padded per-shard atomics indexed by a
//    thread-id hash; a relaxed fetch_add on an uncontended cache line is the
//    entire cost of `inc()`/`observe()`. Reads (exposition, percentiles)
//    merge the shards — they are monitoring-path, not serving-path.
//  * Secret hygiene: metric names and label values are identifiers of code
//    paths, NEVER data. Registration rejects anything outside a conservative
//    charset/length so answer or key bytes cannot be smuggled into a label
//    value; docs/OBSERVABILITY.md states the contract, secret_lint scans
//    this directory like the rest of src/.
//  * Registration is rare and may lock (shared_mutex); callers cache the
//    returned reference (instruments have stable addresses for the life of
//    the registry) so serving code pays registration cost once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::obs {

/// Label set for one time series: ordered (name, value) pairs. Values must
/// be short enum-like strings (scheme="c1", op="fetch") — never user data.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

inline constexpr std::size_t kShards = 16;
inline constexpr std::size_t kCacheLine = 64;

struct alignas(kCacheLine) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

/// Which stripe this thread's increments land on. Cached per thread: one
/// hash on first use, a TLS read afterwards.
std::size_t shard_index();

}  // namespace detail

class MetricsRegistry;

/// Monotonic counter. `inc` is wait-free (one relaxed fetch_add on a
/// thread-striped cache line); `value` merges the stripes.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    shards_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

  detail::PaddedU64 shards_[detail::kShards];
};

/// Up/down gauge (queue depths, record counts, bytes at rest). A single
/// atomic — gauges move orders of magnitude less often than counters.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { add(-n); }

  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram (milliseconds). Bucket counts, the total
/// count and the sum (fixed-point nanoseconds) are striped per shard;
/// `observe` is three relaxed fetch_adds plus a bounds lookup. Percentiles
/// are bucket-interpolated estimates — resolution is the bucket width, which
/// the bound helpers below let callers pick per use.
class Histogram {
 public:
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value_ms);

  /// Trace-id exemplar: the captured trace behind the largest observation so
  /// far, so a latency outlier in a scrape points at a concrete span tree
  /// (OBSERVABILITY.md "Exemplars"). Lock-free seqlock slot; losing a race
  /// loses one candidate update, never tears a read.
  struct Exemplar {
    double value_ms = 0;
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
  };
  /// observe() + exemplar candidacy. A zero trace id observes without one.
  void observe_exemplar(double value_ms, std::uint64_t trace_hi, std::uint64_t trace_lo);
  /// The current exemplar, if any observation carried a trace id.
  [[nodiscard]] std::optional<Exemplar> exemplar() const;

  [[nodiscard]] std::uint64_t count() const;
  /// Sum of observed values in ms (nanosecond-granular fixed point).
  [[nodiscard]] double sum_ms() const;
  [[nodiscard]] double max_ms() const;
  /// Bucket-interpolated percentile estimate, p in (0, 1]. Returns 0 when
  /// empty. The overflow bucket interpolates toward the recorded max, and
  /// every estimate is capped at the recorded max.
  [[nodiscard]] double percentile(double p) const;
  /// Upper bounds (strictly increasing); the +Inf overflow bucket is
  /// implicit. `bucket_counts()` returns bounds().size() + 1 entries.
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  /// Default serving-latency bounds: 50 µs .. 10 s, roughly ×2.5 steps.
  static std::vector<double> default_latency_bounds_ms();
  /// `count` bounds: start, start*factor, start*factor², ...
  static std::vector<double> exponential_bounds(double start, double factor, std::size_t count);
  /// `count` bounds: start, start+width, start+2*width, ...
  static std::vector<double> linear_bounds(double start, double width, std::size_t count);

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void reset();

  struct alignas(detail::kCacheLine) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  ///< bounds+1 slots
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_nanos{0};
  };

  std::vector<double> bounds_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> max_nanos_{0};
  // Exemplar seqlock: writers CAS the sequence even→odd, store, release
  // odd→even+2; readers retry on odd or changed sequences.
  std::atomic<std::uint64_t> ex_seq_{0};
  std::atomic<std::uint64_t> ex_nanos_{0};
  std::atomic<std::uint64_t> ex_hi_{0};
  std::atomic<std::uint64_t> ex_lo_{0};
};

/// Process-wide instrument registry. `global()` is the process singleton the
/// serving stack registers into; tests and benches may also construct
/// private registries. Registration (name + optional labels) is idempotent:
/// the same (name, labels) returns the same instrument, so any module can
/// say `registry.counter("dh_requests_total", ...)` without coordination.
/// Re-registering a name as a different kind (or a histogram with different
/// bounds) throws std::logic_error; help text is fixed by the first caller.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry. Intentionally leaked (never destroyed) so
  /// instruments referenced from static caches stay valid through shutdown.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name, const std::string& help = "",
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help = "", const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       std::vector<double> bounds = Histogram::default_latency_bounds_ms(),
                       const Labels& labels = {});

  /// Zeroes every instrument. For bench A/B runs and tests only — call it
  /// quiesced; concurrent increments may straddle the sweep.
  void reset();

  /// Number of registered time series (across all families).
  [[nodiscard]] std::size_t series_count() const;

  /// Registers a callback run at the start of every scrape (to_prometheus /
  /// to_json), outside the registry lock — for gauges derived from ambient
  /// state at read time (uptime, build info). Hooks must be cheap, must not
  /// throw, and may only touch instruments of THIS registry.
  void add_scrape_hook(std::function<void()> hook);

  /// Prometheus text exposition format (families sorted by name, series
  /// sorted by label key; numbers via %.10g so integers print bare).
  [[nodiscard]] std::string to_prometheus() const;
  /// JSON snapshot: {"metrics":[{name,type,help,series:[…]}]}.
  /// Histogram series carry count/sum/max, p50/p95/p99 estimates and the
  /// cumulative buckets.
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;              ///< histogram families only
    std::map<std::string, Series> series;    ///< key: canonical label string
  };

  Family& family_for(const std::string& name, const std::string& help, Kind kind,
                     const std::vector<double>* bounds) SP_REQUIRES(mutex_);
  void run_scrape_hooks() const SP_EXCLUDES(mutex_);

  mutable sp::SharedMutex mutex_;  ///< guards the family map, not instrument state
  std::map<std::string, Family> families_ SP_GUARDED_BY(mutex_);
  std::vector<std::function<void()>> scrape_hooks_ SP_GUARDED_BY(mutex_);
};

}  // namespace sp::obs
