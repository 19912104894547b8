// Request-lifecycle tracing and phase timing for the serving stack.
//
// `Span` is the one timing primitive. A span of a `Phase` times its scope
// whether or not the request is sampled, observes the phase's histogram and
// returns the elapsed ms for the caller's CostLedger; in a sampled request it
// is also the trace's span of that name. A span of a bare name is
// trace-only. The trace layer: 128-bit trace ids, parent/child spans with
// attributes/status/links, a request-scoped TraceContext that children pick
// up from the calling thread (Tracer::current(), installed by ContextGuard),
// and a lock-free per-thread ring collector with head-based sampling plus
// tail-based keep rules (errored and slowest-p99 traces survive even when
// the recent ring wraps). docs/OBSERVABILITY.md has the span catalog;
// DESIGN.md §12 the architecture.
//
// Cost model, in order of importance:
//
//  * Tracing disabled (the default): Tracer::start_trace is one relaxed
//    load; every Span/TraceContext operation on an unsampled context is a
//    null-pointer check. A named span reads no clock and allocates nothing;
//    a phase span reads the clock twice and observes its histogram.
//  * Head-unsampled request (the 99% at 1% sampling): one relaxed load plus
//    one thread-local PRNG step; everything downstream is as above.
//  * Sampled request: spans append to a per-request buffer under its own
//    mutex (uncontended except when pool helpers finish leaf jobs for the
//    same request); the finished trace is published to a per-thread ring
//    with a single atomic exchange — the collector itself never locks on
//    the producer side.
//
// Secret hygiene: span names and attribute keys/values are code-path
// identifiers and small numbers, NEVER payload data — same contract as
// metric labels (docs/OBSERVABILITY.md), enforced by review + sp_lint's
// secret-ident rules over this directory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::obs {

/// A timed region, defined once at namespace scope where it is timed: the
/// name its spans carry and the latency histogram it observes. Constant-
/// initialized; the histogram is registered on the phase's first end, so
/// defining a phase adds no series to a scrape.
class Phase {
 public:
  using Series = Histogram& (*)();

  /// A serving phase: observes sp_phase_latency_ms{phase=name}.
  constexpr explicit Phase(std::string_view name) : name_(name) {}
  /// A region that observes the histogram `series` returns.
  constexpr Phase(std::string_view name, Series series) : name_(name), series_fn_(series) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  [[nodiscard]] std::string_view name() const { return name_; }
  /// The histogram this phase observes, registered on first use.
  [[nodiscard]] Histogram& series() const;

 private:
  std::string_view name_;
  Series series_fn_ = nullptr;
  mutable std::atomic<Histogram*> series_{nullptr};
};

// ======================================================================
// Span-tree tracer
// ======================================================================

/// 128-bit trace identifier. {0,0} is the reserved invalid id.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool valid() const { return (hi | lo) != 0; }
  /// 32 lowercase hex digits (OpenTelemetry-style).
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const TraceId&, const TraceId&) = default;
};

/// Span outcome, mirroring the fault model's transient/terminal split
/// (net::is_transient): kTransientFault spans are retried by the layer
/// above, kTerminal spans end the request.
enum class SpanStatus : std::uint8_t {
  kOk = 0,
  kTransientFault = 1,
  kTerminal = 2,
};

[[nodiscard]] const char* to_string(SpanStatus status);

/// Causal reference to a span in this or another trace (a WAL group-commit
/// batch links every contributing request's span).
struct SpanLink {
  TraceId trace;
  std::uint64_t span = 0;

  friend bool operator==(const SpanLink&, const SpanLink&) = default;
};

/// One finished span. Timestamps are steady-clock nanoseconds (a process-
/// local monotonic timeline; dumps are self-consistent, not wall-clock).
struct SpanRecord {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< hashed thread id (grouping key, not a TID)
  SpanStatus status = SpanStatus::kOk;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<SpanLink> links;

  [[nodiscard]] double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// One completed trace as drained from the collector.
struct TraceData {
  TraceId id;
  std::string root_name;
  double duration_ms = 0;
  bool errored = false;  ///< any span ended with a non-kOk status
  std::vector<SpanRecord> spans;  ///< finish order (roots last)
};

namespace detail {

/// Shared per-request span sink. Spans of one trace may finish on several
/// threads (ThreadPool workers), so appends take the buffer mutex — scoped
/// to one request, it is uncontended in the common case.
struct TraceBuffer {
  TraceId id;
  std::atomic<std::uint64_t> next_span{2};  ///< 1 is the root span
  std::atomic<bool> errored{false};
  std::atomic<bool> finished{false};  ///< root ended; stragglers are dropped
  sp::Mutex mutex;
  std::vector<SpanRecord> spans SP_GUARDED_BY(mutex);
};

}  // namespace detail

/// Cheap, copyable handle identifying "the span children attach to" within a
/// sampled request — or nothing at all (default-constructed / unsampled),
/// in which case every operation derived from it no-ops.
class TraceContext {
 public:
  TraceContext() = default;

  [[nodiscard]] bool sampled() const { return buf_ != nullptr; }
  [[nodiscard]] TraceId trace_id() const { return buf_ ? buf_->id : TraceId{}; }
  [[nodiscard]] std::uint64_t span_id() const { return span_; }

 private:
  friend class Span;
  friend class Tracer;
  friend class ContextGuard;

  TraceContext(std::shared_ptr<detail::TraceBuffer> buf, std::uint64_t span)
      : buf_(std::move(buf)), span_(span) {}

  std::shared_ptr<detail::TraceBuffer> buf_;
  std::uint64_t span_ = 0;
};

/// RAII span. Move-only; ends (and records itself) on destruction or
/// explicit end(). All trace mutators no-op when the span is not recording.
class Span {
 public:
  Span() = default;
  /// Child span under `parent`, started now, or at `start_ns` when given
  /// (queue-wait spans measured from enqueue time).
  Span(const TraceContext& parent, std::string_view name, std::uint64_t start_ns = 0);
  /// Times `phase` under the calling thread's current context, sampled or
  /// not: end() observes the phase's series and returns the elapsed ms.
  explicit Span(const Phase& phase);

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  [[nodiscard]] bool recording() const { return buf_ != nullptr; }
  /// Context for children of THIS span.
  [[nodiscard]] TraceContext context() const;
  [[nodiscard]] std::uint64_t span_id() const { return rec_.span_id; }

  void set_status(SpanStatus status);
  void add_attr(std::string_view key, std::string_view value);
  void add_attr(std::string_view key, std::int64_t value);
  void add_attr(std::string_view key, double value);
  void add_link(TraceId trace, std::uint64_t span);
  void add_link(const SpanLink& link) { add_link(link.trace, link.span); }

  /// Ends the span (idempotent): a phase span observes its series, a
  /// recording one appends its record to the trace buffer, and ending a root
  /// publishes the whole trace. Returns a phase span's elapsed ms on its
  /// first end, 0 otherwise.
  double end();

 private:
  friend class Tracer;

  std::shared_ptr<detail::TraceBuffer> buf_;
  const Phase* phase_ = nullptr;  ///< set until a phase span ends
  SpanRecord rec_;  ///< start_ns is kept for an unsampled phase span too
};

/// Installs `ctx` as the calling thread's current context for the guard's
/// scope (restores the previous one on destruction). This is the async
/// propagation glue: ThreadPool workers install the run_all caller's context,
/// so layers that never see a TraceContext parameter (SP/DH ops, the WAL
/// wait path) still attach to the right trace via Tracer::current().
class ContextGuard {
 public:
  explicit ContextGuard(TraceContext ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext prev_;
};

/// Collector + sampling configuration. Ring sizes are per producer thread
/// and rounded up to powers of two.
struct TracerConfig {
  /// Head sampling probability for start_trace (0..1).
  double sample_probability = 1.0;
  /// Recent ring: every finished sampled trace lands here (newest wins).
  std::size_t ring_slots = 256;
  /// Kept ring: errored and slow traces, retained preferentially.
  std::size_t kept_slots = 64;
  /// A trace is "slow" when its root duration reaches this percentile of
  /// the sp_trace_root_ms histogram...
  double keep_slow_percentile = 0.99;
  /// ...once at least this many roots have been observed (before that the
  /// estimate is noise and only errored traces hit the kept ring).
  std::uint64_t keep_slow_min_count = 64;
};

/// Process-wide tracer: head-sampling root-span factory, thread-local
/// current-context slot, and the lock-free per-thread ring collector.
/// Disabled by default — enabling is an explicit operator/bench decision.
class Tracer {
 public:
  /// Intentionally leaked, like MetricsRegistry::global(): spans may finish
  /// on shutdown paths.
  static Tracer& global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Applies sampling/ring settings. Ring sizing affects rings created
  /// after the call; call before producing traffic (tests, bench arms).
  void configure(const TracerConfig& config);
  [[nodiscard]] TracerConfig config() const;

  /// Starts a new trace: makes the head-sampling decision and returns its
  /// root span (non-recording when disabled or not sampled).
  [[nodiscard]] Span start_trace(std::string_view name);
  /// Starts a new trace bypassing the sampling draw (WAL group-commit spans
  /// triggered by an already-sampled origin). Still a no-op when disabled.
  [[nodiscard]] Span start_trace_forced(std::string_view name);

  /// The calling thread's current context (invalid when none installed).
  [[nodiscard]] static TraceContext current();

  /// Steady-clock nanoseconds on the tracer's timeline.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Removes and returns every collected trace from every thread's rings
  /// (kept first). Safe to run concurrently with producers: each slot is
  /// claimed with one atomic exchange.
  [[nodiscard]] std::vector<TraceData> drain();

 private:
  friend class Span;

  struct Ring;
  struct ThreadRings;

  /// The recording root span of a new trace `id`, started now.
  static Span root_span(TraceId id, std::string_view name);
  /// Called by the root Span's end(): seals the buffer, applies the
  /// tail-based keep rules and publishes to the calling thread's rings.
  void finish(const std::shared_ptr<detail::TraceBuffer>& buf);
  ThreadRings& rings_for_this_thread();

  std::atomic<bool> enabled_{false};
  /// Head-sampling threshold over the uniform low word of the trace id;
  /// UINT64_MAX means "always".
  std::atomic<std::uint64_t> sample_threshold_{~0ull};
  std::atomic<double> keep_slow_percentile_{0.99};
  std::atomic<std::uint64_t> keep_slow_min_count_{64};
  std::atomic<std::size_t> ring_slots_{256};
  std::atomic<std::size_t> kept_slots_{64};

  mutable sp::Mutex rings_mutex_;  ///< guards the ring registry, not the slots
  std::vector<std::unique_ptr<ThreadRings>> rings_ SP_GUARDED_BY(rings_mutex_);
};

}  // namespace sp::obs
