#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace sp::obs {

namespace {

/// Tracer instruments (docs/OBSERVABILITY.md catalog). Counters tell the
/// sampling story end to end: started >= sampled >= finished; kept/
/// overwritten split what the rings retained vs recycled.
struct TracerMetrics {
  obs::Counter& started;
  obs::Counter& sampled;
  obs::Counter& finished;
  obs::Counter& kept_error;
  obs::Counter& kept_slow;
  obs::Counter& overwritten_recent;
  obs::Counter& overwritten_kept;
  obs::Counter& stray_spans;
  obs::Histogram& root_ms;

  static TracerMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static TracerMetrics m{
        reg.counter("sp_traces_started_total", "Requests that reached a start_trace call"),
        reg.counter("sp_traces_sampled_total", "Traces that passed the head-sampling draw"),
        reg.counter("sp_traces_finished_total", "Sampled traces whose root span ended"),
        reg.counter("sp_traces_kept_total", "Traces retained by a tail-based keep rule",
                    {{"reason", "error"}}),
        reg.counter("sp_traces_kept_total", "", {{"reason", "slow"}}),
        reg.counter("sp_traces_overwritten_total",
                    "Collected traces recycled by a newer one before a drain",
                    {{"ring", "recent"}}),
        reg.counter("sp_traces_overwritten_total", "", {{"ring", "kept"}}),
        reg.counter("sp_trace_spans_dropped_total",
                    "Spans that ended after their trace was already finished"),
        reg.histogram("sp_trace_root_ms", "Root-span duration of sampled traces"),
    };
    return m;
  }
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Per-thread id generator. Seeded once from a process-wide counter, the
/// thread id hash and the clock — uniqueness is what matters (trace ids are
/// correlation keys, not secrets; nothing is keyed from them).
std::uint64_t next_random_u64() {
  static std::atomic<std::uint64_t> seed_counter{0x5eed5eed5eed5eedull};
  thread_local std::uint64_t state =
      seed_counter.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed) ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) * 0x2545f4914f6cdd1dull) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  return splitmix64(state);
}

std::uint32_t this_thread_key() {
  thread_local const std::uint32_t key = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffffu);
  return key;
}

TraceContext& current_slot() {
  thread_local TraceContext slot;
  return slot;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string format_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string TraceId::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

const char* to_string(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOk:
      return "ok";
    case SpanStatus::kTransientFault:
      return "transient-fault";
    case SpanStatus::kTerminal:
      return "terminal";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Phase

Histogram& Phase::series() const {
  Histogram* series = series_.load(std::memory_order_acquire);
  if (series == nullptr) {
    // Registration is idempotent: threads racing the first end store the
    // same instrument.
    series = series_fn_ != nullptr
                 ? &series_fn_()
                 : &MetricsRegistry::global().histogram(
                       "sp_phase_latency_ms", "Per-phase serving latency",
                       Histogram::default_latency_bounds_ms(), {{"phase", std::string(name_)}});
    series_.store(series, std::memory_order_release);
  }
  return *series;
}

// ---------------------------------------------------------------- Span

Span::Span(const TraceContext& parent, std::string_view name, std::uint64_t start_ns) {
  if (!parent.sampled()) return;
  buf_ = parent.buf_;
  rec_.span_id = buf_->next_span.fetch_add(1, std::memory_order_relaxed);
  rec_.parent_id = parent.span_;
  rec_.name.assign(name);
  rec_.start_ns = start_ns != 0 ? start_ns : Tracer::now_ns();
  rec_.thread = this_thread_key();
}

Span::Span(const Phase& phase) : Span(Tracer::current(), phase.name()) {
  phase_ = &phase;
  if (!buf_) rec_.start_ns = Tracer::now_ns();
}

// A moved-from shared_ptr is empty, so a moved-from span is inert.
Span::Span(Span&& other) noexcept
    : buf_(std::move(other.buf_)),
      phase_(std::exchange(other.phase_, nullptr)),
      rec_(std::move(other.rec_)) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    buf_ = std::move(other.buf_);
    phase_ = std::exchange(other.phase_, nullptr);
    rec_ = std::move(other.rec_);
  }
  return *this;
}

TraceContext Span::context() const {
  if (!buf_) return {};
  return TraceContext(buf_, rec_.span_id);
}

void Span::set_status(SpanStatus status) {
  if (!buf_) return;
  rec_.status = status;
  if (status != SpanStatus::kOk) buf_->errored.store(true, std::memory_order_relaxed);
}

void Span::add_attr(std::string_view key, std::string_view value) {
  if (!buf_) return;
  rec_.attrs.emplace_back(std::string(key), std::string(value));
}

void Span::add_attr(std::string_view key, std::int64_t value) {
  if (!buf_) return;
  rec_.attrs.emplace_back(std::string(key), format_u64(static_cast<std::uint64_t>(
                                                value < 0 ? 0 : value)));
}

void Span::add_attr(std::string_view key, double value) {
  if (!buf_) return;
  rec_.attrs.emplace_back(std::string(key), format_double(value));
}

void Span::add_link(TraceId trace, std::uint64_t span) {
  if (!buf_) return;
  rec_.links.push_back(SpanLink{trace, span});
}

double Span::end() {
  if (phase_ == nullptr && !buf_) return 0;
  const std::uint64_t now = Tracer::now_ns();
  double ms = 0;
  if (phase_ != nullptr) {
    ms = static_cast<double>(now - rec_.start_ns) / 1e6;
    std::exchange(phase_, nullptr)->series().observe(ms);
  }
  if (!buf_) return ms;
  std::shared_ptr<detail::TraceBuffer> buf = std::move(buf_);
  rec_.end_ns = now;
  const bool is_root = rec_.parent_id == 0;
  if (!is_root && buf->finished.load(std::memory_order_acquire)) {
    // The root already sealed this trace (a straggler from a queue that
    // outlived its request) — recording it would race the publish.
    TracerMetrics::get().stray_spans.inc();
    return ms;
  }
  {
    const sp::MutexLock lock(buf->mutex);
    buf->spans.push_back(std::move(rec_));
  }
  if (is_root) {
    buf->finished.store(true, std::memory_order_release);
    Tracer::global().finish(buf);
  }
  return ms;
}

// ---------------------------------------------------------- ContextGuard

ContextGuard::ContextGuard(TraceContext ctx) : prev_(std::move(current_slot())) {
  current_slot() = std::move(ctx);
}

ContextGuard::~ContextGuard() { current_slot() = std::move(prev_); }

// ---------------------------------------------------------------- Tracer

/// One collector ring: slots hold finished traces, newest-wins. Producers
/// exchange a new trace in (and delete whatever they displaced); drains
/// exchange nullptr in. Both sides are a single atomic RMW — no locks, no
/// waiting, which is what lets the hot path publish from any thread while a
/// scrape drains concurrently.
struct Tracer::Ring {
  explicit Ring(std::size_t slot_count)
      : mask(slot_count - 1), slots(std::make_unique<std::atomic<TraceData*>[]>(slot_count)) {
    for (std::size_t i = 0; i <= mask; ++i) slots[i].store(nullptr, std::memory_order_relaxed);
  }
  ~Ring() {
    for (std::size_t i = 0; i <= mask; ++i) delete slots[i].load(std::memory_order_relaxed);
  }

  /// Returns true when the publish displaced (and deleted) an undrained
  /// trace — the overwrite the drop counters report.
  bool publish(TraceData* data) {
    const std::size_t idx = head.fetch_add(1, std::memory_order_relaxed) & mask;
    TraceData* old = slots[idx].exchange(data, std::memory_order_acq_rel);
    delete old;
    return old != nullptr;
  }

  void drain_into(std::vector<TraceData>& out) {
    for (std::size_t i = 0; i <= mask; ++i) {
      TraceData* data = slots[i].exchange(nullptr, std::memory_order_acq_rel);
      if (data != nullptr) {
        out.push_back(std::move(*data));
        delete data;
      }
    }
  }

  const std::size_t mask;
  std::atomic<std::uint64_t> head{0};
  std::unique_ptr<std::atomic<TraceData*>[]> slots;
};

struct Tracer::ThreadRings {
  ThreadRings(std::size_t recent_slots, std::size_t kept_slots)
      : recent(recent_slots), kept(kept_slots) {}
  Ring recent;
  Ring kept;
};

Tracer::Tracer() = default;

Tracer& Tracer::global() {
  // Leaked like MetricsRegistry::global(): spans ending during static
  // teardown must find a live collector.
  static Tracer* const instance = new Tracer();
  return *instance;
}

void Tracer::configure(const TracerConfig& config) {
  double p = config.sample_probability;
  if (!(p > 0)) p = 0;
  if (p >= 1) {
    sample_threshold_.store(~0ull, std::memory_order_relaxed);
  } else {
    sample_threshold_.store(static_cast<std::uint64_t>(p * 18446744073709551615.0),
                            std::memory_order_relaxed);
  }
  keep_slow_percentile_.store(config.keep_slow_percentile, std::memory_order_relaxed);
  keep_slow_min_count_.store(config.keep_slow_min_count, std::memory_order_relaxed);
  ring_slots_.store(round_up_pow2(std::max<std::size_t>(1, config.ring_slots)),
                    std::memory_order_relaxed);
  kept_slots_.store(round_up_pow2(std::max<std::size_t>(1, config.kept_slots)),
                    std::memory_order_relaxed);
}

TracerConfig Tracer::config() const {
  TracerConfig out;
  const std::uint64_t thr = sample_threshold_.load(std::memory_order_relaxed);
  out.sample_probability =
      thr == ~0ull ? 1.0 : static_cast<double>(thr) / 18446744073709551615.0;
  out.keep_slow_percentile = keep_slow_percentile_.load(std::memory_order_relaxed);
  out.keep_slow_min_count = keep_slow_min_count_.load(std::memory_order_relaxed);
  out.ring_slots = ring_slots_.load(std::memory_order_relaxed);
  out.kept_slots = kept_slots_.load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

TraceContext Tracer::current() { return current_slot(); }

Span Tracer::start_trace(std::string_view name) {
  if (!enabled_.load(std::memory_order_relaxed)) return {};
  TracerMetrics& metrics = TracerMetrics::get();
  metrics.started.inc();
  const TraceId id{next_random_u64(), next_random_u64()};
  const std::uint64_t thr = sample_threshold_.load(std::memory_order_relaxed);
  // The id's low word is uniform, so it doubles as the sampling draw — the
  // decision replays from the id alone.
  if (thr != ~0ull && id.lo >= thr) return {};
  metrics.sampled.inc();
  return root_span(id, name);
}

Span Tracer::start_trace_forced(std::string_view name) {
  if (!enabled_.load(std::memory_order_relaxed)) return {};
  TracerMetrics& metrics = TracerMetrics::get();
  metrics.started.inc();
  metrics.sampled.inc();
  return root_span(TraceId{next_random_u64(), next_random_u64()}, name);
}

Span Tracer::root_span(TraceId id, std::string_view name) {
  Span root;
  root.buf_ = std::make_shared<detail::TraceBuffer>();
  root.buf_->id = id;
  root.rec_.span_id = 1;
  root.rec_.name.assign(name);
  root.rec_.start_ns = now_ns();
  root.rec_.thread = this_thread_key();
  return root;
}

Tracer::ThreadRings& Tracer::rings_for_this_thread() {
  thread_local ThreadRings* rings = nullptr;
  if (rings == nullptr) {
    auto fresh = std::make_unique<ThreadRings>(ring_slots_.load(std::memory_order_relaxed),
                                               kept_slots_.load(std::memory_order_relaxed));
    rings = fresh.get();
    const sp::MutexLock lock(rings_mutex_);
    rings_.push_back(std::move(fresh));
  }
  return *rings;
}

void Tracer::finish(const std::shared_ptr<detail::TraceBuffer>& buf) {
  TracerMetrics& metrics = TracerMetrics::get();
  metrics.finished.inc();

  auto data = std::make_unique<TraceData>();
  data->id = buf->id;
  data->errored = buf->errored.load(std::memory_order_relaxed);
  {
    const sp::MutexLock lock(buf->mutex);
    data->spans = std::move(buf->spans);
  }
  // The root is the span this thread just appended — finish order puts it
  // last, but a straggler-free guarantee is not needed to find it.
  for (const SpanRecord& rec : data->spans) {
    if (rec.parent_id == 0) {
      data->root_name = rec.name;
      data->duration_ms = rec.duration_ms();
      break;
    }
  }
  metrics.root_ms.observe(data->duration_ms);

  // Tail-based keep rules: errored traces always survive; slow traces once
  // the root-latency histogram has enough mass for a meaningful p99.
  bool keep = false;
  if (data->errored) {
    metrics.kept_error.inc();
    keep = true;
  } else {
    const std::uint64_t min_count = keep_slow_min_count_.load(std::memory_order_relaxed);
    if (min_count != 0 && metrics.root_ms.count() >= min_count) {
      const double threshold =
          metrics.root_ms.percentile(keep_slow_percentile_.load(std::memory_order_relaxed));
      if (threshold > 0 && data->duration_ms >= threshold) {
        metrics.kept_slow.inc();
        keep = true;
      }
    }
  }

  ThreadRings& rings = rings_for_this_thread();
  Ring& target = keep ? rings.kept : rings.recent;
  if (target.publish(data.release())) {
    (keep ? metrics.overwritten_kept : metrics.overwritten_recent).inc();
  }
}

std::vector<TraceData> Tracer::drain() {
  std::vector<TraceData> out;
  const sp::MutexLock lock(rings_mutex_);
  for (const auto& rings : rings_) rings->kept.drain_into(out);
  for (const auto& rings : rings_) rings->recent.drain_into(out);
  return out;
}

}  // namespace sp::obs
