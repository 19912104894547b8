#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/build_info.hpp"

namespace sp::obs {

namespace detail {

std::size_t shard_index() {
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return idx;
}

}  // namespace detail

namespace {

/// %.10g keeps integers bare ("3", not "3.000000") and doubles readable in
/// both exposition formats.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

bool name_char_ok(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  if (alpha || c == '_' || c == ':') return true;
  return !first && c >= '0' && c <= '9';
}

/// Metric/label-name charset: Prometheus identifier rules. Tight on purpose
/// — names are code-path identifiers, not data.
void validate_name(const std::string& name, const char* what) {
  if (name.empty() || name.size() > 120) {
    throw std::invalid_argument(std::string(what) + " must be 1..120 chars: '" + name + "'");
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!name_char_ok(name[i], i == 0)) {
      throw std::invalid_argument(std::string(what) + " has invalid char: '" + name + "'");
    }
  }
}

/// Label values are enum-like path identifiers (scheme="c1",
/// phase="c1.verify_hashes"). The charset excludes quotes, backslashes and
/// whitespace entirely, and the length cap makes smuggling payload bytes
/// into a label value a registration-time error — part of the secret-hygiene
/// contract (docs/OBSERVABILITY.md).
void validate_label_value(const std::string& value) {
  if (value.empty() || value.size() > 64) {
    throw std::invalid_argument("label value must be 1..64 chars: '" + value + "'");
  }
  for (const char c : value) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-' || c == '/' || c == ':';
    if (!ok) throw std::invalid_argument("label value has invalid char: '" + value + "'");
  }
}

/// Canonical series id: labels sorted by name, rendered `a="x",b="y"`.
/// Doubles as the exposition body inside {…}.
std::string canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& label : labels) {
    if (!out.empty()) out.push_back(',');
    out += label.first + "=\"" + label.second + "\"";
  }
  return out;
}

std::string json_escape(const std::string& s) {
  // Registration-time charsets exclude everything needing escapes from
  // names and label values, but help strings are free text and the emitter
  // must stay valid JSON regardless — full RFC 8259 escaping, control
  // characters included.
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Prometheus text-format HELP escaping: backslash and newline only (the
/// spec leaves quotes bare outside label values).
std::string prom_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Prometheus label-value escaping: backslash, double-quote and newline.
/// Registration rejects these characters today; escaping at emission keeps
/// the exposition well-formed even if the charset is ever widened.
std::string prom_escape_label_value(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Exposition-side label body `a="x",b="y"` with escaped values. Distinct
/// from canonical_labels (the raw map key fixed at registration).
std::string prom_label_body(const Labels& labels) {
  std::string out;
  for (const auto& label : labels) {
    if (!out.empty()) out.push_back(',');
    out += label.first + "=\"" + prom_escape_label_value(label.second) + "\"";
  }
  return out;
}

std::string hex32(std::uint64_t hi, std::uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

/// Histogram sums, maxima and exemplars are whole nanoseconds, so a
/// sub-microsecond observation still adds to its series' sum.
std::uint64_t to_nanos(double value_ms) {
  return static_cast<std::uint64_t>(std::llround(value_ms * 1e6));
}

}  // namespace

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: bounds must be non-empty");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]) || (i > 0 && bounds_[i] <= bounds_[i - 1])) {
      throw std::invalid_argument("Histogram: bounds must be finite and strictly increasing");
    }
  }
  shards_ = std::make_unique<Shard[]>(detail::kShards);
  for (std::size_t s = 0; s < detail::kShards; ++s) {
    shards_[s].buckets = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      shards_[s].buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(double value_ms) {
  if (!(value_ms >= 0)) value_ms = 0;  // also catches NaN
  // Bucket i holds v <= bounds_[i] (Prometheus `le`); past the last bound is
  // the implicit +Inf bucket.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value_ms) - bounds_.begin());
  const std::uint64_t nanos = to_nanos(value_ms);
  Shard& s = shards_[detail::shard_index()];
  s.buckets[idx].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_nanos_.compare_exchange_weak(seen, nanos, std::memory_order_relaxed)) {
  }
}

void Histogram::observe_exemplar(double value_ms, std::uint64_t trace_hi,
                                 std::uint64_t trace_lo) {
  observe(value_ms);
  if ((trace_hi | trace_lo) == 0) return;
  if (!(value_ms >= 0)) value_ms = 0;
  const std::uint64_t nanos = to_nanos(value_ms);
  // Keep the largest observation: exemplars exist to explain the outlier a
  // scrape's max/p99 shows, so smaller candidates don't displace it.
  if (nanos < ex_nanos_.load(std::memory_order_relaxed)) return;
  std::uint64_t seq = ex_seq_.load(std::memory_order_relaxed);
  if ((seq & 1) != 0) return;  // concurrent writer owns the slot; drop this candidate
  if (!ex_seq_.compare_exchange_strong(seq, seq + 1, std::memory_order_acquire)) return;
  ex_nanos_.store(nanos, std::memory_order_relaxed);
  ex_hi_.store(trace_hi, std::memory_order_relaxed);
  ex_lo_.store(trace_lo, std::memory_order_relaxed);
  ex_seq_.store(seq + 2, std::memory_order_release);
}

std::optional<Histogram::Exemplar> Histogram::exemplar() const {
  for (int tries = 0; tries < 16; ++tries) {
    const std::uint64_t s1 = ex_seq_.load(std::memory_order_acquire);
    if ((s1 & 1) != 0) continue;
    const std::uint64_t nanos = ex_nanos_.load(std::memory_order_relaxed);
    const std::uint64_t hi = ex_hi_.load(std::memory_order_relaxed);
    const std::uint64_t lo = ex_lo_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (ex_seq_.load(std::memory_order_relaxed) != s1) continue;
    if ((hi | lo) == 0) return std::nullopt;
    return Exemplar{static_cast<double>(nanos) / 1e6, hi, lo};
  }
  return std::nullopt;  // writer storm; a later scrape will win
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < detail::kShards; ++s) {
    total += shards_[s].count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum_ms() const {
  std::uint64_t nanos = 0;
  for (std::size_t s = 0; s < detail::kShards; ++s) {
    nanos += shards_[s].sum_nanos.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nanos) / 1e6;
}

double Histogram::max_ms() const {
  return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) / 1e6;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (std::size_t s = 0; s < detail::kShards; ++s) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += shards_[s].buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::percentile(double p) const {
  if (!(p > 0)) p = 0.0;
  if (p > 1) p = 1.0;
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double target = p * static_cast<double>(total);
  double cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double next = cum + static_cast<double>(counts[b]);
    if (next >= target && counts[b] > 0) {
      const double lower = b == 0 ? 0.0 : bounds_[b - 1];
      // The +Inf bucket interpolates toward the recorded max so a tail
      // estimate stays finite and bounded by something actually observed.
      const double upper = b < bounds_.size() ? bounds_[b] : std::max(max_ms(), lower);
      const double frac = (target - cum) / static_cast<double>(counts[b]);
      const double est = lower + frac * (upper - lower);
      // Never report above something actually observed (p100 of a bucket
      // otherwise returns the bucket's upper bound, not the true max).
      const double cap = max_ms();
      return cap > 0 && est > cap ? cap : est;
    }
    cum = next;
  }
  return max_ms();
}

void Histogram::reset() {
  for (std::size_t s = 0; s < detail::kShards; ++s) {
    shards_[s].count.store(0, std::memory_order_relaxed);
    shards_[s].sum_nanos.store(0, std::memory_order_relaxed);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      shards_[s].buckets[b].store(0, std::memory_order_relaxed);
    }
  }
  max_nanos_.store(0, std::memory_order_relaxed);
  // reset() is documented quiesced-only, so a plain sweep of the exemplar
  // slot (leaving the sequence even) is safe.
  ex_nanos_.store(0, std::memory_order_relaxed);
  ex_hi_.store(0, std::memory_order_relaxed);
  ex_lo_.store(0, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_latency_bounds_ms() {
  return {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000};
}

std::vector<double> Histogram::exponential_bounds(double start, double factor, std::size_t count) {
  if (!(start > 0) || !(factor > 1) || count == 0) {
    throw std::invalid_argument("exponential_bounds: start > 0, factor > 1, count >= 1");
  }
  std::vector<double> out;
  out.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i, v *= factor) out.push_back(v);
  return out;
}

std::vector<double> Histogram::linear_bounds(double start, double width, std::size_t count) {
  if (!(width > 0) || count == 0) {
    throw std::invalid_argument("linear_bounds: width > 0, count >= 1");
  }
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(start + static_cast<double>(i) * width);
  return out;
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instruments are cached by reference in static
  // structs across the serving stack; a destructed registry would turn
  // shutdown-path increments into use-after-free. The global registry also
  // carries the process identity series (sp_build_info, sp_uptime_seconds)
  // so every exposition from a real process is attributable to a build.
  static MetricsRegistry* const instance = [] {
    auto* r = new MetricsRegistry();
    register_build_metrics(*r);
    return r;
  }();
  return *instance;
}

MetricsRegistry::Family& MetricsRegistry::family_for(const std::string& name,
                                                     const std::string& help, Kind kind,
                                                     const std::vector<double>* bounds) {
  // Caller holds the unique lock.
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = help;
    if (bounds != nullptr) fam.bounds = *bounds;
    return fam;
  }
  if (fam.kind != kind) {
    throw std::logic_error("MetricsRegistry: '" + name + "' already registered as another kind");
  }
  if (bounds != nullptr && fam.bounds != *bounds) {
    throw std::logic_error("MetricsRegistry: '" + name + "' re-registered with different bounds");
  }
  return fam;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  const Labels& labels) {
  validate_name(name, "metric name");
  for (const auto& label : labels) {
    validate_name(label.first, "label name");
    validate_label_value(label.second);
  }
  const std::string id = canonical_labels(labels);
  {
    const sp::SharedLock lock(mutex_);
    const auto fit = families_.find(name);
    if (fit != families_.end() && fit->second.kind == Kind::kCounter) {
      const auto sit = fit->second.series.find(id);
      if (sit != fit->second.series.end()) return *sit->second.counter;
    }
  }
  const sp::UniqueLock lock(mutex_);
  Family& fam = family_for(name, help, Kind::kCounter, nullptr);
  Series& series = fam.series[id];
  if (!series.counter) {
    series.labels = labels;
    std::sort(series.labels.begin(), series.labels.end());
    series.counter.reset(new Counter());
  }
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  validate_name(name, "metric name");
  for (const auto& label : labels) {
    validate_name(label.first, "label name");
    validate_label_value(label.second);
  }
  const std::string id = canonical_labels(labels);
  {
    const sp::SharedLock lock(mutex_);
    const auto fit = families_.find(name);
    if (fit != families_.end() && fit->second.kind == Kind::kGauge) {
      const auto sit = fit->second.series.find(id);
      if (sit != fit->second.series.end()) return *sit->second.gauge;
    }
  }
  const sp::UniqueLock lock(mutex_);
  Family& fam = family_for(name, help, Kind::kGauge, nullptr);
  Series& series = fam.series[id];
  if (!series.gauge) {
    series.labels = labels;
    std::sort(series.labels.begin(), series.labels.end());
    series.gauge.reset(new Gauge());
  }
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      std::vector<double> bounds, const Labels& labels) {
  validate_name(name, "metric name");
  for (const auto& label : labels) {
    validate_name(label.first, "label name");
    validate_label_value(label.second);
  }
  const std::string id = canonical_labels(labels);
  {
    const sp::SharedLock lock(mutex_);
    const auto fit = families_.find(name);
    if (fit != families_.end() && fit->second.kind == Kind::kHistogram &&
        fit->second.bounds == bounds) {
      const auto sit = fit->second.series.find(id);
      if (sit != fit->second.series.end()) return *sit->second.histogram;
    }
  }
  const sp::UniqueLock lock(mutex_);
  Family& fam = family_for(name, help, Kind::kHistogram, &bounds);
  Series& series = fam.series[id];
  if (!series.histogram) {
    series.labels = labels;
    std::sort(series.labels.begin(), series.labels.end());
    series.histogram.reset(new Histogram(std::move(bounds)));
  }
  return *series.histogram;
}

void MetricsRegistry::reset() {
  const sp::UniqueLock lock(mutex_);
  for (auto& [name, fam] : families_) {
    for (auto& [id, series] : fam.series) {
      if (series.counter) series.counter->reset();
      if (series.gauge) series.gauge->reset();
      if (series.histogram) series.histogram->reset();
    }
  }
}

void MetricsRegistry::add_scrape_hook(std::function<void()> hook) {
  const sp::UniqueLock lock(mutex_);
  scrape_hooks_.push_back(std::move(hook));
}

void MetricsRegistry::run_scrape_hooks() const {
  // Copy under the lock, run outside it: hooks set gauges of this registry,
  // and instrument lookups re-take mutex_.
  std::vector<std::function<void()>> hooks;
  {
    const sp::SharedLock lock(mutex_);
    hooks = scrape_hooks_;
  }
  for (const auto& hook : hooks) hook();
}

std::size_t MetricsRegistry::series_count() const {
  const sp::SharedLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [name, fam] : families_) total += fam.series.size();
  return total;
}

std::string MetricsRegistry::to_prometheus() const {
  run_scrape_hooks();
  const sp::SharedLock lock(mutex_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# HELP " + name + " " + prom_escape_help(fam.help) + "\n";
    out += "# TYPE " + name + " ";
    out += fam.kind == Kind::kCounter ? "counter" : fam.kind == Kind::kGauge ? "gauge"
                                                                             : "histogram";
    out += "\n";
    for (const auto& [id, series] : fam.series) {
      const std::string body = prom_label_body(series.labels);
      const std::string braces = body.empty() ? "" : "{" + body + "}";
      if (fam.kind == Kind::kCounter) {
        out += name + braces + " " + std::to_string(series.counter->value()) + "\n";
      } else if (fam.kind == Kind::kGauge) {
        out += name + braces + " " + std::to_string(series.gauge->value()) + "\n";
      } else {
        const Histogram& h = *series.histogram;
        const std::vector<std::uint64_t> counts = h.bucket_counts();
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          cum += counts[b];
          const std::string le = b < h.bounds().size() ? num(h.bounds()[b]) : "+Inf";
          std::string lbl = body;
          if (!lbl.empty()) lbl += ",";
          lbl += "le=\"" + le + "\"";
          out += name + "_bucket{" + lbl + "} " + std::to_string(cum) + "\n";
        }
        out += name + "_sum" + braces + " " + num(h.sum_ms()) + "\n";
        out += name + "_count" + braces + " " + std::to_string(h.count()) + "\n";
        // The classic text format has no exemplar syntax (that's OpenMetrics);
        // emit the trace pointer as a comment so scrapes stay parseable while
        // a human (or sp_trace grep) can still jump from metric to trace.
        if (const auto ex = h.exemplar()) {
          out += "# exemplar " + name + braces + " trace_id=" +
                 hex32(ex->trace_hi, ex->trace_lo) + " value_ms=" + num(ex->value_ms) + "\n";
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  run_scrape_hooks();
  const sp::SharedLock lock(mutex_);
  std::string out = "{\n  \"metrics\": [";
  bool first_family = true;
  for (const auto& [name, fam] : families_) {
    out += first_family ? "\n" : ",\n";
    first_family = false;
    out += "    {\"name\": \"" + name + "\", \"type\": \"";
    out += fam.kind == Kind::kCounter ? "counter" : fam.kind == Kind::kGauge ? "gauge"
                                                                             : "histogram";
    out += "\", \"help\": \"" + json_escape(fam.help) + "\", \"series\": [";
    bool first_series = true;
    for (const auto& [id, series] : fam.series) {
      out += first_series ? "\n" : ",\n";
      first_series = false;
      out += "      {\"labels\": {";
      bool first_label = true;
      for (const auto& label : series.labels) {
        if (!first_label) out += ", ";
        first_label = false;
        out += "\"" + json_escape(label.first) + "\": \"" + json_escape(label.second) + "\"";
      }
      out += "}";
      if (fam.kind == Kind::kCounter) {
        out += ", \"value\": " + std::to_string(series.counter->value()) + "}";
      } else if (fam.kind == Kind::kGauge) {
        out += ", \"value\": " + std::to_string(series.gauge->value()) + "}";
      } else {
        const Histogram& h = *series.histogram;
        out += ", \"count\": " + std::to_string(h.count());
        out += ", \"sum_ms\": " + num(h.sum_ms());
        out += ", \"max_ms\": " + num(h.max_ms());
        out += ", \"p50_ms\": " + num(h.percentile(0.50));
        out += ", \"p95_ms\": " + num(h.percentile(0.95));
        out += ", \"p99_ms\": " + num(h.percentile(0.99));
        if (const auto ex = h.exemplar()) {
          out += ", \"exemplar\": {\"trace_id\": \"" + hex32(ex->trace_hi, ex->trace_lo) +
                 "\", \"value_ms\": " + num(ex->value_ms) + "}";
        }
        out += ", \"buckets\": [";
        const std::vector<std::uint64_t> counts = h.bucket_counts();
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          cum += counts[b];
          if (b > 0) out += ", ";
          out += "{\"le\": ";
          out += b < h.bounds().size() ? num(h.bounds()[b]) : std::string("\"+Inf\"");
          out += ", \"count\": " + std::to_string(cum) + "}";
        }
        out += "]}";
      }
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace sp::obs
