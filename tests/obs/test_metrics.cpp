// Unit tests for the observability instruments: counters, gauges, histogram
// bucket/percentile math, registration rules (the secret-hygiene charset),
// the no-op mode, phase spans, and both exposition formats.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using sp::obs::Histogram;
using sp::obs::MetricsRegistry;
using sp::obs::Phase;
using sp::obs::Span;

TEST(MetricsTest, CounterIncrementsAndMerges) {
  MetricsRegistry reg;
  auto& c = reg.counter("rq_total", "Requests");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeSetAddSub) {
  MetricsRegistry reg;
  auto& g = reg.gauge("queue_depth", "Tasks waiting");
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
}

TEST(MetricsTest, RegistrationIsIdempotentPerLabelSet) {
  MetricsRegistry reg;
  auto& a = reg.counter("rq_total", "Requests", {{"op", "fetch"}});
  auto& b = reg.counter("rq_total", "", {{"op", "fetch"}});
  auto& c = reg.counter("rq_total", "", {{"op", "store"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsTest, KindAndBoundsConflictsThrow) {
  MetricsRegistry reg;
  reg.counter("rq_total", "Requests");
  EXPECT_THROW(reg.gauge("rq_total", ""), std::logic_error);
  reg.histogram("latency_ms", "", {1, 2, 5});
  EXPECT_THROW(reg.histogram("latency_ms", "", {1, 2}), std::logic_error);
  EXPECT_THROW(reg.counter("latency_ms", ""), std::logic_error);
}

TEST(MetricsTest, NameAndLabelValidationRejectsNonIdentifiers) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("", ""), std::invalid_argument);
  EXPECT_THROW(reg.counter("bad name", ""), std::invalid_argument);
  EXPECT_THROW(reg.counter("1starts_with_digit", ""), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_total", "", {{"bad label", "x"}}), std::invalid_argument);
  // The secret-hygiene contract: label values are enum-like identifiers, so
  // anything that could carry payload bytes (spaces, quotes, length) is a
  // registration-time error.
  EXPECT_THROW(reg.counter("ok_total", "", {{"op", "has space"}}), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_total", "", {{"op", "quo\"te"}}), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_total", "", {{"op", std::string(65, 'a')}}),
               std::invalid_argument);
  EXPECT_NO_THROW(reg.counter("ok_total", "", {{"phase", "c1.verify_hashes"}}));
}

TEST(MetricsTest, HistogramBucketBoundariesAreInclusive) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1, 2, 5});
  // Prometheus `le` semantics: a value equal to a bound lands in that bound's
  // bucket, strictly above goes to the next one.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.0001);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(5.0001);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 2u);  // 1.0001, 2.0
  EXPECT_EQ(counts[2], 1u);  // 5.0
  EXPECT_EQ(counts[3], 1u);  // 5.0001 -> +Inf
  EXPECT_EQ(h.count(), 6u);
}

TEST(MetricsTest, HistogramNegativeAndNanClampToZero) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1});
  h.observe(-3.0);
  h.observe(std::nan(""));
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.sum_ms(), 0.0);
}

TEST(MetricsTest, HistogramSumMaxAndEmptyPercentile) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1, 10});
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.observe(0.5);
  h.observe(7.25);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 7.75);
  EXPECT_DOUBLE_EQ(h.max_ms(), 7.25);
}

TEST(MetricsTest, HistogramSumsSubMicrosecondObservations) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1});
  // 0.4 us each: a sum kept in whole microseconds would round every one away.
  for (int i = 0; i < 1000; ++i) h.observe(0.0004);
  EXPECT_NEAR(h.sum_ms(), 0.4, 1e-9);
  EXPECT_NEAR(h.max_ms(), 0.0004, 1e-12);
  h.observe_exemplar(0.0007, 1, 2);
  ASSERT_TRUE(h.exemplar().has_value());
  EXPECT_NEAR(h.exemplar()->value_ms, 0.0007, 1e-12);
}

TEST(MetricsTest, HistogramPercentileInterpolates) {
  MetricsRegistry reg;
  // 100 uniform samples 0.5, 1.5, ..., 99.5 over 10-ms-wide buckets: the
  // interpolated pXX must land within one bucket width of the exact value.
  auto& h = reg.histogram("latency_ms", "", Histogram::linear_bounds(10, 10, 10));
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 10.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 10.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 10.0);
  EXPECT_LE(h.percentile(1.0), h.max_ms() + 1e-9);
  // Monotone in p.
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

TEST(MetricsTest, HistogramOverflowBucketInterpolatesTowardMax) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1});
  h.observe(100.0);
  h.observe(200.0);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p99, 1.0);
  EXPECT_LE(p99, 200.0);
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("h1_ms", "", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h2_ms", "", {1, 1}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h3_ms", "", {2, 1}), std::invalid_argument);
}

TEST(MetricsTest, ResetZeroesEverything) {
  MetricsRegistry reg;
  auto& c = reg.counter("rq_total", "");
  auto& h = reg.histogram("latency_ms", "", {1});
  c.inc(7);
  h.observe(3.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ms(), 0.0);
  EXPECT_EQ(h.max_ms(), 0.0);
}

TEST(MetricsTest, PrometheusGoldenOutput) {
  MetricsRegistry reg;
  reg.counter("rq_total", "Requests served", {{"op", "fetch"}}).inc(3);
  reg.gauge("queue_depth", "Tasks waiting").set(2);
  auto& h = reg.histogram("latency_ms", "Request latency", {1, 2});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string expected =
      "# HELP latency_ms Request latency\n"
      "# TYPE latency_ms histogram\n"
      "latency_ms_bucket{le=\"1\"} 1\n"
      "latency_ms_bucket{le=\"2\"} 2\n"
      "latency_ms_bucket{le=\"+Inf\"} 3\n"
      "latency_ms_sum 11\n"
      "latency_ms_count 3\n"
      "# HELP queue_depth Tasks waiting\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2\n"
      "# HELP rq_total Requests served\n"
      "# TYPE rq_total counter\n"
      "rq_total{op=\"fetch\"} 3\n";
  EXPECT_EQ(reg.to_prometheus(), expected);
}

TEST(MetricsTest, PrometheusLabelsComposeWithBucketLe) {
  MetricsRegistry reg;
  reg.histogram("phase_ms", "", {1}, {{"phase", "c1.interpolate"}}).observe(0.5);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("phase_ms_bucket{phase=\"c1.interpolate\",le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("phase_ms_count{phase=\"c1.interpolate\"} 1"), std::string::npos);
}

// Minimal JSON well-formedness checker: enough grammar to prove the snapshot
// parses (objects, arrays, strings with escapes, numbers, literals).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(MetricsTest, JsonSnapshotIsWellFormedAndComplete) {
  MetricsRegistry reg;
  reg.counter("rq_total", "Requests \"served\"", {{"op", "fetch"}}).inc(3);
  reg.gauge("queue_depth", "").set(-4);
  auto& h = reg.histogram("latency_ms", "", {1, 2});
  h.observe(0.5);
  h.observe(9.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"name\": \"rq_total\""), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ms\": "), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("Requests \\\"served\\\""), std::string::npos);
}

// A phase span observes the process-wide registry, so these tests time
// phases whose series nothing else in the binary touches.
const Phase kTestPhase{"test.phase", []() -> Histogram& {
  return MetricsRegistry::global().histogram("test_phase_span_ms", "", {1000});
}};

TEST(PhaseSpanTest, UnsampledPhaseFeedsItsSeriesAndReturnsElapsed) {
  Histogram& h = kTestPhase.series();
  const auto count0 = h.count();
  const double sum0 = h.sum_ms();
  double ms = 0;
  {
    Span span(kTestPhase);
    EXPECT_FALSE(span.recording());  // the tracer is off: timed, not traced
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
    ms = span.end();
  }
  EXPECT_EQ(h.count(), count0 + 1);
  EXPECT_GT(ms, 0.0);
  EXPECT_NEAR(h.sum_ms() - sum0, ms, 1e-6);
}

TEST(PhaseSpanTest, EndIsIdempotentAndReturnsElapsedOnce) {
  Histogram& h = kTestPhase.series();
  const auto count0 = h.count();
  {
    Span span(kTestPhase);
    const double first = span.end();
    const double second = span.end();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(second, 0.0);
  }  // the destructor's end() observes nothing more
  EXPECT_EQ(h.count(), count0 + 1);
}

TEST(PhaseSpanTest, AServingPhaseObservesItsPhaseSeries) {
  static const Phase serving{"test.serving_phase"};
  const Histogram& h = MetricsRegistry::global().histogram(
      "sp_phase_latency_ms", "", Histogram::default_latency_bounds_ms(),
      {{"phase", "test.serving_phase"}});
  const auto count0 = h.count();
  { const Span span(serving); }
  EXPECT_EQ(&h, &serving.series());
  EXPECT_EQ(h.count(), count0 + 1);
}

TEST(PhaseSpanTest, AMovedPhaseSpanObservesOnce) {
  Histogram& h = kTestPhase.series();
  const auto count0 = h.count();
  {
    Span first(kTestPhase);
    Span second(std::move(first));
    EXPECT_EQ(first.end(), 0.0);  // NOLINT(bugprone-use-after-move): moved-from is inert
  }
  EXPECT_EQ(h.count(), count0 + 1);
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

// ---------------------------------------------------------------------------
// Exposition escaping (PR 9 satellite): golden outputs for help strings that
// carry backslashes, quotes and newlines in both formats.
// ---------------------------------------------------------------------------

TEST(MetricsTest, PrometheusEscapesHelpBackslashAndNewline) {
  MetricsRegistry reg;
  reg.counter("esc_total", "line1\nline2 \"quoted\" back\\slash").inc();
  const std::string expected =
      "# HELP esc_total line1\\nline2 \"quoted\" back\\\\slash\n"
      "# TYPE esc_total counter\n"
      "esc_total 1\n";
  EXPECT_EQ(reg.to_prometheus(), expected);
}

TEST(MetricsTest, JsonEscapesHelpControlCharsAndBackslash) {
  MetricsRegistry reg;
  reg.counter("esc_total", "tab\there\nback\\slash \"q\"").inc();
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("tab\\there\\nback\\\\slash \\\"q\\\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram exemplars: the seqlock slot keeping the largest observation's
// trace id, exposed as a Prometheus comment and a JSON object.
// ---------------------------------------------------------------------------

TEST(MetricsTest, ExemplarKeepsTheLargestObservation) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1, 10});
  EXPECT_FALSE(h.exemplar().has_value());
  h.observe_exemplar(2.0, 0xa, 0xb);
  h.observe_exemplar(7.0, 0xc, 0xd);
  h.observe_exemplar(3.0, 0xe, 0xf);
  const auto ex = h.exemplar();
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->trace_hi, 0xcu);
  EXPECT_EQ(ex->trace_lo, 0xdu);
  EXPECT_NEAR(ex->value_ms, 7.0, 1e-3);
  EXPECT_EQ(h.count(), 3u);  // observe_exemplar still feeds the buckets
}

TEST(MetricsTest, ExemplarIgnoresInvalidTraceIds) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1});
  h.observe_exemplar(9.0, 0, 0);  // untraced outlier: counted, not exemplified
  EXPECT_FALSE(h.exemplar().has_value());
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, ExemplarAppearsInBothExpositions) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1, 10}, {{"op", "access"}});
  h.observe_exemplar(4.0, 0x0123456789abcdefull, 0xfedcba9876543210ull);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# exemplar latency_ms{op=\"access\"} "
                      "trace_id=0123456789abcdeffedcba9876543210 value_ms=4"),
            std::string::npos)
      << prom;
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"exemplar\": {\"trace_id\": "
                      "\"0123456789abcdeffedcba9876543210\""),
            std::string::npos)
      << json;
}

TEST(MetricsTest, ResetClearsTheExemplar) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency_ms", "", {1});
  h.observe_exemplar(5.0, 1, 2);
  reg.reset();
  EXPECT_FALSE(h.exemplar().has_value());
}

// ---------------------------------------------------------------------------
// Build identity metrics + scrape hooks (PR 9 satellite).
// ---------------------------------------------------------------------------

TEST(MetricsTest, BuildInfoFieldsAreSanitizedLabelValues) {
  const sp::obs::BuildInfo& info = sp::obs::build_info();
  for (const std::string* field :
       {&info.version, &info.git_sha, &info.compiler, &info.sanitizer}) {
    EXPECT_FALSE(field->empty());
    EXPECT_LE(field->size(), 64u);
    for (const char c : *field) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
                  c == '.' || c == '-' || c == '/' || c == ':')
          << *field;
    }
  }
}

TEST(MetricsTest, RegisterBuildMetricsExposesInfoAndUptime) {
  MetricsRegistry reg;
  sp::obs::register_build_metrics(reg);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("sp_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("compiler=\""), std::string::npos);
  EXPECT_NE(prom.find("git_sha=\""), std::string::npos);
  EXPECT_NE(prom.find("sanitizer=\""), std::string::npos);
  EXPECT_NE(prom.find("version=\""), std::string::npos);
  EXPECT_NE(prom.find("} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("sp_uptime_seconds"), std::string::npos);
}

TEST(MetricsTest, BuildInfoSurvivesResetViaScrapeHook) {
  MetricsRegistry reg;
  sp::obs::register_build_metrics(reg);
  reg.reset();  // a bench-harness reset zeroes every series...
  const std::string prom = reg.to_prometheus();
  // ...but the scrape hook re-asserts the identity gauge at exposition time.
  EXPECT_NE(prom.find("} 1\n"), std::string::npos) << prom;
}

TEST(MetricsTest, ScrapeHooksRunOnBothExpositions) {
  MetricsRegistry reg;
  auto& g = reg.gauge("hooked_gauge", "");
  int runs = 0;
  reg.add_scrape_hook([&g, &runs] { g.set(++runs); });
  EXPECT_NE(reg.to_prometheus().find("hooked_gauge 1"), std::string::npos);
  EXPECT_NE(reg.to_json().find("\"value\": 2"), std::string::npos);
}

}  // namespace
