// Chaos trace-propagation tests (PR 9): the span-tree tracer must follow a
// request through the retry loop, the C2 leaf-pairing fork-join and the WAL
// writer — under seeded fault injection, and deterministically enough that
// a same-seed replay produces the same protocol-layer span tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/trace_records.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/fixtures.hpp"
#include "support/temp_dir.hpp"

namespace {

using sp::core::Knowledge;
using sp::obs::SpanRecord;
using sp::obs::SpanStatus;
using sp::obs::TraceData;
using sp::obs::Tracer;
using sp::obs::TracerConfig;
using sp::testsupport::FanoutRig;
using sp::testsupport::toy_config;

/// RAII: tracer on at full sampling for one test, drained and off after.
class TracerOn {
 public:
  TracerOn() {
    auto& tracer = Tracer::global();
    tracer.configure(TracerConfig{});
    tracer.set_enabled(true);
    (void)tracer.drain();
  }
  ~TracerOn() {
    auto& tracer = Tracer::global();
    tracer.set_enabled(false);
    (void)tracer.drain();
  }
  TracerOn(const TracerOn&) = delete;
  TracerOn& operator=(const TracerOn&) = delete;
};

std::vector<const SpanRecord*> spans_named(const TraceData& trace, const std::string& name) {
  std::vector<const SpanRecord*> out;
  for (const auto& s : trace.spans) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

const SpanRecord* span_by_id(const TraceData& trace, std::uint64_t id) {
  for (const auto& s : trace.spans) {
    if (s.span_id == id) return &s;
  }
  return nullptr;
}

std::optional<std::string> attr(const SpanRecord& span, const std::string& name) {
  for (const auto& [k, v] : span.attrs) {
    if (k == name) return v;
  }
  return std::nullopt;
}

/// The deterministic protocol-layer shape of a trace: sorted (name,
/// parent-name) pairs, excluding pool.* spans — which worker picked a helper
/// up (and therefore how many helpers a fork-join got) is scheduling, not
/// protocol, and legitimately varies between same-seed runs.
std::vector<std::pair<std::string, std::string>> tree_shape(const TraceData& trace) {
  std::map<std::uint64_t, std::string> names;
  for (const auto& s : trace.spans) names[s.span_id] = s.name;
  std::vector<std::pair<std::string, std::string>> shape;
  for (const auto& s : trace.spans) {
    if (s.name.rfind("pool.", 0) == 0) continue;
    shape.emplace_back(s.name, s.parent_id == 0 ? "" : names[s.parent_id]);
  }
  std::sort(shape.begin(), shape.end());
  return shape;
}

TEST(TracePropagation, EveryRetryAttemptIsAChildSpanWithItsFaultAttr) {
  sp::core::SessionConfig cfg = toy_config("trace-retry");
  sp::net::FaultPlan plan;  // transient-only schedule: timeouts, no corruption
  plan.p_transfer_timeout = 0.5;
  plan.seed = "trace-retry-faults";
  cfg.faults = plan;
  FanoutRig rig(cfg, 2);
  const TracerOn tracer_on;
  auto& tracer = Tracer::global();

  bool saw_retry = false;
  for (int i = 0; i < 12 && !saw_retry; ++i) {
    const auto result = rig.session_.access_with_retries(
        rig.receivers_[i % 2], rig.c1_post_, Knowledge::full(rig.ctx_), sp::net::pc_profile());
    const auto traces = tracer.drain();
    ASSERT_EQ(traces.size(), 1u) << "one sequential request must yield one trace";
    const TraceData& t = traces.front();
    EXPECT_EQ(t.root_name, "sp.request");

    const auto attempts = spans_named(t, "sp.attempt");
    ASSERT_EQ(attempts.size(), static_cast<std::size_t>(result.attempts));
    const SpanRecord* root = span_by_id(t, 1);
    ASSERT_NE(root, nullptr);
    for (const SpanRecord* a : attempts) {
      EXPECT_EQ(a->parent_id, root->span_id);
      EXPECT_TRUE(attr(*a, "attempt").has_value());
      // Each attempt carries exactly one sp.access child.
      std::size_t accesses = 0;
      for (const auto& s : t.spans) {
        if (s.name == "sp.access" && s.parent_id == a->span_id) ++accesses;
      }
      EXPECT_EQ(accesses, 1u);
      if (a->status == SpanStatus::kTransientFault) {
        const auto fault = attr(*a, "fault");
        ASSERT_TRUE(fault.has_value());
        EXPECT_EQ(*fault, "timeout");  // the plan only schedules timeouts
      }
    }
    if (result.attempts > 1) {
      saw_retry = true;
      EXPECT_TRUE(t.errored);  // a transient attempt marks the trace
    }
  }
  EXPECT_TRUE(saw_retry) << "fault plan never fired across 12 requests";
}

TEST(TracePropagation, ErroredRequestExportsItsFullRetryChain) {
  sp::core::SessionConfig cfg = toy_config("trace-errored");
  sp::net::FaultPlan plan;
  plan.p_transfer_timeout = 0.98;  // nearly every exchange times out
  plan.seed = "trace-errored-faults";
  cfg.faults = plan;
  cfg.retry.max_attempts = 3;
  FanoutRig rig(cfg, 1);
  const TracerOn tracer_on;
  auto& tracer = Tracer::global();

  std::optional<TraceData> errored;
  int attempts_spent = 0;
  for (int i = 0; i < 8 && !errored; ++i) {
    const auto result = rig.session_.access_with_retries(
        rig.receivers_[0], rig.c1_post_, Knowledge::full(rig.ctx_), sp::net::pc_profile());
    auto traces = tracer.drain();
    ASSERT_EQ(traces.size(), 1u);
    if (result.error) {
      errored = std::move(traces.front());
      attempts_spent = result.attempts;
    }
  }
  ASSERT_TRUE(errored.has_value()) << "0.98 timeout rate never exhausted the retry budget";

  // The acceptance bar checks the chain on the *exported* trace: encode the
  // dump, decode it back, and walk the decoded tree.
  const std::vector<TraceData> dumped = {*errored};
  const auto decoded = sp::codec::decode_trace_dump(sp::codec::encode_trace_dump(dumped));
  ASSERT_EQ(decoded.size(), 1u);
  const TraceData& t = decoded.front();
  EXPECT_TRUE(t.errored);
  EXPECT_EQ(t.root_name, "sp.request");
  EXPECT_EQ(t.spans, errored->spans);

  const SpanRecord* root = span_by_id(t, 1);
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->status, SpanStatus::kOk);
  const auto attempts = spans_named(t, "sp.attempt");
  ASSERT_EQ(attempts.size(), static_cast<std::size_t>(attempts_spent));
  ASSERT_GE(attempts.size(), 2u);
  for (const SpanRecord* a : attempts) {
    EXPECT_EQ(a->parent_id, root->span_id);
    EXPECT_NE(a->status, SpanStatus::kOk);
    EXPECT_TRUE(attr(*a, "fault").has_value() || attr(*a, "deadline").has_value());
  }
}

TEST(TracePropagation, SameSeedReplayYieldsIdenticalSpanTreeShape) {
  auto run = [](const std::string& tag) {
    sp::core::SessionConfig cfg = toy_config("trace-replay");
    cfg.faults = sp::net::FaultPlan::uniform(0.3, "trace-replay-faults");
    FanoutRig rig(cfg, 2);
    auto& tracer = Tracer::global();
    std::vector<std::vector<std::pair<std::string, std::string>>> shapes;
    sp::crypto::Drbg krng("trace-replay-knowledge-" + tag);
    // Same single-threaded request series: the fault layer's determinism
    // contract (per-(receiver, post) streams in program order) must make
    // every retry/redraw decision — and so every span — replay identically.
    for (int i = 0; i < 6; ++i) {
      const auto& post = (i % 2 == 0) ? rig.c1_post_ : rig.c2_post_;
      const Knowledge knowledge = (i == 4)
                                      ? Knowledge::partial(rig.ctx_, 1, krng)
                                      : Knowledge::full(rig.ctx_);
      (void)rig.session_.access_with_retries(rig.receivers_[i % 2], post, knowledge,
                                             sp::net::pc_profile());
      auto traces = tracer.drain();
      EXPECT_EQ(traces.size(), 1u);
      for (const auto& t : traces) shapes.push_back(tree_shape(t));
    }
    return shapes;
  };

  const TracerOn tracer_on;
  // The knowledge DRBG is re-seeded identically for both runs; everything
  // else (session seed, fault schedule) comes from the config.
  const auto first = run("x");
  const auto second = run("x");
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "request " << i << " replayed a different tree";
  }
}

TEST(TracePropagation, ParallelAccessPropagatesThroughPoolAndVerifyQueue) {
  sp::core::SessionConfig cfg = toy_config("trace-parallel");
  FanoutRig rig(cfg, 3);
  const TracerOn tracer_on;
  auto& tracer = Tracer::global();
  auto& dropped =
      sp::obs::MetricsRegistry::global().counter("sp_trace_spans_dropped_total", "");
  const auto dropped0 = dropped.value();

  // Six requests from three caller threads; thread t drives receiver t.
  std::vector<sp::core::AccessResult> results(6);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 3; ++t) {
    callers.emplace_back([&rig, &results, t] {
      for (std::size_t i = t; i < results.size(); i += 3) {
        results[i] = rig.session_.access_with_retries(
            rig.receivers_[t], (i % 2 == 0) ? rig.c1_post_ : rig.c2_post_,
            Knowledge::full(rig.ctx_), sp::net::pc_profile(), 1);
      }
    });
  }
  for (std::thread& c : callers) c.join();
  for (const auto& r : results) EXPECT_TRUE(r.success());

  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 6u);
  for (const TraceData& t : traces) {
    EXPECT_EQ(t.root_name, "sp.request");
    const SpanRecord& root = t.spans.back();
    EXPECT_EQ(root.parent_id, 0u) << "root must finish last";
    EXPECT_FALSE(spans_named(t, "sp.access").empty());
    // The SP's Verify runs on the request thread: no hop, so no children.
    const auto verifies = spans_named(t, "sp.verify");
    ASSERT_FALSE(verifies.empty());
    for (const SpanRecord* v : verifies) {
      for (const auto& s : t.spans) {
        EXPECT_NE(s.parent_id, v->span_id) << s.name << " nests under sp.verify";
      }
    }
    // The C2 KeyGen jobs and leaf Miller loops fork-join over the session's
    // pool: every job is a pool.task under its phase, whichever thread ran
    // it, and ends inside the request.
    const bool c2 = !spans_named(t, "c2.access").empty();
    EXPECT_EQ(spans_named(t, "pool.task").empty(), !c2);
    for (const char* phase : {"c2.keygen", "c2.decrypt"}) {
      for (const SpanRecord* s : spans_named(t, phase)) {
        const SpanRecord* parent = span_by_id(t, s->parent_id);
        ASSERT_NE(parent, nullptr);
        EXPECT_EQ(parent->name, "c2.access");
      }
    }
    for (const SpanRecord* task : spans_named(t, "pool.task")) {
      const SpanRecord* parent = span_by_id(t, task->parent_id);
      ASSERT_NE(parent, nullptr);
      EXPECT_TRUE(parent->name == "c2.keygen" || parent->name == "c2.decrypt") << parent->name;
      EXPECT_LE(task->end_ns, root.end_ns);
    }
    // Tree integrity: every parent id resolves inside the same trace.
    for (const auto& s : t.spans) {
      if (s.parent_id != 0) {
        EXPECT_NE(span_by_id(t, s.parent_id), nullptr)
            << s.name << " has a dangling parent";
      }
    }
  }
  // No helper span ended after its request sealed.
  EXPECT_EQ(dropped.value(), dropped0);
}

/// Every sp_phase_latency_ms series and its count, read off a scrape.
std::map<std::string, std::uint64_t> phase_counts() {
  std::map<std::string, std::uint64_t> out;
  const std::string text = sp::obs::MetricsRegistry::global().to_prometheus();
  const std::string prefix = "sp_phase_latency_ms_count{phase=\"";
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const std::size_t name_at = at + prefix.size();
    const std::size_t quote = text.find('"', name_at);
    const std::size_t value_at = text.find(' ', quote) + 1;
    out[text.substr(name_at, quote - name_at)] =
        std::stoull(text.substr(value_at, text.find('\n', value_at) - value_at));
  }
  return out;
}

TEST(TracePropagation, EveryPhaseSeriesThatMovedHasASpanOfItsName) {
  sp::core::Session session(toy_config("trace-phases"));
  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);
  const sp::core::Context ctx = sp::testsupport::party_context();
  const TracerOn tracer_on;
  const auto before = phase_counts();
  std::string c1_post;
  std::string c2_post;
  {
    // Shares root no trace of their own; this one carries their phases.
    const sp::obs::Span root = Tracer::global().start_trace("test.shares");
    const sp::obs::ContextGuard guard(root.context());
    c1_post = session.share_c1(sharer, sp::crypto::to_bytes("c1"), ctx, 2, 4,
                               sp::net::pc_profile())
                  .post_id;
    c2_post = session.share_c2(sharer, sp::crypto::to_bytes("c2"), ctx, 2, sp::net::pc_profile())
                  .post_id;
  }
  for (const std::string& post : {c1_post, c2_post}) {
    EXPECT_TRUE(session
                    .access_with_retries(receiver, post, Knowledge::full(ctx),
                                         sp::net::pc_profile())
                    .success());
  }
  std::set<std::string> span_names;
  for (const TraceData& t : Tracer::global().drain()) {
    for (const auto& s : t.spans) span_names.insert(s.name);
  }
  std::size_t moved = 0;
  for (const auto& [phase, count] : phase_counts()) {
    const auto it = before.find(phase);
    if (count == (it == before.end() ? 0 : it->second)) continue;
    ++moved;
    EXPECT_TRUE(span_names.count(phase) != 0) << "phase " << phase << " has no span";
  }
  EXPECT_EQ(moved, 15u) << "two shares and two grants run every serving phase";
}

TEST(TracePropagation, WalGroupCommitLinksBackToTheOriginRequest) {
  const sp::testsupport::TempDir tmp;  // outlives the session below
  sp::core::SessionConfig cfg = toy_config("trace-wal");
  sp::core::PersistenceConfig persist;
  persist.dir = tmp.str();
  cfg.persistence = persist;
  sp::core::Session session(cfg);
  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);

  const TracerOn tracer_on;
  auto& tracer = Tracer::global();
  const sp::core::Context ctx = sp::testsupport::party_context();
  sp::obs::TraceId origin_trace_id;
  {
    sp::obs::Span root = Tracer::global().start_trace("test.share");
    ASSERT_TRUE(root.recording());
    origin_trace_id = root.context().trace_id();
    const sp::obs::ContextGuard guard(root.context());
    (void)session.share_c1(sharer, sp::crypto::to_bytes("durable object"), ctx, 2, 4,
                           sp::net::pc_profile());
  }

  // The group-commit span finishes on the WAL writer thread shortly after
  // the durable wait unblocks — poll the collector briefly.
  std::vector<TraceData> collected;
  const TraceData* origin = nullptr;
  const TraceData* commit = nullptr;
  for (int i = 0; i < 100 && (origin == nullptr || commit == nullptr); ++i) {
    auto drained = tracer.drain();
    for (auto& t : drained) collected.push_back(std::move(t));
    for (const auto& t : collected) {
      if (t.root_name == "test.share") origin = &t;
      if (t.root_name == "wal.group_commit") commit = &t;
    }
    if (origin == nullptr || commit == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_NE(origin, nullptr);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(origin->id, origin_trace_id);

  const auto enqueues = spans_named(*origin, "wal.enqueue");
  ASSERT_FALSE(enqueues.empty()) << "share never tagged a WAL record with its trace";
  const SpanRecord* commit_root = span_by_id(*commit, 1);
  ASSERT_NE(commit_root, nullptr);
  ASSERT_FALSE(commit_root->links.empty());
  bool linked_to_origin = false;
  for (const auto& link : commit_root->links) {
    if (link.trace == origin_trace_id) {
      linked_to_origin = true;
      const bool matches_enqueue =
          std::any_of(enqueues.begin(), enqueues.end(),
                      [&](const SpanRecord* e) { return e->span_id == link.span; });
      EXPECT_TRUE(matches_enqueue) << "batch link does not point at a wal.enqueue span";
    }
  }
  EXPECT_TRUE(linked_to_origin);
}

}  // namespace
