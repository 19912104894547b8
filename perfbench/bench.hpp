// Shared declarations of the benchmark of record (README.md in this
// directory describes the workloads and every metric).
//
// The driver talks to the library only through its public API: Session for
// the timed traffic, and each layer's public functions for the unit probes
// of the traced run. Every latency is host wall time, steady_clock in ns,
// taken by the driver around the in-process call; the modeled network time
// of the paper's Fig. 10 comes from the request's CostLedger and is never
// slept.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"

namespace perfbench {

using sp::crypto::Bytes;
using sp::crypto::Drbg;

enum class Workload { kPaperFeed, kPhotoAlbum, kGuessChurn };

/// Fixed shape of one workload. Only the seed varies between runs.
struct Spec {
  Workload kind = Workload::kPaperFeed;
  std::string name;
  std::size_t corpus_posts = 0;  ///< preloaded posts, indexed by popularity rank
  std::size_t object_bytes = 0;
  bool with_c2 = false;      ///< C2 on even popularity ranks; otherwise C1 only
  std::size_t n = 0;         ///< fixed N and k; 0 = spread over the ranks
  std::size_t k = 0;
  bool full_knowledge = false;  ///< honest receivers know all N answers
  bool durable = false;
  double zipf_s = 1.1;
  /// Op mix by count: below-threshold guesses, sharer writes, and the rest
  /// honest accesses.
  double guess_fraction = 0;
  double write_fraction = 0;
  /// > 0: open loop with Poisson arrivals at this many requests per second.
  double offered_rate = 0;
};

[[nodiscard]] const Spec* find_spec(const std::string& name);

/// One post the driver shared and can check grants against.
struct Post {
  std::string id;
  bool c2 = false;
  std::size_t n = 0;
  std::size_t k = 0;
  sp::core::Context ctx;
  Bytes object;
  sp::osn::UserId sharer = 0;
  /// Serializes the driver's own writes (refresh, revoke) to this post, so a
  /// revoke's probe sees its own revoke and not a racing refresh.
  std::mutex write_mutex;
  /// Revoke-then-refresh writes started / finished on this post; an access
  /// overlaps a revoked window iff started(at its end) > done(at its start).
  std::atomic<std::uint64_t> revokes_started{0};
  std::atomic<std::uint64_t> revokes_done{0};
};

/// A built set-up: the session, its users and the preloaded corpus.
struct World {
  std::string dir;  ///< durable root; empty for in-memory hosts
  std::unique_ptr<sp::core::Session> session;
  std::vector<sp::osn::UserId> sharers;
  std::vector<sp::osn::UserId> receivers;
  std::vector<std::unique_ptr<Post>> corpus;  ///< index = popularity rank
  std::mutex fresh_mutex;
  std::vector<std::unique_ptr<Post>> fresh;  ///< posts shared during the run

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();
};

/// Builds a world for `spec` and `seed`; `dir` is the durable root (unused
/// for in-memory workloads). Shares the corpus from `threads` threads.
[[nodiscard]] std::unique_ptr<World> build_world(const Spec& spec, std::uint64_t seed,
                                                 int instance, const std::string& dir,
                                                 unsigned threads);

/// Everything one measured phase records.
struct Samples {
  std::vector<double> access_ns;  ///< granted accesses
  std::vector<double> deny_ns;    ///< below-threshold requests
  std::vector<double> write_ns;   ///< share / refresh / revoke-then-refresh
  std::vector<double> refresh_ns; ///< the refresh calls alone
  std::vector<double> access_local_ms;
  std::vector<double> access_net_ms;
  std::vector<double> access_bytes;
  std::vector<double> late_ns;    ///< open loop: start minus due time
  double service_ns = 0;          ///< sum of call durations, all ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t honest_requests = 0;
  std::uint64_t honest_attempts = 0;
  std::uint64_t honest_granted = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> messages;  ///< first few failures, for stderr
  double elapsed_s = 0;

  void merge(Samples&& other);
  void fail(bool violation, std::string message);
};

/// Runs the workload's traffic for `seconds` and returns what it recorded.
/// Every op is checked; `seed_label` separates the request streams of
/// several phases of one run.
[[nodiscard]] Samples run_phase(const Spec& spec, World& world, std::uint64_t seed,
                                const std::string& seed_label, double seconds,
                                unsigned threads);

/// Untimed checks after a run: every sampled fresh post (or, with `all`,
/// every post) must grant its plaintext to a full-knowledge receiver.
void verify_posts(World& world, bool all, Samples& out);

/// `count` honest requests of the workload's kind, serially, with tracing
/// off: the quiescent pass the per-access counter ratios are taken over.
struct QuietPass {
  std::uint64_t requests = 0;
  std::uint64_t c2_granted = 0;
};
[[nodiscard]] QuietPass quiet_pass(const Spec& spec, World& world, std::uint64_t seed,
                                   std::size_t count, Samples& out);

// ---- per-layer attribution (layers.cpp) -----------------------------------

/// Process-wide counter/histogram readings the per-layer metrics take deltas
/// of. Read through the same names and labels the library registers.
struct Counters {
  std::map<std::string, double> v;
  [[nodiscard]] static Counters read();
  [[nodiscard]] double delta(const Counters& before, const std::string& key) const;
  /// Adds after - before to this (a sum of deltas over several slices).
  void add_delta(const Counters& before, const Counters& after);
  [[nodiscard]] double get(const std::string& key) const;
};

/// Span aggregates of the traced phase, keyed by span name.
struct SpanTotals {
  struct Entry {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Entry> by_name;
  [[nodiscard]] double mean_ms(const std::string& name) const;
  [[nodiscard]] const Entry& get(const std::string& name) const;
};

/// Drains the tracer on its own thread while a traced phase runs, so no ring
/// wraps; folds every drained trace into SpanTotals.
class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;
  /// Stops draining, drains the rest and returns the totals.
  SpanTotals finish();

 private:
  void absorb();
  SpanTotals totals_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Unit probes of single layers at the session's parameter preset.
struct Probes {
  double field_mul_ns = 0;
  double field_inv_us = 0;
  double pairing_ms = 0;
  double scalar_mul_us = 0;
  double sss_reconstruct_us = 0;
  double open_mb_s = 0;
  double seal_mb_s = 0;
  double open_object_ms = 0;  ///< open at the workload's own object size
  bool ok = true;             ///< every probe output matched its input
};
[[nodiscard]] Probes run_probes(const sp::ec::Curve& curve, std::size_t k,
                                std::size_t object_bytes, std::uint64_t seed);

// ---- small helpers --------------------------------------------------------

[[nodiscard]] double now_s();
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median_of(std::vector<double> values);


}  // namespace perfbench
