// Deterministic fault injection for the serving stack.
//
// The paper measured its protocols on a real, flaky testbed and calls out
// "instability ... due to the unpredictability of the communication network
// speed"; related provider-mediated OSN designs treat provider and network
// failure as the common case. Until this layer existed, no transfer in the
// repo could fail — every error path in the serving core was dead code. This
// file makes failure a first-class, *replayable* input:
//
//  * `FaultPlan`    — per-op-class probabilities (transfer timeout, latency
//                     spike, transient SP error, partial SP reply, DH fetch
//                     miss, corrupted-blob delivery) plus a seed.
//  * `FaultInjector`— the process-wide schedule. Decisions are a pure
//                     function PRF(seed, request key, op class, op ordinal):
//                     no global RNG, no locks on the draw path, so the same
//                     seed always produces the same fault schedule.
//  * `FaultStream`  — one request's private view of the schedule. Only
//                     `Session` consults it: each decision is drawn at the
//                     point of the request it governs, and the link model,
//                     the SP, the DH and the WAL never see a fault type.
//  * `ServeError` / `Expected<T>` — explicit error results for the serving
//                     paths (no exceptions on the hot path).
//  * `RetryPolicy`  — max attempts, exponential backoff with seeded jitter,
//                     and an overall per-request deadline, used by
//                     Session::access_with_retries.
//
// Determinism contract (DESIGN.md "Fault model & retry semantics"): a
// request's fault outcomes depend only on (plan seed, receiver id, post id,
// the per-(receiver, post) request ordinal, and the request's own op order).
// Any workload in which each (receiver, post) request series is issued from
// one thread in program order is therefore byte-identical across runs — even
// when eight such series interleave on eight threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::net {

// ---------------------------------------------------------------- errors

/// Why a serving attempt failed. The transient kinds are retryable (a fresh
/// attempt may succeed); the terminal kinds are not.
enum class ServeError : std::uint8_t {
  kTimeout,           ///< a transfer timed out (transient)
  kSpUnavailable,     ///< transient SP error / reply too partial to serve
  kDhMiss,            ///< DH fetch failed: object unreachable or missing (transient)
  kCorruptedBlob,     ///< delivered blob failed authentication (transient)
  kDeadlineExceeded,  ///< retry budget exhausted against the deadline (terminal)
};

[[nodiscard]] const char* to_string(ServeError err);

/// Retry classification: retrying can help for network/provider blips, never
/// for an exceeded deadline.
[[nodiscard]] bool is_transient(ServeError err);

/// Minimal value-or-error result for the serving paths. Modeled on
/// std::expected (not available pre-C++23): either holds a T or a ServeError,
/// never both, never neither.
template <typename T, typename E = ServeError>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(E error) : state_(error) {}             // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() & { return std::get<T>(state_); }
  [[nodiscard]] const T& value() const& { return std::get<T>(state_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(state_)); }
  [[nodiscard]] E error() const { return std::get<E>(state_); }

 private:
  std::variant<T, E> state_;
};

// ---------------------------------------------------------------- plan

/// Injectable fault classes (metric label values; keep in sync with
/// to_string(FaultKind) and docs/OBSERVABILITY.md).
enum class FaultKind : std::uint8_t {
  kTransferTimeout = 0,
  kLatencySpike,
  kSpError,
  kSpPartialReply,
  kDhMiss,
  kDhCorrupt,
  kCrash,  ///< storage-writer kill point (WAL group commit, PR 8)
};
inline constexpr std::size_t kFaultKindCount = 7;

[[nodiscard]] const char* to_string(FaultKind kind);

/// Per-op-class fault probabilities and shape parameters. A plan is plain
/// data; the schedule it induces is fixed by `seed`.
struct FaultPlan {
  double p_transfer_timeout = 0.0;  ///< a request/response exchange times out
  double p_latency_spike = 0.0;     ///< an exchange pays `latency_spike_ms` extra
  double p_sp_error = 0.0;          ///< SP drops the Verify exchange (transient)
  double p_sp_partial = 0.0;        ///< SP reply loses `partial_drop_frac` of its shares
  double p_dh_miss = 0.0;           ///< DH fetch fails outright
  double p_dh_corrupt = 0.0;        ///< DH delivers a corrupted blob
  /// Storage-writer crash probability per WAL append (kill point: the
  /// process dies mid-batch; recovery replay is what survives it). NOT set
  /// by uniform() — killing the process is opt-in, never part of the
  /// general chaos mix.
  double p_crash = 0.0;

  double transfer_timeout_ms = 400.0;  ///< wasted wait charged for a timed-out exchange
  double latency_spike_ms = 250.0;     ///< extra delay a spiked exchange pays
  double partial_drop_frac = 0.5;      ///< fraction of granted shares a partial reply loses

  std::string seed = "sp-faults";

  /// All probabilities zero (the schedule never fires).
  [[nodiscard]] static FaultPlan none();
  /// Every fault class at probability `rate` — the chaos-suite workhorse.
  [[nodiscard]] static FaultPlan uniform(double rate, std::string schedule_seed = "sp-faults");
};

// ---------------------------------------------------------------- injector

class FaultInjector;

/// One request's deterministic fault tape. Created by
/// FaultInjector::stream(); single-threaded by construction (each serving
/// request owns exactly one). Draws advance private per-class ordinals, so
/// the i-th transfer of a given request always lands on the same schedule
/// slot regardless of what other requests are doing.
class FaultStream {
 public:
  struct TransferFault {
    std::optional<ServeError> fault;  ///< kTimeout when the exchange is lost
    double extra_ms = 0.0;            ///< latency-spike surcharge otherwise
  };

  /// Fault decision for this request's next request/response exchange.
  [[nodiscard]] TransferFault next_transfer();
  /// True = this request's next SP exchange hits a transient outage.
  [[nodiscard]] bool next_sp_error();
  /// How many of `n_shares` granted shares a partial SP reply drops
  /// (0 = reply intact).
  [[nodiscard]] std::size_t next_sp_partial(std::size_t n_shares);
  /// Fault decision for this request's next DH fetch.
  [[nodiscard]] std::optional<ServeError> next_dh();
  /// True = the storage writer dies at this append (PRF-scheduled kill
  /// point). Crash tests hand the WAL writer a kill-point predicate that
  /// draws this once per record, so the same plan seed always crashes at
  /// the same byte offset of the same batch.
  [[nodiscard]] bool next_crash();
  /// Deterministic unit draw in [0, 1) for auxiliary randomness that must
  /// replay with the schedule (e.g. retry-backoff jitter).
  [[nodiscard]] double jitter_unit(std::uint64_t index) const;

 private:
  friend class FaultInjector;
  FaultStream(const FaultInjector* injector, std::array<std::uint8_t, 32> base,
              bool record = true);

  [[nodiscard]] double unit(std::uint8_t op_class, std::uint64_t index) const;

  const FaultInjector* injector_;
  std::array<std::uint8_t, 32> base_;  ///< H(seed, receiver, post, ordinal)
  std::array<std::uint64_t, 5> cursors_{};  ///< transfer / sp / partial / dh / crash ordinals
  bool record_ = true;  ///< false for digest replay tapes: draw, don't count
};

/// Process-wide fault schedule. Thread-safe: stream() takes one short mutex
/// to assign the per-(receiver, post) request ordinal; everything else is
/// pure computation plus relaxed atomic bookkeeping.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The fault tape for one serving request, keyed by (receiver, post) plus
  /// an internal per-key ordinal — the request's retry attempts get fresh
  /// (but still deterministic) tapes by calling stream() again.
  [[nodiscard]] FaultStream stream(std::uint64_t receiver, std::string_view post_id) const;
  /// A tape keyed by an arbitrary label (benches / unit tests).
  [[nodiscard]] FaultStream stream_for_label(std::string_view label) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Total faults injected so far, per kind / overall. The chaos suite
  /// cross-checks these against the sp_faults_injected_total metric deltas.
  [[nodiscard]] std::uint64_t injected(FaultKind kind) const;
  [[nodiscard]] std::uint64_t injected_total() const;

  /// Hex fingerprint of the schedule: every decision for the first
  /// `streams` request ordinals of `label` x the first `ops` op ordinals of
  /// every class. Two injectors agree on a digest iff they agree on every
  /// covered decision — the chaos suite's byte-identical replay check.
  [[nodiscard]] std::string schedule_digest(std::string_view label, std::uint64_t streams,
                                            std::uint64_t ops) const;

 private:
  friend class FaultStream;

  [[nodiscard]] std::array<std::uint8_t, 32> stream_base(std::string_view key,
                                                         std::uint64_t ordinal) const;
  void record(FaultKind kind) const;

  FaultPlan plan_;
  mutable sp::Mutex ordinals_mutex_;
  mutable std::map<std::string, std::uint64_t> ordinals_
      SP_GUARDED_BY(ordinals_mutex_);  ///< per-(receiver,post) request counter
  mutable std::array<std::atomic<std::uint64_t>, kFaultKindCount> injected_{};
};

// ---------------------------------------------------------------- retry

/// Retry/backoff/deadline policy for the serving paths. All times are in the
/// simulation's modeled milliseconds (the same clock CostLedger accumulates),
/// so retry behavior is deterministic — nothing sleeps.
struct RetryPolicy {
  int max_attempts = 4;          ///< total serving attempts (first try included)
  double base_backoff_ms = 25.0; ///< wait before the first retry
  double backoff_factor = 2.0;   ///< exponential growth per retry
  double max_backoff_ms = 1000.0;///< cap on a single backoff wait
  double jitter_frac = 0.25;     ///< backoff is scaled by [1, 1 + jitter_frac)
  double deadline_ms = 15000.0;  ///< overall modeled budget for one request

  /// Backoff before retry `retry_index` (0-based), with `jitter_unit` drawn
  /// uniformly from [0, 1): min(base * factor^i, cap) * (1 + frac * u).
  [[nodiscard]] double backoff_ms(int retry_index, double jitter_unit) const;
};

}  // namespace sp::net
