#include "core/session.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

#include "core/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {

using net::CpuTimer;

namespace {

// The paper's Fig. 10 phases a session times (construction2.cpp defines the
// three inside C2 Access). Each observes its sp_phase_latency_ms series and,
// in a traced request, is the span of the same name.
const obs::Phase kC1Upload{"c1.upload"};
const obs::Phase kC1Sign{"c1.sign"};
const obs::Phase kC2Upload{"c2.upload"};
const obs::Phase kC1Display{"c1.display"};
const obs::Phase kC1AnswerHashes{"c1.answer_hashes"};
const obs::Phase kC1SigVerify{"c1.sig_verify"};
const obs::Phase kC1Interpolate{"c1.interpolate"};
const obs::Phase kC2Display{"c2.display"};
const obs::Phase kC2AnswerHashes{"c2.answer_hashes"};
const obs::Phase kC2Access{"c2.access"};
const obs::Phase kSpVerify{"sp.verify"};
const obs::Phase kDhFetch{"dh.fetch"};

/// One end-to-end access outcome: its request count and latency series.
struct Outcome {
  obs::Counter& requests;
  obs::Histogram& latency_ms;

  static Outcome of(const char* scheme, const char* result) {
    auto& reg = obs::MetricsRegistry::global();
    return {reg.counter("sp_access_requests_total", "Access requests by scheme and outcome",
                        {{"result", result}, {"scheme", scheme}}),
            reg.histogram("sp_access_latency_ms",
                          "End-to-end access wall time (local work only)",
                          obs::Histogram::default_latency_bounds_ms(),
                          {{"result", result}, {"scheme", scheme}})};
  }
};

/// Serving-stack instruments (docs/OBSERVABILITY.md catalog).
struct SessionMetrics {
  // End-to-end outcomes, [c1, c2] x [granted, denied], so denied requests
  // never land in success latencies.
  Outcome outcomes[2][2];

  // Sharer-side traffic and the retry loop of access_with_retries.
  obs::Counter& shares_c1;
  obs::Counter& shares_c2;
  obs::Counter& refreshes;
  obs::Counter& revokes;
  obs::Counter& access_denied;
  obs::Counter& access_granted;

  // Fault-retry layer (DESIGN.md "Fault model & retry semantics").
  obs::Counter& retries_draw;
  obs::Counter& retries_fault;
  obs::Counter& deadline_exceeded;

  static SessionMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static SessionMetrics m{
        {{Outcome::of("c1", "granted"), Outcome::of("c1", "denied")},
         {Outcome::of("c2", "granted"), Outcome::of("c2", "denied")}},
        reg.counter("sp_share_requests_total", "Share (upload) operations by scheme",
                    {{"scheme", "c1"}}),
        reg.counter("sp_share_requests_total", "", {{"scheme", "c2"}}),
        reg.counter("sp_refresh_requests_total", "Puzzle refresh operations"),
        reg.counter("sp_revoke_requests_total",
                    "Puzzle revocations (object pulled from the DH pending refresh)"),
        reg.counter("sp_access_denied_total",
                    "access_with_retries calls that exhausted every draw denied"),
        reg.counter("sp_access_granted_total",
                    "access_with_retries calls that ended in a grant"),
        reg.counter("sp_retries_total", "Serving retries by phase", {{"phase", "draw"}}),
        reg.counter("sp_retries_total", "", {{"phase", "fault"}}),
        reg.counter("sp_deadline_exceeded_total",
                    "Requests whose retry budget ran out against the modeled deadline"),
    };
    return m;
  }
};

/// The receiver's last local step: `open` decrypts the delivered object
/// under `phase`, charged to `ledger`, and any fork-join it runs traces
/// under the phase. Granted but undecryptable means the delivered bytes are
/// bad (injected corruption or a tampering host), so the result reports
/// kCorruptedBlob, never a silent empty object.
template <typename Open>
void open_object(const obs::Phase& phase, net::CostLedger& ledger, AccessResult& result,
                 Open&& open) {
  obs::Span span(phase);
  try {
    const obs::ContextGuard children(span.context());
    result.object = open();
  } catch (const std::exception&) {
    result.object = std::nullopt;  // delivered bytes too mangled to parse
  }
  ledger.add_local_measured(span.end());
  if (!result.object) result.error = net::ServeError::kCorruptedBlob;
}

/// Each of Construction 2's file transfers is a separately spawned cURL
/// HTTPS request in the paper: a cold connection (DNS + TCP + TLS ≈ 3 round
/// trips), the "additional overhead caused by the cURL library" the paper
/// blames for I2's network delay. C1's single warm-browser XHR pays 1.
constexpr int kColdCurlRoundTrips = 3;

storage::DurableStore::Options host_store_options(const PersistenceConfig& p, const char* sub) {
  storage::DurableStore::Options opts;
  opts.dir = p.dir + "/" + sub;
  opts.wal.fsync = p.fsync;
  opts.checkpoint_wal_bytes = p.checkpoint_wal_bytes;
  return opts;
}

// Both factories rely on guaranteed copy elision: the hosts are pinned
// (their tables' mutexes), so the conditional construction must happen
// directly in the member's storage.
osn::ServiceProvider make_sp(const std::optional<PersistenceConfig>& p) {
  if (p) return osn::ServiceProvider(host_store_options(*p, "sp"));
  return osn::ServiceProvider();
}

osn::StorageHost make_dh(const std::optional<PersistenceConfig>& p) {
  if (p) return osn::StorageHost(host_store_options(*p, "dh"));
  return osn::StorageHost();
}

}  // namespace

Session::Session(SessionConfig config)
    : config_(std::move(config)),
      curve_(ec::preset_params(config_.pairing_preset)),
      c1_(std::make_unique<Construction1>(
          // Shamir field = the pairing base field: one parameter set drives
          // both constructions, as one security level should.
          curve_.fp(), curve_)),
      c2_(std::make_unique<Construction2>(curve_)),
      sp_(make_sp(config_.persistence)),
      dh_(make_dh(config_.persistence)),
      network_(config_.link),
      injector_(config_.faults ? std::make_unique<net::FaultInjector>(*config_.faults) : nullptr),
      stream_key_(crypto::Sha256::hash(crypto::to_bytes(config_.seed + "-streams"))),
      leaf_pool_(std::max<std::size_t>(1, std::thread::hardware_concurrency())) {}

crypto::Drbg Session::open_stream() const {
  return crypto::Drbg(stream_key_.span(), next_stream_.fetch_add(1));
}

osn::UserId Session::register_user(const std::string& name) {
  const osn::UserId id = graph_.add_user(name);
  crypto::Drbg key_rng = open_stream();
  // Emplace straight into the map (no intermediate KeyPair copy that would
  // leave an unwiped secret on the stack); keygen under the lock is fine —
  // registration is rare compared to serving.
  const sp::MutexLock lock(keys_mutex_);
  user_keys_.try_emplace(id, c1_->schnorr().keygen(key_rng));
  return id;
}

void Session::befriend(osn::UserId a, osn::UserId b) { graph_.befriend(a, b); }

const sig::KeyPair& Session::keys_of(osn::UserId user) {
  // Map nodes are stable and keys are never erased, so the reference stays
  // valid after the lookup lock drops.
  const sp::MutexLock lock(keys_mutex_);
  return user_keys_.at(user).keys;
}

const ec::FixedBase& Session::sharer_key(osn::UserId sharer) const {
  const UserKeys* entry = nullptr;
  {
    const sp::MutexLock lock(keys_mutex_);
    entry = &user_keys_.at(sharer);
  }
  // Built outside the lookup lock: first grants against one sharer wait on
  // that sharer's flag, and no other user's lookup waits on the build.
  std::call_once(entry->table_once, [this, entry] {
    entry->table = std::make_unique<const ec::FixedBase>(curve_, entry->keys.public_key);
  });
  return *entry->table;
}

Session::Published Session::publish_c1(const sig::KeyPair& keys,
                                       std::span<const std::uint8_t> object, const Context& ctx,
                                       std::size_t k, std::size_t n, net::CostLedger& ledger,
                                       crypto::Drbg& rng) {
  // -- local: Upload subroutine (crypto) --------------------------------
  obs::Span upload(kC1Upload);
  auto result = c1_->upload(object, ctx, k, n, keys, rng);
  ledger.add_local_measured(upload.end());

  // -- network: store O_{K_O} at the DH ---------------------------------
  ledger.add_network(network_.transfer_ms(result.encrypted_object.size(), rng));
  ledger.add_bytes(result.encrypted_object.size());
  Published out;
  out.entry.kind = SchemeKind::kConstruction1;
  out.entry.url = dh_.store(std::move(result.encrypted_object));

  // -- local: patch URL_O and re-sign (DoS countermeasure) --------------
  obs::Span sign(kC1Sign);
  result.puzzle.url = out.entry.url;
  c1_->sign_puzzle(result.puzzle, keys);
  out.record = result.puzzle.serialize();
  ledger.add_local_measured(sign.end());

  // -- network: upload Z_O to the SP ------------------------------------
  ledger.add_network(network_.transfer_ms(out.record.size(), rng));
  ledger.add_bytes(out.record.size());
  out.entry.puzzle = std::move(result.puzzle);
  return out;
}

Session::Published Session::publish_c2(std::span<const std::uint8_t> object, const Context& ctx,
                                       std::size_t k, net::CostLedger& ledger,
                                       crypto::Drbg& rng) {
  // -- local: Setup + Encrypt + Perturb (the heavy CP-ABE work) ----------
  obs::Span upload(kC2Upload);
  auto files = c2_->upload(object, ctx, k, rng);
  ledger.add_local_measured(upload.end());

  // -- network: the paper's four cURL uploads (details, pub, master -> SP;
  //    ciphertext -> DH), each on a cold connection.
  Published out;
  out.record = files.perturbed_tree.serialize();
  for (const std::size_t bytes :
       {out.record.size(), files.public_key.size(), files.master_key.size()}) {
    ledger.add_network(network_.transfer_ms(bytes, rng, kColdCurlRoundTrips));
    ledger.add_bytes(bytes);
  }
  ledger.add_network(network_.transfer_ms(files.ciphertext.size(), rng, kColdCurlRoundTrips));
  ledger.add_bytes(files.ciphertext.size());
  out.entry.kind = SchemeKind::kConstruction2;
  out.entry.url = dh_.store(std::move(files.ciphertext));
  out.entry.c2_files = std::move(files);
  return out;
}

ShareReceipt Session::share_c1(osn::UserId sharer, std::span<const std::uint8_t> object,
                               const Context& ctx, std::size_t k, std::size_t n,
                               const net::DeviceProfile& device, osn::Visibility visibility) {
  const sig::KeyPair& keys = keys_of(sharer);
  crypto::Drbg op_rng = open_stream();
  net::CostLedger ledger(device);
  SessionMetrics::get().shares_c1.inc();
  Published pub = publish_c1(keys, object, ctx, k, n, ledger, op_rng);
  return finish_share(sharer, visibility, std::move(pub), ledger, object.size());
}

ShareReceipt Session::share_c2(osn::UserId sharer, std::span<const std::uint8_t> object,
                               const Context& ctx, std::size_t k,
                               const net::DeviceProfile& device, osn::Visibility visibility) {
  crypto::Drbg op_rng = open_stream();
  net::CostLedger ledger(device);
  SessionMetrics::get().shares_c2.inc();
  Published pub = publish_c2(object, ctx, k, ledger, op_rng);
  return finish_share(sharer, visibility, std::move(pub), ledger, object.size());
}

ShareReceipt Session::finish_share(osn::UserId sharer, osn::Visibility visibility,
                                   Published pub, const net::CostLedger& ledger,
                                   std::size_t object_bytes) {
  const std::string post_id = sp_.store_record(pub.record);
  const char* headline = pub.entry.kind == SchemeKind::kConstruction1
                             ? "shared a social puzzle"
                             : "shared a social puzzle (ABE)";
  pub.entry.sharer = sharer;
  pub.entry.visibility = visibility;
  {
    const sp::UniqueLock lock(puzzles_mutex_);
    puzzles_.emplace(post_id, std::move(pub.entry));
  }
  graph_.post(osn::Post{sharer, post_id, headline, visibility});
  return ShareReceipt{post_id, ledger, object_bytes};
}

ShareReceipt Session::refresh(osn::UserId sharer, const std::string& post_id,
                              std::span<const std::uint8_t> object, const Context& ctx,
                              const net::DeviceProfile& device) {
  // Single-writer path: exclusive for the whole body so concurrent accesses
  // see the old puzzle until the new one (record, blob, registry entry) is
  // complete. See DESIGN.md for the lock order.
  const sp::UniqueLock registry_lock(puzzles_mutex_);
  auto it = puzzles_.find(post_id);
  if (it == puzzles_.end()) throw std::out_of_range("Session::refresh: unknown post " + post_id);
  StoredPuzzle& stored = it->second;
  if (stored.sharer != sharer) {
    throw std::logic_error("Session::refresh: only the original sharer can refresh");
  }

  const std::string old_url = stored.url;
  net::CostLedger ledger(device);
  crypto::Drbg op_rng = open_stream();
  SessionMetrics::get().refreshes.inc();

  Published pub = stored.kind == SchemeKind::kConstruction1
                      ? publish_c1(keys_of(sharer), object, ctx, stored.puzzle->threshold,
                                   stored.puzzle->n(), ledger, op_rng)
                      : publish_c2(object, ctx, stored.c2_files->threshold, ledger, op_rng);
  sp_.replace_record(post_id, pub.record);
  stored.puzzle = std::move(pub.entry.puzzle);
  stored.c2_files = std::move(pub.entry.c2_files);
  stored.url = std::move(pub.entry.url);

  // Retire the stale ciphertext so leaked keys can't fetch it later, unless
  // it is already gone (a revoked post, or a DH that lost it).
  if (dh_.exists(old_url)) dh_.remove(old_url);
  return ShareReceipt{post_id, ledger, object.size()};
}

void Session::revoke(osn::UserId sharer, const std::string& post_id) {
  // Same single-writer discipline as refresh: exclusive for the whole body,
  // so a concurrent access either completed against the live object or
  // starts against the revoked state.
  const sp::UniqueLock registry_lock(puzzles_mutex_);
  auto it = puzzles_.find(post_id);
  if (it == puzzles_.end()) throw std::out_of_range("Session::revoke: unknown post " + post_id);
  StoredPuzzle& stored = it->second;
  if (stored.sharer != sharer) {
    throw std::logic_error("Session::revoke: only the original sharer can revoke");
  }
  // A post is revoked exactly when its blob is gone from the DH, so a second
  // revoke (or one after the DH lost the blob) has nothing left to pull.
  if (!dh_.exists(stored.url)) return;
  SessionMetrics::get().revokes.inc();
  dh_.remove(stored.url);
}

AccessResult Session::access(osn::UserId receiver, const std::string& post_id,
                             const Knowledge& knowledge, const net::DeviceProfile& device) const {
  // Root-or-child: a direct access() call roots its own trace; one made
  // inside access_with_retries' attempt context nests under that attempt.
  const obs::TraceContext enclosing = obs::Tracer::current();
  obs::Span root = enclosing.sampled() ? obs::Span(enclosing, "sp.access")
                                       : obs::Tracer::global().start_trace("sp.access");
  const obs::TraceContext trace = root.context();
  const obs::ContextGuard trace_guard(trace);
  if (root.recording()) root.add_attr("receiver", static_cast<std::int64_t>(receiver));
  // Shared for the whole request: many accesses proceed in parallel, while
  // refresh (exclusive) waits for in-flight requests and blocks new ones.
  const sp::SharedLock registry_lock(puzzles_mutex_);
  const auto it = puzzles_.find(post_id);
  if (it == puzzles_.end()) throw std::out_of_range("Session::access: unknown post " + post_id);
  const StoredPuzzle& stored = it->second;
  // OSN-level ACL for friends-only posts; public (Twitter-style) posts rely
  // on the puzzle alone — "the context-based access mechanism will add a
  // layer of privacy protection" (§I).
  if (stored.visibility == osn::Visibility::kFriends && receiver != stored.sharer &&
      !graph_.are_friends(receiver, stored.sharer)) {
    throw std::logic_error("Session::access: receiver is not in the sharer's network");
  }
  net::CostLedger ledger(device);
  crypto::Drbg op_rng = open_stream();
  // Each attempt gets its own fault tape: decisions depend only on (plan
  // seed, receiver, post, per-(receiver, post) ordinal), never on thread
  // scheduling. See faults.hpp's determinism contract.
  std::optional<net::FaultStream> fault_tape;
  if (injector_) fault_tape = injector_->stream(receiver, post_id);
  net::FaultStream* faults = fault_tape ? &*fault_tape : nullptr;
  const bool is_c1 = stored.kind == SchemeKind::kConstruction1;
  if (root.recording()) root.add_attr("scheme", is_c1 ? "c1" : "c2");
  CpuTimer wall;
  AccessResult result = is_c1 ? access_c1(stored, knowledge, ledger, op_rng, faults)
                              : access_c2(stored, knowledge, ledger, op_rng, faults);
  result.cost = ledger;
  // End-to-end outcome series. `success()` (granted AND object recovered) is
  // the label, so a granted-but-tampered request counts as denied here.
  // Exemplar-carrying observe: when this request is traced, the latency
  // sample remembers which trace explains it (zero trace id = plain observe).
  const double elapsed = wall.elapsed_ms();
  const obs::TraceId tid = trace.trace_id();
  const Outcome& outcome =
      SessionMetrics::get().outcomes[is_c1 ? 0 : 1][result.success() ? 0 : 1];
  outcome.requests.inc();
  outcome.latency_ms.observe_exemplar(elapsed, tid.hi, tid.lo);
  if (root.recording()) {
    root.add_attr("granted", result.granted ? "true" : "false");
    if (result.error) {
      root.add_attr("error", net::to_string(*result.error));
      root.set_status(net::is_transient(*result.error) ? obs::SpanStatus::kTransientFault
                                                       : obs::SpanStatus::kTerminal);
    }
  }
  return result;
}

AccessResult Session::access_with_retries(osn::UserId receiver, const std::string& post_id,
                                          const Knowledge& knowledge,
                                          const net::DeviceProfile& device, int max_draws) const {
  if (max_draws < 1) throw std::invalid_argument("access_with_retries: max_draws >= 1");
  obs::Span root = obs::Tracer::global().start_trace("sp.request");
  if (root.recording()) root.add_attr("receiver", static_cast<std::int64_t>(receiver));
  const obs::TraceContext root_ctx = root.context();
  SessionMetrics& metrics = SessionMetrics::get();
  const net::RetryPolicy& policy = config_.retry;
  // Backoff jitter replays with the fault schedule (seeded, per-request),
  // so a retried chaos run costs the same modeled time every run.
  std::optional<net::FaultStream> jitter_tape;
  if (injector_) {
    jitter_tape = injector_->stream_for_label("retry-" + std::to_string(receiver) + "-" + post_id);
  }

  net::CostLedger total(device);
  AccessResult result;
  int attempts = 0;
  int draws = 1;          // challenge draws spent (first attempt included)
  int fault_retries = 0;  // transient-fault retries spent
  for (;;) {
    ++attempts;
    // One child span per attempt: the full retry/fault chain is readable off
    // the exported trace (chaos tests pin this shape).
    obs::Span attempt(root_ctx, "sp.attempt");
    if (attempt.recording()) attempt.add_attr("attempt", static_cast<std::int64_t>(attempts));
    const obs::ContextGuard attempt_guard(attempt.context());
    result = access(receiver, post_id, knowledge, device);
    total.merge(result.cost);
    if (result.success()) break;

    if (result.error && net::is_transient(*result.error)) {
      attempt.set_status(obs::SpanStatus::kTransientFault);
      attempt.add_attr("fault", net::to_string(*result.error));
      // Infrastructure blip: retry under the policy's attempt/deadline budget.
      if (attempts >= policy.max_attempts) break;
      const double unit = jitter_tape ? jitter_tape->jitter_unit(
                                            static_cast<std::uint64_t>(fault_retries))
                                      : 0.0;
      const double wait = policy.backoff_ms(fault_retries, unit);
      if (total.total_ms() + wait > policy.deadline_ms) {
        result.error = net::ServeError::kDeadlineExceeded;
        metrics.deadline_exceeded.inc();
        attempt.set_status(obs::SpanStatus::kTerminal);
        attempt.add_attr("deadline", "exceeded");
        break;
      }
      attempt.add_attr("backoff_ms", wait);
      total.add_wait(wait);
      ++fault_retries;
      metrics.retries_fault.inc();
      continue;
    }
    if (result.error) {
      attempt.set_status(obs::SpanStatus::kTerminal);
      attempt.add_attr("fault", net::to_string(*result.error));
      break;  // terminal fault — retrying cannot help
    }

    // Clean denial: C1's DisplayPuzzle drew an unlucky question subset; a
    // fresh draw may cover the receiver's knowledge.
    if (draws >= max_draws) break;
    ++draws;
    attempt.add_attr("redraw", "true");
    metrics.retries_draw.inc();
  }
  result.cost = total;
  result.attempts = attempts;
  if (root.recording()) {
    root.add_attr("attempts", static_cast<std::int64_t>(attempts));
    if (!result.success() && result.error) {
      root.set_status(net::is_transient(*result.error) ? obs::SpanStatus::kTransientFault
                                                       : obs::SpanStatus::kTerminal);
    }
  }
  (result.success() ? metrics.access_granted : metrics.access_denied).inc();
  return result;
}

std::optional<net::ServeError> Session::exchange(std::size_t bytes, int round_trips,
                                                 net::CostLedger& ledger, crypto::Drbg& rng,
                                                 net::FaultStream* faults) const {
  double spike_ms = 0.0;
  if (faults != nullptr) {
    const net::FaultStream::TransferFault fault = faults->next_transfer();
    // A timed-out exchange never reaches the link: no payload moves and no
    // transfer is recorded, only the plan's wasted wait is charged.
    if (fault.fault) {
      ledger.add_wait(injector_->plan().transfer_timeout_ms);
      return fault.fault;
    }
    spike_ms = fault.extra_ms;
  }
  ledger.add_network(network_.transfer_ms(bytes, rng, round_trips) + spike_ms);
  ledger.add_bytes(bytes);
  return std::nullopt;
}

std::optional<net::ServeError> Session::sp_outage(std::size_t response_bytes,
                                                  net::CostLedger& ledger, crypto::Drbg& rng,
                                                  net::FaultStream* faults) const {
  if (faults == nullptr || !faults->next_sp_error()) return std::nullopt;
  ledger.add_network(network_.transfer_ms(response_bytes, rng));
  ledger.add_bytes(response_bytes);
  return net::ServeError::kSpUnavailable;
}

net::Expected<Bytes> Session::fetch_object(const std::string& url,
                                           net::FaultStream* faults) const {
  obs::Span fetch(kDhFetch);
  const std::optional<net::ServeError> injected =
      faults != nullptr ? faults->next_dh() : std::nullopt;
  // An injected miss never reaches the DH; an injected corruption flips one
  // byte of the delivered copy (the object at rest is untouched), so
  // decryption fails downstream exactly like a flaky CDN edge.
  std::optional<Bytes> blob;
  if (injected != net::ServeError::kDhMiss) blob = dh_.fetch(url);
  if (!blob) {
    fetch.set_status(obs::SpanStatus::kTransientFault);
    return net::ServeError::kDhMiss;
  }
  if (injected == net::ServeError::kCorruptedBlob && !blob->empty()) {
    (*blob)[blob->size() / 2] ^= 0x5a;
  }
  return std::move(*blob);
}

AccessResult Session::access_c1(const StoredPuzzle& stored, const Knowledge& knowledge,
                                net::CostLedger& ledger, crypto::Drbg& rng,
                                net::FaultStream* faults) const {
  const Puzzle& puzzle = *stored.puzzle;
  AccessResult result;

  // -- SP: DisplayPuzzle; network: challenge download -------------------
  obs::Span display(kC1Display);
  const auto challenge = Construction1::display_puzzle(puzzle, rng);
  display.end();
  if (const auto err = exchange(challenge.wire_size(), 1, ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  // -- receiver local: AnswerPuzzle (hashing) ----------------------------
  obs::Span answer(kC1AnswerHashes);
  const auto response = Construction1::answer_puzzle(challenge, knowledge);
  ledger.add_local_measured(answer.end());

  if (const auto err = sp_outage(response.wire_size(), ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  // -- network: response up, reply down (one exchange) -------------------
  obs::Span verify(kSpVerify);
  auto reply = Construction1::verify(puzzle, challenge, response.hashes);
  verify.end();
  if (const auto err = exchange(response.wire_size() + reply.wire_size(), 1, ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  result.granted = reply.granted;
  if (!reply.granted) return result;

  // -- partial SP reply: some granted shares are lost in delivery. While
  //    >= k survive the request degrades gracefully (Access only needs
  //    threshold shares); below k the reply is unserviceable.
  if (const std::size_t dropped =
          faults != nullptr ? faults->next_sp_partial(reply.shares.size()) : 0;
      dropped > 0) {
    reply.shares.resize(reply.shares.size() - dropped);
    if (reply.shares.size() < puzzle.threshold) {
      result.granted = false;
      result.error = net::ServeError::kSpUnavailable;
      return result;
    }
  }

  // -- receiver local: verify the sharer's signature on (URL, k, K_Z) ----
  //    against the key the receiver knows the sharer by, with the URL the
  //    reply carried. The first grant against a sharer builds its table.
  obs::Span sig(kC1SigVerify);
  const bool sig_ok =
      c1_->verify_puzzle_signature(sharer_key(stored.sharer), puzzle, reply.url);
  ledger.add_local_measured(sig.end());
  if (!sig_ok) {
    result.granted = false;
    return result;
  }

  // -- network: download O_{K_O} from the DH -----------------------------
  const net::Expected<Bytes> encrypted = fetch_object(reply.url, faults);
  if (!encrypted.ok()) {
    result.error = encrypted.error();
    return result;
  }
  if (const auto err = exchange(encrypted.value().size(), 1, ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  // -- receiver local: Access (unblind, Lagrange, decrypt) --------------
  open_object(kC1Interpolate, ledger, result, [&] {
    return c1_->access(puzzle, challenge, reply, knowledge, encrypted.value());
  });
  return result;
}

AccessResult Session::access_c2(const StoredPuzzle& stored, const Knowledge& knowledge,
                                net::CostLedger& ledger, crypto::Drbg& rng,
                                net::FaultStream* faults) const {
  const auto& files = *stored.c2_files;
  AccessResult result;

  // -- network: download details (τ' questions) --------------------------
  obs::Span display(kC2Display);
  const auto challenge = Construction2::display_puzzle(files.perturbed_tree, files.threshold);
  display.end();
  if (const auto err = exchange(challenge.wire_size(), 1, ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  // -- receiver local: hash answers --------------------------------------
  obs::Span answer(kC2AnswerHashes);
  const auto response = Construction2::answer_puzzle(challenge, knowledge);
  ledger.add_local_measured(answer.end());

  if (const auto err = sp_outage(response.wire_size(), ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  obs::Span verify(kSpVerify);
  const auto reply = Construction2::verify(files.perturbed_tree, files.threshold, challenge,
                                           response, stored.url);
  verify.end();
  if (const auto err =
          exchange(response.wire_size() + reply.wire_size(files), 1, ledger, rng, faults)) {
    result.error = err;
    return result;
  }

  result.granted = reply.granted;
  if (!reply.granted) return result;

  // -- network: three file downloads (CT' from DH; PK, MK from SP), again
  //    one cold cURL connection each in the paper's Qt receiver -----------
  const net::Expected<Bytes> ciphertext = fetch_object(reply.url, faults);
  if (!ciphertext.ok()) {
    result.error = ciphertext.error();
    return result;
  }
  for (const std::size_t bytes :
       {ciphertext.value().size(), files.public_key.size(), files.master_key.size()}) {
    if (const auto err = exchange(bytes, kColdCurlRoundTrips, ledger, rng, faults)) {
      result.error = err;
      return result;
    }
  }

  // -- receiver local: Reconstruct + KeyGen + Decrypt. KeyGen's scalar
  //    multiplications and the batched leaf pairings fork-join over
  //    leaf_pool_.
  open_object(kC2Access, ledger, result, [&] {
    return c2_->access(
        ciphertext.value(), files.public_key, files.master_key, knowledge, rng,
        [this](std::span<const std::function<void()>> jobs) { leaf_pool_.run_all(jobs); });
  });
  return result;
}

}  // namespace sp::core
