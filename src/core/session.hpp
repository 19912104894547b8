// End-to-end orchestration: runs Construction 1 / Construction 2 over the
// simulated OSN (SocialGraph + ServiceProvider + StorageHost) with the
// network/device cost model, producing exactly the local-vs-network delay
// decomposition of the paper's Figure 10.
//
// The session is the library's top-level convenience API — the examples and
// the benchmark harness both drive it — but every protocol step is also
// reachable individually through Construction1/Construction2 for callers
// that bring their own transport.
//
// Concurrency model (DESIGN.md §"Concurrent serving core" has the full
// story): the receiver-side path — access / access_with_retries — is const
// and reentrant; any number of caller threads may serve accesses
// concurrently, including while sharer-side writers (register_user,
// befriend, share_*, refresh) run. Writers are individually thread-safe but
// serialize against each other and against readers on the puzzle registry's
// shared_mutex where they must.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>

#include "core/construction1.hpp"
#include "core/construction2.hpp"
#include "core/thread_pool.hpp"
#include "net/faults.hpp"
#include "net/simnet.hpp"
#include "obs/trace.hpp"
#include "osn/service_provider.hpp"
#include "osn/social_graph.hpp"
#include "osn/storage_host.hpp"
#include "storage/wal.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::core {

/// Which construction a share used (recorded per post).
enum class SchemeKind { kConstruction1, kConstruction2 };

struct ShareReceipt {
  std::string post_id;       ///< puzzle id hyperlinked on the sharer's feed
  net::CostLedger cost;      ///< sharer-side Fig. 10 decomposition
  std::size_t object_bytes = 0;
};

struct AccessResult {
  bool granted = false;      ///< SP-side Verify outcome
  std::optional<Bytes> object;  ///< decrypted object on full success
  net::CostLedger cost;      ///< receiver-side Fig. 10 decomposition
  /// Why the serving path failed, when it failed on infrastructure rather
  /// than knowledge (DESIGN.md "Fault model"). Never set on a clean denial.
  std::optional<net::ServeError> error;
  /// Serving attempts access_with_retries spent (fault retries + challenge
  /// draws; plain access() always reports 1).
  int attempts = 1;

  [[nodiscard]] bool success() const { return granted && object.has_value(); }
};

/// Durable SP/DH state rooted at `dir` (the SP persists under dir/sp, the
/// DH under dir/dh). Reopening a session on the same directory rebuilds
/// both hosts' stores from their WAL/segment pairs.
struct PersistenceConfig {
  std::string dir;
  storage::WalWriter::Fsync fsync = storage::WalWriter::Fsync::kBatch;
  std::uint64_t checkpoint_wal_bytes = 64ull << 20;
};

struct SessionConfig {
  ec::ParamPreset pairing_preset = ec::ParamPreset::kTest;
  net::LinkProfile link = net::wlan_80211n_to_ec2();
  std::string seed = "sp-session";
  /// Fault schedule for the serving stack; nullopt = fault-free (the
  /// pre-chaos behavior, bit for bit).
  std::optional<net::FaultPlan> faults;
  /// Retry/backoff/deadline policy access_with_retries applies to transient
  /// faults.
  net::RetryPolicy retry;
  /// nullopt = in-memory hosts (the pre-persistence behavior, bit for bit).
  std::optional<PersistenceConfig> persistence;
};

class Session {
 public:
  explicit Session(SessionConfig config);

  // ---- OSN management -------------------------------------------------
  [[nodiscard]] osn::UserId register_user(const std::string& name);
  void befriend(osn::UserId a, osn::UserId b);
  /// Twitter-style directed follow (see osn::Visibility::kPublic).
  void follow(osn::UserId follower, osn::UserId followee) { graph_.follow(follower, followee); }
  [[nodiscard]] const osn::SocialGraph& graph() const { return graph_; }
  [[nodiscard]] osn::ServiceProvider& service_provider() { return sp_; }
  [[nodiscard]] osn::StorageHost& storage_host() { return dh_; }

  // ---- sharing ---------------------------------------------------------
  /// Construction 1 share: Upload + DH store + SP record + feed post.
  /// `visibility` = kPublic posts the hyperlink Twitter-style: any registered
  /// user can attempt the puzzle — the context IS the access control.
  ShareReceipt share_c1(osn::UserId sharer, std::span<const std::uint8_t> object,
                        const Context& ctx, std::size_t k, std::size_t n,
                        const net::DeviceProfile& device,
                        osn::Visibility visibility = osn::Visibility::kFriends);

  /// Construction 2 share: Setup + Encrypt + Perturb + four-file upload.
  ShareReceipt share_c2(osn::UserId sharer, std::span<const std::uint8_t> object,
                        const Context& ctx, std::size_t k, const net::DeviceProfile& device,
                        osn::Visibility visibility = osn::Visibility::kFriends);

  /// Paper §VI-C collusion countermeasure: "Sharers can periodically modify
  /// the puzzle Z_O and/or the encryption key K_O (by re-encrypting the
  /// object)". Re-runs the sharer-side pipeline for an existing post with a
  /// fresh object secret, puzzle key and storage URL; the post id (and the
  /// feed hyperlink) stay stable, previously leaked shares become useless.
  /// Only the original sharer may refresh (throws std::logic_error
  /// otherwise). The sharer supplies the object and context again — neither
  /// is recoverable from the hosts, by design.
  ///
  /// Refresh is the single-writer path: it holds the puzzle registry's
  /// exclusive lock for the whole re-upload, so in-flight accesses always
  /// see either the old or the new puzzle, never a mix.
  ShareReceipt refresh(osn::UserId sharer, const std::string& post_id,
                       std::span<const std::uint8_t> object, const Context& ctx,
                       const net::DeviceProfile& device);

  /// Paper §V dynamic-context revocation: the sharer pulls the encrypted
  /// object from the DH, so granted verifications can no longer complete —
  /// in-flight and future accesses fail with kDhMiss until the sharer
  /// refresh()es the post with a fresh object/puzzle. A post is revoked
  /// exactly when its blob is gone from the DH, so revoking again, or after
  /// the DH lost the blob, is a no-op. Only the original sharer may revoke
  /// (throws std::logic_error otherwise). The SP record stays: the puzzle
  /// is still displayed, the paper's ACL lives at the object, not the
  /// challenge.
  void revoke(osn::UserId sharer, const std::string& post_id);

  // ---- receiving -------------------------------------------------------
  /// Full receiver flow for a feed hyperlink. Enforces OSN visibility: only
  /// the sharer's friends reach the puzzle (throws std::logic_error
  /// otherwise — the paper delegates stranger-blocking to Facebook ACLs).
  /// Const and reentrant: safe to call from many threads at once.
  AccessResult access(osn::UserId receiver, const std::string& post_id,
                      const Knowledge& knowledge, const net::DeviceProfile& device) const;

  /// The unified retry loop (DESIGN.md "Fault model & retry semantics").
  /// Two independent retry budgets:
  ///  * challenge draws — Construction 1's DisplayPuzzle shows a random
  ///    r-subset of questions, so a receiver who knows enough answers overall
  ///    can still draw a challenge missing them (the web UI just reloads the
  ///    page); up to `max_draws` fresh challenges.
  ///  * transient faults — retried with the session's RetryPolicy
  ///    (exponential backoff, seeded jitter) until max_attempts or the
  ///    modeled deadline runs out (then error = kDeadlineExceeded).
  /// The returned ledger is the sum over every attempt, failed ones and
  /// backoff waits included; `attempts` reports how many were spent.
  AccessResult access_with_retries(osn::UserId receiver, const std::string& post_id,
                                   const Knowledge& knowledge,
                                   const net::DeviceProfile& device, int max_draws = 8) const;

  /// A user's view of their feed.
  [[nodiscard]] std::vector<osn::Post> feed_of(osn::UserId user) const {
    return graph_.feed_for(user);
  }

  [[nodiscard]] const Construction1& c1() const { return *c1_; }
  [[nodiscard]] const Construction2& c2() const { return *c2_; }
  [[nodiscard]] const ec::Curve& curve() const { return curve_; }
  /// The session's fault schedule (null when configured fault-free). Chaos
  /// tests use it to cross-check injected-fault counts and schedule digests.
  [[nodiscard]] const net::FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  struct StoredPuzzle {
    SchemeKind kind = SchemeKind::kConstruction1;
    osn::UserId sharer = 0;
    osn::Visibility visibility = osn::Visibility::kFriends;
    // C1 state.
    std::optional<Puzzle> puzzle;
    // C2 state (what the SP holds: τ', k, PK and MK, plus the URL below).
    // The ciphertext moved to the DH at publish, so its field stays empty.
    std::optional<Construction2::UploadResult> c2_files;
    std::string url;
  };

  /// What one run of the sharer pipeline publishes: the SP record (Z_O for
  /// C1, τ' for C2) and the registry entry's scheme state and URL. share_*
  /// stores both under a new post id; refresh replaces a post's.
  struct Published {
    /// Passed to the SP by copy, which keeps it sized to fit: serialize()
    /// leaves growth slack that would stay resident per post.
    Bytes record;
    StoredPuzzle entry;
  };

  /// The sharer pipeline share_* and refresh both run: Upload, the DH store,
  /// and for C1 the URL patch and signature. Charges `ledger` for every
  /// upload, including the SP record the caller then stores.
  Published publish_c1(const sig::KeyPair& keys, std::span<const std::uint8_t> object,
                       const Context& ctx, std::size_t k, std::size_t n,
                       net::CostLedger& ledger, crypto::Drbg& rng);
  Published publish_c2(std::span<const std::uint8_t> object, const Context& ctx, std::size_t k,
                       net::CostLedger& ledger, crypto::Drbg& rng);
  /// The tail both share_* run: the SP record under a new post id, the
  /// registry entry, the feed post and the receipt.
  ShareReceipt finish_share(osn::UserId sharer, osn::Visibility visibility, Published pub,
                            const net::CostLedger& ledger, std::size_t object_bytes)
      SP_EXCLUDES(puzzles_mutex_);

  /// A registered user's signing keys, and the table receivers check that
  /// user's signatures with. Session plays the receiver here: a receiver
  /// knows the sharer's key from the social graph, never from the SP's
  /// record. The table is built on the first C1 grant that verifies against
  /// this user, never at registration or on a share, and kept for the life
  /// of the session (~91 KB at kFull; DESIGN.md §7).
  struct UserKeys {
    explicit UserKeys(sig::KeyPair&& k) : keys(std::move(k)) {}
    sig::KeyPair keys;
    /// Written once, under table_once; immutable after.
    mutable std::once_flag table_once;
    mutable std::unique_ptr<const ec::FixedBase> table;
  };

  /// A registered user's signing keys.
  const sig::KeyPair& keys_of(osn::UserId user) SP_EXCLUDES(keys_mutex_);
  /// The table of `sharer`'s public key, built on first use.
  const ec::FixedBase& sharer_key(osn::UserId sharer) const SP_EXCLUDES(keys_mutex_);

  /// Opens the next numbered random stream under stream_key_. Each
  /// operation draws from its own stream, so drawing takes no lock.
  crypto::Drbg open_stream() const;

  // Both take `stored` as a reference into puzzles_, so the caller must keep
  // the registry shared-locked for the whole call — annotated, so Clang
  // rejects any future path that drops the lock before the access finishes.
  // Their phase spans attach under the calling thread's current context.
  // Both charge `ledger`; access() copies it into the result.
  AccessResult access_c1(const StoredPuzzle& stored, const Knowledge& knowledge,
                         net::CostLedger& ledger, crypto::Drbg& rng,
                         net::FaultStream* faults) const SP_REQUIRES_SHARED(puzzles_mutex_);
  AccessResult access_c2(const StoredPuzzle& stored, const Knowledge& knowledge,
                         net::CostLedger& ledger, crypto::Drbg& rng,
                         net::FaultStream* faults) const SP_REQUIRES_SHARED(puzzles_mutex_);

  /// One request/response exchange under the fault schedule: draws the
  /// exchange's transfer fault from `faults` (null = fault-free). Success
  /// charges the modeled delay, its jitter drawn from `rng`, plus any
  /// latency spike, and the bytes to `ledger`; a timeout skips the link,
  /// charges the plan's wasted wait and returns the error instead.
  std::optional<net::ServeError> exchange(std::size_t bytes, int round_trips,
                                          net::CostLedger& ledger, crypto::Drbg& rng,
                                          net::FaultStream* faults) const;

  /// The SP-availability draw before Verify. An outage (kSpUnavailable)
  /// drops the Verify exchange after the receiver paid `ledger` for the
  /// `response_bytes` it sent into the void.
  std::optional<net::ServeError> sp_outage(std::size_t response_bytes, net::CostLedger& ledger,
                                           crypto::Drbg& rng, net::FaultStream* faults) const;

  /// The DH download of the sealed object at `url`, timed as the DH-fetch
  /// phase, after drawing the fetch's DH fault from `faults`. A miss
  /// (injected, a revoked object, or a malicious SP pointing at nothing)
  /// marks the span and comes back as the error.
  net::Expected<Bytes> fetch_object(const std::string& url, net::FaultStream* faults) const;

  SessionConfig config_;
  ec::Curve curve_;
  std::unique_ptr<Construction1> c1_;
  std::unique_ptr<Construction2> c2_;
  osn::SocialGraph graph_;
  osn::ServiceProvider sp_;
  osn::StorageHost dh_;
  net::Network network_;
  std::unique_ptr<net::FaultInjector> injector_;  ///< null = fault-free session
  crypto::SecretBytes stream_key_;  ///< keys every stream open_stream() numbers
  mutable std::atomic<std::uint64_t> next_stream_{0};
  mutable sp::Mutex keys_mutex_;  ///< guards user_keys_ lookups/inserts (nodes are stable)
  std::map<osn::UserId, UserKeys> user_keys_ SP_GUARDED_BY(keys_mutex_);
  /// Readers (access*) hold this shared for the whole request so refresh
  /// can't mutate a puzzle out from under them; share_* take it exclusively
  /// only around registry insertion, refresh for its whole body.
  mutable sp::SharedMutex puzzles_mutex_;
  std::map<std::string, StoredPuzzle> puzzles_ SP_GUARDED_BY(puzzles_mutex_);  ///< SP-side protocol state
  /// Helpers for the receiver's C2 KeyGen jobs and leaf Miller loops
  /// (ThreadPool::run_all; the SP's Verify runs on the request thread).
  /// Declared last so it is destroyed first; every run_all finishes within
  /// its request, so teardown never races live jobs.
  mutable ThreadPool leaf_pool_;
};

}  // namespace sp::core
