// Serving memory stays bounded: once a session is warm, requests leave
// nothing behind on the heap, the DH holds each blob at its size, and a
// denial makes a pinned number of heap allocations. This file replaces the
// global allocation functions of the test_memory binary with a live-byte
// counter built on malloc_usable_size, which also sees the sanitizers'
// allocators, and an allocation counter that a test arms on its own thread
// around one call.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "core/session.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/modes.hpp"
#include "osn/storage_host.hpp"
#include "support/fixtures.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;
thread_local std::size_t g_allocated_bytes = 0;

// Out of line, so an inlined operator delete never shows the compiler a
// free() of a pointer that came from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    ++g_allocations;
    g_allocated_bytes += n;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace sp::core {
namespace {

using crypto::to_bytes;

template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  g_allocations = 0;
  g_allocated_bytes = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

/// Bytes requested from operator new on this thread while `fn` runs.
template <typename Fn>
std::size_t count_allocated_bytes(Fn&& fn) {
  (void)count_allocations(std::forward<Fn>(fn));
  return g_allocated_bytes;
}

TEST(ServingMemory, WarmRequestsLeaveTheLiveHeapFlat) {
  Session session(testsupport::toy_config("serving-memory"));
  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);
  const Context ctx({{"Where did we meet?", "Paris"},
                     {"What did we eat?", "pizza"},
                     {"Who hosted?", "Alice"},
                     {"Which month?", "June"},
                     {"Which band played?", "Calexico"}});
  const std::string c1_post =
      session.share_c1(sharer, to_bytes("c1 object"), ctx, 3, 5, net::pc_profile()).post_id;
  const std::string c2_post =
      session.share_c2(sharer, to_bytes("c2 object"), ctx, 2, net::pc_profile()).post_id;
  const Knowledge full = Knowledge::full(ctx);
  Knowledge wrong;
  for (const auto& p : ctx.pairs()) wrong.learn(p.question, "not the answer");

  // Request i: C1 or C2, a grant or a guess, in a fixed rotation.
  int granted = 0;
  const auto serve = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      const std::string& post = (i % 4 < 2) ? c1_post : c2_post;
      const Knowledge& knowledge = (i % 2 == 0) ? full : wrong;
      if (session.access(receiver, post, knowledge, net::pc_profile()).success()) ++granted;
    }
  };
  serve(200);  // warm-up: metric handles, lazily built tables, pool threads
  granted = 0;
  const std::int64_t before = g_live_bytes.load();
  serve(2000);
  const std::int64_t growth = g_live_bytes.load() - before;
  RecordProperty("live_heap_growth_bytes", std::to_string(growth));

  EXPECT_EQ(granted, 1000);  // every grant opened its object, every guess failed
  EXPECT_LE(growth, 4096) << "live heap grew by " << growth << " B over 2,000 requests";
}

TEST(ServingMemory, TheDhHoldsEachBlobAtItsSize) {
  // The DH keeps each blob for the life of its post, so per blob the live
  // heap grows by the blob's size plus a small constant (the map node and
  // the URL), never by slack in the buffer the blob arrived in.
  constexpr std::size_t kBlobs = 16;
  constexpr std::int64_t kPerBlobOverhead = 512;
  const Bytes photo(64 * 1024, 0x5a);
  const Bytes key(32, 0x11);
  const Bytes iv(16, 0x22);
  osn::StorageHost dh;
  (void)dh.store(crypto::seal(key, iv, photo));  // warm the DH's metric handles
  std::size_t sealed_size = 0;
  const std::int64_t before = g_live_bytes.load();
  for (std::size_t i = 0; i < kBlobs; ++i) {
    Bytes blob = crypto::seal(key, iv, photo);
    sealed_size = blob.size();
    (void)dh.store(std::move(blob));
  }
  const std::int64_t growth = g_live_bytes.load() - before;
  RecordProperty("dh_growth_per_blob_bytes", std::to_string(growth / kBlobs));
  EXPECT_EQ(dh.bytes_stored(), (kBlobs + 1) * sealed_size);
  EXPECT_LE(growth, static_cast<std::int64_t>(kBlobs) *
                        (static_cast<std::int64_t>(sealed_size) + kPerBlobOverhead))
      << "the DH's live heap grew by " << growth << " B for " << kBlobs << " blobs of "
      << sealed_size << " B";
}

TEST(SealAllocations, SealingWritesTheEnvelopeOnce) {
  // A 64 KiB photo seals to iv(16) + ciphertext(65,552) + tag(32). Key
  // derivation, the AES key schedule and the HMAC allocate a few hundred
  // bytes beside it; no copy of the plaintext or the ciphertext may.
  constexpr std::size_t kSmallConstant = 2048;
  const Bytes photo(64 * 1024, 0x5a);
  const Bytes key(32, 0x11);
  const Bytes iv(16, 0x22);
  Bytes envelope;
  const std::size_t bytes =
      count_allocated_bytes([&] { envelope = crypto::seal(key, iv, photo); });
  RecordProperty("seal_64k_allocated_bytes", std::to_string(bytes));
  EXPECT_EQ(envelope.size(), 65600u);
  EXPECT_EQ(envelope.capacity(), envelope.size());
  EXPECT_LE(bytes, envelope.size() + kSmallConstant);
  EXPECT_EQ(crypto::open(key, envelope), photo);
}

TEST(DenyPathAllocations, DrbgDrawsAllocateNothing) {
  // DisplayPuzzle's shuffle and the link model's jitter draw on every request.
  crypto::Drbg rng("deny-alloc-draws");
  const std::size_t n = count_allocations([&] {
    (void)rng.next_u64();
    (void)rng.uniform(1000);
    (void)rng.uniform_real();
  });
  EXPECT_EQ(n, 0u);
}

TEST(DenyPathAllocations, OpeningAStreamAllocatesNoMoreThanItsChaCha20) {
  const Bytes key(32, 0x33);
  const Bytes nonce(12, 0x01);
  const std::size_t holding = count_allocations(
      [&] { const auto cipher = std::make_unique<crypto::ChaCha20>(key, nonce); });
  std::uint64_t first = 0;
  const std::size_t opening = count_allocations([&] {
    crypto::Drbg stream(key, 42);
    first = stream.next_u64();
  });
  EXPECT_LE(opening, holding);
  EXPECT_EQ(first, crypto::Drbg(key, 42).next_u64());
}

/// What one C1 denial allocates at the paper's scale with k = N = 6, which
/// fixes the challenge at all six questions, and m = 2 known answers.
constexpr std::size_t kC1DenialAllocations = 29;

TEST(DenyPathAllocations, C1DenialAtFullPresetStaysWithinItsCount) {
  SessionConfig cfg;
  cfg.pairing_preset = ec::ParamPreset::kFull;
  cfg.seed = "deny-alloc-guard";
  Session session(cfg);
  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);
  // Paper §VIII inputs: 50-character questions, 20-character answers.
  Context ctx;
  for (int i = 0; i < 6; ++i) {
    std::string question = "q" + std::to_string(i) + ":";
    question.resize(50, static_cast<char>('a' + i));
    ctx.add(question, std::string(20, static_cast<char>('k' + i)));
  }
  const std::string post =
      session.share_c1(sharer, to_bytes("deny-path object"), ctx, 6, 6, net::pc_profile())
          .post_id;
  Knowledge two;
  for (std::size_t i = 0; i < 2; ++i) two.learn(ctx.pairs()[i].question, ctx.pairs()[i].answer);
  // Warm the lazily created metric handles.
  for (int i = 0; i < 3; ++i) (void)session.access(receiver, post, two, net::pc_profile());

  AccessResult denied;
  const std::size_t n = count_allocations(
      [&] { denied = session.access(receiver, post, two, net::pc_profile()); });
  EXPECT_FALSE(denied.granted);
  EXPECT_FALSE(denied.error.has_value());
  RecordProperty("c1_denial_allocations", std::to_string(n));
  EXPECT_LE(n, kC1DenialAllocations) << n << " allocations in one C1 denial";
}

}  // namespace
}  // namespace sp::core
