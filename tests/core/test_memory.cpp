// Serving memory stays bounded: once a session is warm, requests leave
// nothing behind on the heap. This file replaces the global allocation
// functions of the test_memory binary with a live-byte counter built on
// malloc_usable_size, which also sees the sanitizers' allocators.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/session.hpp"
#include "support/fixtures.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

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

}  // namespace
}  // namespace sp::core
