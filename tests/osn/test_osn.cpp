#include <gtest/gtest.h>

#include <limits>

#include "obs/metrics.hpp"
#include "osn/service_provider.hpp"
#include "osn/social_graph.hpp"
#include "osn/storage_host.hpp"

namespace sp::osn {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

TEST(SocialGraph, SymmetricFriendship) {
  SocialGraph g;
  const UserId a = g.add_user("alice");
  const UserId b = g.add_user("bob");
  EXPECT_FALSE(g.are_friends(a, b));
  g.befriend(a, b);
  EXPECT_TRUE(g.are_friends(a, b));
  EXPECT_TRUE(g.are_friends(b, a));  // paper §IV-A: symmetric OSN
}

TEST(SocialGraph, FriendsOfListsNetwork) {
  SocialGraph g;
  const UserId s = g.add_user("sharer");
  std::vector<UserId> friends;
  for (int i = 0; i < 5; ++i) {
    friends.push_back(g.add_user("friend" + std::to_string(i)));
    g.befriend(s, friends.back());
  }
  EXPECT_EQ(g.friends_of(s), friends);
  EXPECT_EQ(g.friends_of(friends[0]), std::vector<UserId>{s});
}

TEST(SocialGraph, RejectsUnknownAndSelf) {
  SocialGraph g;
  const UserId a = g.add_user("alice");
  EXPECT_THROW(g.befriend(a, 999), std::out_of_range);
  EXPECT_THROW(g.befriend(a, a), std::invalid_argument);
  EXPECT_THROW((void)g.profile(999), std::out_of_range);
}

TEST(SocialGraph, FeedVisibilityIsFriendsOnly) {
  SocialGraph g;
  const UserId sharer = g.add_user("sharer");
  const UserId friend1 = g.add_user("friend");
  const UserId stranger = g.add_user("stranger");
  g.befriend(sharer, friend1);
  g.post(Post{sharer, "puzzle-1", "party pics"});

  EXPECT_EQ(g.feed_for(friend1).size(), 1u);
  EXPECT_EQ(g.feed_for(sharer).size(), 1u);  // own posts visible
  EXPECT_TRUE(g.feed_for(stranger).empty());
}

TEST(StorageHost, StoreFetchRoundTrip) {
  StorageHost dh;
  const Bytes blob = to_bytes("ciphertext bytes");
  const std::string url = dh.store(blob);
  EXPECT_TRUE(url.starts_with("dh://objects/"));
  EXPECT_EQ(dh.fetch(url), blob);
  EXPECT_TRUE(dh.exists(url));
  EXPECT_EQ(dh.object_count(), 1u);
  EXPECT_EQ(dh.bytes_stored(), blob.size());
}

TEST(StorageHost, DistinctUrlsForIdenticalContent) {
  StorageHost dh;
  const Bytes blob = to_bytes("same");
  EXPECT_NE(dh.store(blob), dh.store(blob));
}

TEST(StorageHost, UrlHashesCounterAndSize) {
  // The URL is H(counter || size): same store sequence on two hosts yields
  // the same URL (stability across deployments and shard layouts) …
  StorageHost a;
  StorageHost b;
  EXPECT_EQ(a.store(to_bytes("one")), b.store(to_bytes("two")));  // same counter, same size
  // … while the same counter with a different blob size yields a different
  // URL — the size really is part of the preimage.
  EXPECT_NE(a.store(to_bytes("same-counter")), b.store(to_bytes("different length here")));
}

TEST(StorageHost, UnknownUrlThrows) {
  StorageHost dh;
  EXPECT_FALSE(dh.fetch("dh://objects/nope").has_value());
  EXPECT_THROW(dh.remove("dh://objects/nope"), std::out_of_range);
  EXPECT_THROW(dh.tamper("dh://objects/nope", 0), std::out_of_range);
}

TEST(StorageHost, TamperFlipsOneByte) {
  StorageHost dh;
  const Bytes blob = to_bytes("sensitive ciphertext");
  const std::string url = dh.store(blob);
  dh.tamper(url, 3);
  const Bytes now = dh.fetch(url).value();
  EXPECT_NE(now, blob);
  EXPECT_EQ(now.size(), blob.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) diffs += blob[i] != now[i];
  EXPECT_EQ(diffs, 1u);
}

TEST(StorageHost, RemoveDeletes) {
  StorageHost dh;
  const std::string url = dh.store(to_bytes("x"));
  dh.remove(url);
  EXPECT_FALSE(dh.exists(url));
}

TEST(ServiceProvider, RecordStoreAndRetrieve) {
  ServiceProvider sp;
  const std::string id = sp.store_record(to_bytes("puzzle record"));
  EXPECT_TRUE(sp.has_record(id));
  EXPECT_EQ(sp.record(id), to_bytes("puzzle record"));
  EXPECT_EQ(sp.record_count(), 1u);
  EXPECT_THROW((void)sp.record("puzzle-999"), std::out_of_range);
}

TEST(ServiceProvider, ViewContainsScansEverything) {
  ServiceProvider sp;
  sp.store_record(to_bytes("record with NEEDLE inside"));
  const std::string replaced = sp.store_record(to_bytes("old STALE record"));
  sp.replace_record(replaced, to_bytes("another HAYSTACK record"));
  EXPECT_TRUE(sp.view_contains(to_bytes("NEEDLE")));
  EXPECT_TRUE(sp.view_contains(to_bytes("HAYSTACK")));
  EXPECT_FALSE(sp.view_contains(to_bytes("STALE")));  // replaced bytes are gone
  EXPECT_FALSE(sp.view_contains(to_bytes("plaintext-secret")));
  EXPECT_FALSE(sp.view_contains(to_bytes("")));  // empty needle never matches
}

TEST(ServiceProvider, TamperRewritesRecord) {
  ServiceProvider sp;
  const std::string id = sp.store_record(to_bytes("http://good.example/url"));
  sp.tamper_record(id, 7, to_bytes("evil"));
  EXPECT_EQ(crypto::to_string(sp.record(id)), "http://evil.example/url");
  EXPECT_THROW(sp.tamper_record(id, 100, to_bytes("x")), std::out_of_range);
}

TEST(ServiceProvider, TamperHugeOffsetRejected) {
  // Regression: the old bounds check computed `offset + replacement.size()`,
  // which wraps around for huge offsets and let the write through — an
  // out-of-bounds smash triggered by attacker-controlled input.
  ServiceProvider sp;
  const std::string id = sp.store_record(to_bytes("0123456789"));
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(sp.tamper_record(id, kMax, to_bytes("x")), std::out_of_range);
  EXPECT_THROW(sp.tamper_record(id, kMax - 3, to_bytes("wrap")), std::out_of_range);
  // Boundary behavior stays exact: writing the last byte works, one past
  // the end does not.
  sp.tamper_record(id, 9, to_bytes("X"));
  EXPECT_EQ(crypto::to_string(sp.record(id)), "012345678X");
  EXPECT_THROW(sp.tamper_record(id, 10, to_bytes("x")), std::out_of_range);
}

// ---- observability (PR 4): front-end instruments move with the traffic ----
// The registry is process-wide, so all assertions are deltas.

TEST(ServiceProvider, MetricsCountRequestsAndSettleOnDestruction) {
  auto& reg = sp::obs::MetricsRegistry::global();
  auto& stores = reg.counter("osn_sp_requests_total", "", {{"op", "store_record"}});
  auto& tamper_rejected = reg.counter("osn_sp_tamper_rejected_total");
  auto& records = reg.gauge("osn_sp_records");
  const auto stores0 = stores.value();
  const auto rejected0 = tamper_rejected.value();
  const auto records0 = records.value();
  {
    ServiceProvider sp;
    const std::string id = sp.store_record(to_bytes("0123456789"));
    sp.store_record(to_bytes("more"));
    EXPECT_EQ(stores.value(), stores0 + 2);
    EXPECT_EQ(records.value(), records0 + 2);
    EXPECT_THROW(sp.tamper_record(id, 10, to_bytes("x")), std::out_of_range);
    EXPECT_EQ(tamper_rejected.value(), rejected0 + 1);
  }
  // Destruction wipes the records and settles the process-wide gauge.
  EXPECT_EQ(records.value(), records0);
}

TEST(StorageHost, MetricsTrackObjectsBytesAndMisses) {
  auto& reg = sp::obs::MetricsRegistry::global();
  auto& objects = reg.gauge("osn_dh_objects");
  auto& bytes_at_rest = reg.gauge("osn_dh_bytes");
  auto& misses = reg.counter("osn_dh_fetch_miss_total");
  const auto objects0 = objects.value();
  const auto bytes0 = bytes_at_rest.value();
  const auto misses0 = misses.value();
  {
    StorageHost dh;
    const std::string url = dh.store(to_bytes("0123456789"));
    const std::string url2 = dh.store(to_bytes("abc"));
    EXPECT_EQ(objects.value(), objects0 + 2);
    EXPECT_EQ(bytes_at_rest.value(), bytes0 + 13);
    EXPECT_FALSE(dh.fetch("dh://objects/nonexistent").has_value());
    EXPECT_EQ(misses.value(), misses0 + 1);
    dh.remove(url2);
    EXPECT_EQ(objects.value(), objects0 + 1);
    EXPECT_EQ(bytes_at_rest.value(), bytes0 + 10);
  }
  EXPECT_EQ(objects.value(), objects0);
  EXPECT_EQ(bytes_at_rest.value(), bytes0);
}

// ---- op-counter correctness sweep (PR 8 satellites): counters move only on
// the path actually taken, and the adversary surface agrees on its contracts.

TEST(StorageHost, RemoveCountsOnlySuccessfulRemovals) {
  auto& reg = sp::obs::MetricsRegistry::global();
  auto& removes = reg.counter("osn_dh_requests_total", "", {{"op", "remove"}});
  StorageHost dh;
  const std::string url = dh.store(to_bytes("blob"));

  const auto removes0 = removes.value();
  EXPECT_THROW(dh.remove("dh://objects/nonexistent"), std::out_of_range);
  // The rejected call must not count as a performed removal.
  EXPECT_EQ(removes.value(), removes0);
  dh.remove(url);
  EXPECT_EQ(removes.value(), removes0 + 1);
}

TEST(StorageHost, TamperThrowsOutOfRangeLikeServiceProvider) {
  auto& reg = sp::obs::MetricsRegistry::global();
  auto& rejected = reg.counter("osn_dh_tamper_rejected_total");
  StorageHost dh;
  const std::string url = dh.store(to_bytes("0123"));
  const auto rejected0 = rejected.value();

  // Out-of-bounds indices throw instead of silently wrapping modulo size —
  // the same contract as ServiceProvider::tamper_record.
  EXPECT_THROW(dh.tamper(url, 4), std::out_of_range);
  EXPECT_THROW(dh.tamper(url, std::numeric_limits<std::size_t>::max()), std::out_of_range);
  EXPECT_EQ(rejected.value(), rejected0 + 2);
  EXPECT_EQ(dh.fetch(url), to_bytes("0123"));  // a rejected tamper changes nothing

  // An empty blob has no valid index at all.
  const std::string empty_url = dh.store({});
  EXPECT_THROW(dh.tamper(empty_url, 0), std::out_of_range);

  // In range, exactly the requested byte flips.
  dh.tamper(url, 2);
  Bytes want = to_bytes("0123");
  want[2] ^= 0x01;
  EXPECT_EQ(dh.fetch(url), want);
  EXPECT_THROW(dh.tamper("dh://objects/nonexistent", 0), std::out_of_range);
}

}  // namespace
}  // namespace sp::osn
