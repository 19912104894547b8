// Integration tests: both constructions end-to-end over the simulated OSN
// (social graph + SP + DH + network model), exercising the same flow the
// paper's Facebook prototype implements.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::to_bytes;
using testsupport::party_context;
using testsupport::toy_config;

class SessionTest : public testsupport::SessionFixture {
 protected:
  SessionTest() : SessionFixture(toy_config("session-tests")) {
    stranger_ = session_.register_user("stranger");
  }

  osn::UserId stranger_ = 0;
};

TEST_F(SessionTest, C1ShareAndAccessByKnowledgeableFriend) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("event photo bytes");
  const auto receipt = session_.share_c1(sharer_, object, ctx, 2, 4, net::pc_profile());
  EXPECT_FALSE(receipt.post_id.empty());
  EXPECT_GT(receipt.cost.total_ms(), 0.0);
  EXPECT_GT(receipt.cost.network_ms(), 0.0);

  // Friend sees the post in their feed.
  const auto feed = session_.feed_of(friend_);
  ASSERT_EQ(feed.size(), 1u);
  EXPECT_EQ(feed[0].puzzle_id, receipt.post_id);

  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_TRUE(result.granted);
  ASSERT_TRUE(result.success());
  EXPECT_EQ(*result.object, object);
  EXPECT_GT(result.cost.local_ms(), 0.0);
  EXPECT_GT(result.cost.network_ms(), 0.0);
}

TEST_F(SessionTest, C1IgnorantFriendDenied) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("obj"), ctx, 2, 4, net::pc_profile());
  crypto::Drbg krng("ignorant");
  const Knowledge none = Knowledge::partial(ctx, 0, krng);
  const auto result = session_.access(friend_, receipt.post_id, none, net::pc_profile());
  EXPECT_FALSE(result.granted);
  EXPECT_FALSE(result.success());
}

TEST_F(SessionTest, StrangerBlockedByOsnAcl) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("obj"), ctx, 2, 4, net::pc_profile());
  // Paper: protection against non-friends is delegated to the OSN ACL.
  EXPECT_THROW(
      session_.access(stranger_, receipt.post_id, Knowledge::full(ctx), net::pc_profile()),
      std::logic_error);
  EXPECT_TRUE(session_.feed_of(stranger_).empty());
}

TEST_F(SessionTest, C2ShareAndAccessByKnowledgeableFriend) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("abe-protected object");
  const auto receipt = session_.share_c2(sharer_, object, ctx, 2, net::pc_profile());
  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_TRUE(result.granted);
  ASSERT_TRUE(result.success());
  EXPECT_EQ(*result.object, object);
}

TEST_F(SessionTest, C2BelowThresholdDenied) {
  const Context ctx = party_context();
  const auto receipt = session_.share_c2(sharer_, to_bytes("obj"), ctx, 3, net::pc_profile());
  crypto::Drbg krng("c2-below");
  const Knowledge k2 = Knowledge::partial(ctx, 2, krng);
  const auto result = session_.access(friend_, receipt.post_id, k2, net::pc_profile());
  EXPECT_FALSE(result.granted);
  EXPECT_FALSE(result.success());
}

TEST_F(SessionTest, UnknownPostThrows) {
  EXPECT_THROW(session_.access(friend_, "puzzle-999", Knowledge{}, net::pc_profile()),
               std::out_of_range);
}

TEST_F(SessionTest, SharerCanAccessOwnPost) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("mine"), ctx, 1, 4, net::pc_profile());
  const auto result =
      session_.access(sharer_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_TRUE(result.success());
}

TEST_F(SessionTest, C2CostsMoreThanC1) {
  // The headline of Fig. 10(a)/(b): I2's four-file exchange and pairing
  // workload dominate I1 on both axes. Network/byte costs are modeled and
  // deterministic; local_ms is a wall-clock measurement, so when ctest -j
  // oversubscribes a small machine a preemption mid-share can flip a single
  // sample — compare best-of-N instead of one draw.
  const Context ctx = party_context();
  const Bytes object = to_bytes("same 100-char object for both constructions, padded a bit!!");
  const auto r1 = session_.share_c1(sharer_, object, ctx, 1, 4, net::pc_profile());
  const auto r2 = session_.share_c2(sharer_, object, ctx, 1, net::pc_profile());
  EXPECT_GT(r2.cost.network_ms(), r1.cost.network_ms());
  EXPECT_GT(r2.cost.bytes_transferred(), r1.cost.bytes_transferred());

  double c1_best = r1.cost.local_ms();
  double c2_best = r2.cost.local_ms();
  for (int attempt = 0; attempt < 4 && c2_best <= c1_best; ++attempt) {
    c1_best = std::min(
        c1_best,
        session_.share_c1(sharer_, object, ctx, 1, 4, net::pc_profile()).cost.local_ms());
    c2_best = std::min(
        c2_best,
        session_.share_c2(sharer_, object, ctx, 1, net::pc_profile()).cost.local_ms());
  }
  EXPECT_GT(c2_best, c1_best);
}

TEST_F(SessionTest, TabletScalesLocalTimeOnly) {
  // Identical seeds -> identical crypto; tablet local time is the same wall
  // measurement scaled up 5x. A preemption during the PC share can still
  // inflate one sample past the scaled tablet one on an oversubscribed
  // machine, so compare best-of-N (bytes stay deterministic, checked once).
  const Context ctx = party_context();
  const Bytes object = to_bytes("obj");
  Session pc_session(toy_config("device-compare"));
  const auto pc_sharer = pc_session.register_user("s");
  Session tab_session(toy_config("device-compare"));
  const auto tab_sharer = tab_session.register_user("s");

  const auto pc = pc_session.share_c1(pc_sharer, object, ctx, 2, 4, net::pc_profile());
  const auto tab = tab_session.share_c1(tab_sharer, object, ctx, 2, 4, net::tablet_profile());
  EXPECT_EQ(tab.cost.bytes_transferred(), pc.cost.bytes_transferred());

  double pc_best = pc.cost.local_ms();
  double tab_best = tab.cost.local_ms();
  for (int attempt = 0; attempt < 4 && tab_best <= pc_best; ++attempt) {
    pc_best = std::min(
        pc_best,
        pc_session.share_c1(pc_sharer, object, ctx, 2, 4, net::pc_profile()).cost.local_ms());
    tab_best = std::min(tab_best, tab_session
                                      .share_c1(tab_sharer, object, ctx, 2, 4,
                                                net::tablet_profile())
                                      .cost.local_ms());
  }
  EXPECT_GT(tab_best, pc_best);
}

TEST_F(SessionTest, MultipleSharesCoexist) {
  const Context ctx1 = party_context();
  Context ctx2;
  ctx2.add("Project codename?", "falcon");
  ctx2.add("Team room?", "b42");

  const auto r1 = session_.share_c1(sharer_, to_bytes("one"), ctx1, 1, 4, net::pc_profile());
  const auto r2 = session_.share_c2(sharer_, to_bytes("two"), ctx2, 2, net::pc_profile());
  EXPECT_NE(r1.post_id, r2.post_id);
  EXPECT_EQ(session_.feed_of(friend_).size(), 2u);

  const auto a1 = session_.access(friend_, r1.post_id, Knowledge::full(ctx1), net::pc_profile());
  const auto a2 = session_.access(friend_, r2.post_id, Knowledge::full(ctx2), net::pc_profile());
  ASSERT_TRUE(a1.success());
  ASSERT_TRUE(a2.success());
  EXPECT_EQ(*a1.object, to_bytes("one"));
  EXPECT_EQ(*a2.object, to_bytes("two"));
}

TEST_F(SessionTest, AccessWithRetriesEventuallyGrantsPartialKnowledge) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("obj"), ctx, 2, 4, net::pc_profile());
  crypto::Drbg krng("retries");
  const Knowledge k2 = Knowledge::partial(ctx, 2, krng);
  // A single draw can miss the known questions; 20 draws all but surely hit.
  const auto result =
      session_.access_with_retries(friend_, receipt.post_id, k2, net::pc_profile(), 20);
  EXPECT_TRUE(result.success());

  // Below-threshold knowledge never succeeds, however many draws.
  const Knowledge k1 = Knowledge::partial(ctx, 1, krng);
  const auto denied =
      session_.access_with_retries(friend_, receipt.post_id, k1, net::pc_profile(), 10);
  EXPECT_FALSE(denied.granted);
  EXPECT_THROW(
      session_.access_with_retries(friend_, receipt.post_id, k2, net::pc_profile(), 0),
      std::invalid_argument);
}

TEST_F(SessionTest, RefreshC1RotatesSecretsButKeepsPostId) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("originally shared object");
  const auto receipt =
      session_.share_c1(sharer_, object, ctx, 2, 4, net::pc_profile());
  ASSERT_EQ(session_.storage_host().object_count(), 1u);
  const std::string old_url = session_.storage_host().observed_blobs().begin()->first;

  const Bytes updated = to_bytes("updated object after refresh");
  const auto refreshed =
      session_.refresh(sharer_, receipt.post_id, updated, ctx, net::pc_profile());
  EXPECT_EQ(refreshed.post_id, receipt.post_id);  // hyperlink unchanged
  // Old ciphertext is gone; a new one exists at a new URL.
  EXPECT_FALSE(session_.storage_host().exists(old_url));
  EXPECT_EQ(session_.storage_host().object_count(), 1u);

  // Receivers keep working through the same post id.
  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());
  EXPECT_EQ(*result.object, updated);
}

TEST_F(SessionTest, RefreshC2Works) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c2(sharer_, to_bytes("v1"), ctx, 2, net::pc_profile());
  const auto refreshed =
      session_.refresh(sharer_, receipt.post_id, to_bytes("v2"), ctx, net::pc_profile());
  EXPECT_EQ(refreshed.post_id, receipt.post_id);
  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());
  EXPECT_EQ(*result.object, to_bytes("v2"));
}

TEST_F(SessionTest, RefreshRejectsNonSharerAndUnknownPost) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("obj"), ctx, 2, 4, net::pc_profile());
  EXPECT_THROW(session_.refresh(friend_, receipt.post_id, to_bytes("x"), ctx, net::pc_profile()),
               std::logic_error);
  EXPECT_THROW(session_.refresh(sharer_, "puzzle-999", to_bytes("x"), ctx, net::pc_profile()),
               std::out_of_range);
}

TEST_F(SessionTest, RevokeIsIdempotentAndSharerOnly) {
  auto& revokes = obs::MetricsRegistry::global().counter("sp_revoke_requests_total");
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("obj"), ctx, 2, 4, net::pc_profile());
  EXPECT_THROW(session_.revoke(friend_, receipt.post_id), std::logic_error);
  EXPECT_THROW(session_.revoke(sharer_, "puzzle-999"), std::out_of_range);
  const auto before = revokes.value();
  session_.revoke(sharer_, receipt.post_id);
  session_.revoke(sharer_, receipt.post_id);  // second revoke is a no-op
  EXPECT_EQ(revokes.value() - before, 1u);
}

TEST_F(SessionTest, RevokedPostsMissAtTheDhUntilRefreshed) {
  // Revoke pulls the object, not the puzzle: Verify still grants a
  // knowledgeable receiver, but the DH has nothing to serve until the
  // sharer refreshes the post.
  const Context ctx = party_context();
  const std::string c1_post =
      session_.share_c1(sharer_, to_bytes("c1 v1"), ctx, 2, 4, net::pc_profile()).post_id;
  const std::string c2_post =
      session_.share_c2(sharer_, to_bytes("c2 v1"), ctx, 2, net::pc_profile()).post_id;
  for (const std::string& post : {c1_post, c2_post}) {
    session_.revoke(sharer_, post);
    const auto result =
        session_.access(friend_, post, Knowledge::full(ctx), net::pc_profile());
    EXPECT_TRUE(result.granted) << post;
    EXPECT_FALSE(result.object.has_value()) << post;
    EXPECT_EQ(result.error, net::ServeError::kDhMiss) << post;
  }
  EXPECT_EQ(session_.storage_host().object_count(), 0u);

  session_.refresh(sharer_, c1_post, to_bytes("c1 v2"), ctx, net::pc_profile());
  session_.refresh(sharer_, c2_post, to_bytes("c2 v2"), ctx, net::pc_profile());
  EXPECT_EQ(session_.storage_host().object_count(), 2u);
  const auto c1 = session_.access(friend_, c1_post, Knowledge::full(ctx), net::pc_profile());
  const auto c2 = session_.access(friend_, c2_post, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(c1.success());
  ASSERT_TRUE(c2.success());
  EXPECT_EQ(*c1.object, to_bytes("c1 v2"));
  EXPECT_EQ(*c2.object, to_bytes("c2 v2"));
}

TEST_F(SessionTest, RefreshAfterTheDhLostTheBlobServesTheNewObject) {
  // A DH that lost a post's blob leaves refresh nothing to retire: the new
  // object is published, refresh returns normally and the next access is
  // granted the new object.
  const Context ctx = party_context();
  const std::string c1_post =
      session_.share_c1(sharer_, to_bytes("c1 v1"), ctx, 2, 4, net::pc_profile()).post_id;
  const std::string c2_post =
      session_.share_c2(sharer_, to_bytes("c2 v1"), ctx, 2, net::pc_profile()).post_id;
  for (const auto& [url, blob] : session_.storage_host().observed_blobs()) {
    session_.storage_host().remove(url);
  }

  EXPECT_NO_THROW(session_.refresh(sharer_, c1_post, to_bytes("c1 v2"), ctx, net::pc_profile()));
  EXPECT_NO_THROW(session_.refresh(sharer_, c2_post, to_bytes("c2 v2"), ctx, net::pc_profile()));
  EXPECT_EQ(session_.storage_host().object_count(), 2u);
  const auto c1 = session_.access(friend_, c1_post, Knowledge::full(ctx), net::pc_profile());
  const auto c2 = session_.access(friend_, c2_post, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(c1.success());
  ASSERT_TRUE(c2.success());
  EXPECT_EQ(*c1.object, to_bytes("c1 v2"));
  EXPECT_EQ(*c2.object, to_bytes("c2 v2"));
}

TEST_F(SessionTest, RevokeAfterTheDhLostTheBlobIsANoOp) {
  // A post is revoked exactly when its blob is gone from the DH, so a post
  // whose blob the DH lost is already revoked: revoke has nothing to pull.
  auto& revokes = obs::MetricsRegistry::global().counter("sp_revoke_requests_total");
  const Context ctx = party_context();
  const std::string post =
      session_.share_c1(sharer_, to_bytes("v1"), ctx, 2, 4, net::pc_profile()).post_id;
  session_.storage_host().remove(session_.storage_host().observed_blobs().begin()->first);

  const auto before = revokes.value();
  EXPECT_NO_THROW(session_.revoke(sharer_, post));
  EXPECT_EQ(revokes.value(), before);
  const auto missed = session_.access(friend_, post, Knowledge::full(ctx), net::pc_profile());
  EXPECT_TRUE(missed.granted);
  EXPECT_EQ(missed.error, net::ServeError::kDhMiss);

  session_.refresh(sharer_, post, to_bytes("v2"), ctx, net::pc_profile());
  const auto restored = session_.access(friend_, post, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(restored.success());
  EXPECT_EQ(*restored.object, to_bytes("v2"));
}

TEST_F(SessionTest, MaliciousDhTamperCausesDetectedFailure) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("obj"), ctx, 1, 4, net::pc_profile());
  // Tamper every stored object (there is exactly one).
  for (const auto& [url, blob] : session_.storage_host().observed_blobs()) {
    session_.storage_host().tamper(url, blob.size() / 2);
  }
  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_TRUE(result.granted);           // Verify succeeded at the SP
  EXPECT_FALSE(result.object.has_value());  // but decryption detected tampering
}

}  // namespace
}  // namespace sp::core
