// End-to-end checks that the serving stack reports into the global
// MetricsRegistry: access outcome counters and latency series, the
// access_with_retries counters, and the per-phase histograms (the paper's
// Fig. 10 decomposition). The registry is process-wide and shared across
// tests, so every assertion is on deltas around the operation under test.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "support/fixtures.hpp"
#include "support/temp_dir.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::to_bytes;
using testsupport::party_context;

obs::Counter& counter(const char* name, const obs::Labels& labels = {}) {
  return obs::MetricsRegistry::global().counter(name, "", labels);
}

obs::Histogram& phase_hist(const char* phase) {
  return obs::MetricsRegistry::global().histogram(
      "sp_phase_latency_ms", "", obs::Histogram::default_latency_bounds_ms(),
      {{"phase", phase}});
}

obs::Histogram& outcome_hist(const char* scheme, const char* result) {
  return obs::MetricsRegistry::global().histogram(
      "sp_access_latency_ms", "", obs::Histogram::default_latency_bounds_ms(),
      {{"result", result}, {"scheme", scheme}});
}

class ObservabilityTest : public testsupport::SessionFixture {
 protected:
  ObservabilityTest() : SessionFixture(testsupport::toy_config("observability-tests")) {}
};

TEST_F(ObservabilityTest, DeniedRetriesCountAndStayOutOfSuccessSeries) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("object"), ctx, /*k=*/2, /*n=*/4, net::pc_profile());

  auto& denied_total = counter("sp_access_denied_total");
  auto& granted_total = counter("sp_access_granted_total");
  auto& retried_total = counter("sp_retries_total", {{"phase", "draw"}});
  auto& denied_requests = counter("sp_access_requests_total",
                                  {{"result", "denied"}, {"scheme", "c1"}});
  auto& granted_hist = outcome_hist("c1", "granted");
  auto& denied_hist = outcome_hist("c1", "denied");
  const auto denied0 = denied_total.value();
  const auto granted0 = granted_total.value();
  const auto retried0 = retried_total.value();
  const auto denied_req0 = denied_requests.value();
  const auto granted_hist0 = granted_hist.count();
  const auto denied_hist0 = denied_hist.count();

  // k - 1 correct answers: every draw must deny, so all 3 draws are spent.
  crypto::Drbg rng("obs-partial");
  const auto result = session_.access_with_retries(
      friend_, receipt.post_id, Knowledge::partial(ctx, 1, rng), net::pc_profile(),
      /*max_draws=*/3);
  EXPECT_FALSE(result.granted);

  EXPECT_EQ(denied_total.value(), denied0 + 1);    // one exhausted call
  EXPECT_EQ(retried_total.value(), retried0 + 2);  // draws 2 and 3
  EXPECT_EQ(granted_total.value(), granted0);
  EXPECT_EQ(denied_requests.value(), denied_req0 + 3);  // every draw denied
  // The secret-hygiene of the outcome split: a denied receiver must never
  // appear in the success latency series.
  EXPECT_EQ(granted_hist.count(), granted_hist0);
  EXPECT_EQ(denied_hist.count(), denied_hist0 + 3);
}

TEST_F(ObservabilityTest, GrantedC1AccessPopulatesOutcomeAndPhaseSeries) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("object"), ctx, 2, 4, net::pc_profile());

  auto& granted_total = counter("sp_access_granted_total");
  auto& granted_requests = counter("sp_access_requests_total",
                                   {{"result", "granted"}, {"scheme", "c1"}});
  auto& granted_hist = outcome_hist("c1", "granted");
  auto& answer_phase = phase_hist("c1.answer_hashes");
  auto& verify_phase = phase_hist("sp.verify");
  auto& fetch_phase = phase_hist("dh.fetch");
  auto& interpolate_phase = phase_hist("c1.interpolate");
  const auto granted0 = granted_total.value();
  const auto requests0 = granted_requests.value();
  const auto hist0 = granted_hist.count();
  const auto answer0 = answer_phase.count();
  const auto verify0 = verify_phase.count();
  const auto fetch0 = fetch_phase.count();
  const auto interpolate0 = interpolate_phase.count();

  const auto result = session_.access_with_retries(friend_, receipt.post_id,
                                                    Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());

  EXPECT_EQ(granted_total.value(), granted0 + 1);
  EXPECT_EQ(granted_requests.value(), requests0 + 1);
  EXPECT_EQ(granted_hist.count(), hist0 + 1);
  EXPECT_EQ(answer_phase.count(), answer0 + 1);
  EXPECT_EQ(verify_phase.count(), verify0 + 1);
  EXPECT_EQ(fetch_phase.count(), fetch0 + 1);
  EXPECT_EQ(interpolate_phase.count(), interpolate0 + 1);
  EXPECT_GT(granted_hist.sum_ms(), 0.0);
}

TEST_F(ObservabilityTest, C2AccessPopulatesAbePhasesAndPairingHistogram) {
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c2(sharer_, to_bytes("object"), ctx, 2, net::pc_profile());

  auto& upload_phase = phase_hist("c2.upload");
  auto& keygen_phase = phase_hist("c2.keygen");
  auto& decrypt_phase = phase_hist("c2.decrypt");
  auto& access_phase = phase_hist("c2.access");
  auto& multi_hist = obs::MetricsRegistry::global().histogram("crypto_multi_pairing_ms");
  auto& pairs_total = obs::MetricsRegistry::global().counter(
      "crypto_multi_pairing_pairs_total", "Pairs folded into multi-pairing products");
  EXPECT_GE(upload_phase.count(), 1u);  // the share above already ran
  const auto keygen0 = keygen_phase.count();
  const auto decrypt0 = decrypt_phase.count();
  const auto access0 = access_phase.count();
  const auto multi0 = multi_hist.count();
  const auto pairs0 = pairs_total.value();

  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());

  EXPECT_EQ(keygen_phase.count(), keygen0 + 1);
  EXPECT_EQ(decrypt_phase.count(), decrypt0 + 1);
  EXPECT_EQ(access_phase.count(), access0 + 1);
  // Since PR 7 a decrypt is ONE multi-pairing product folding 2k+1 pairs
  // (k satisfied leaves: num + den each, plus the blinding pair e(C, D)).
  EXPECT_EQ(multi_hist.count(), multi0 + 1);
  EXPECT_GE(pairs_total.value(), pairs0 + 3);
}

TEST_F(ObservabilityTest, SpVerifyPathSubmitsNoPoolTask) {
  // The SP's Verify runs on the request thread: neither C1 grants nor
  // below-threshold denials of either construction hand work to a pool.
  const Context ctx = party_context();
  const auto c1 = session_.share_c1(sharer_, to_bytes("c1 object"), ctx, 2, 4, net::pc_profile());
  const auto c2 = session_.share_c2(sharer_, to_bytes("c2 object"), ctx, 2, net::pc_profile());
  auto& pool_tasks = counter("pool_tasks_total");
  crypto::Drbg rng("obs-no-hop");
  const auto tasks0 = pool_tasks.value();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        session_.access(friend_, c1.post_id, Knowledge::full(ctx), net::pc_profile()).success());
    EXPECT_FALSE(session_
                     .access(friend_, c1.post_id, Knowledge::partial(ctx, 1, rng),
                             net::pc_profile())
                     .granted);
    EXPECT_FALSE(session_
                     .access(friend_, c2.post_id, Knowledge::partial(ctx, 1, rng),
                             net::pc_profile())
                     .granted);
  }
  EXPECT_EQ(pool_tasks.value(), tasks0);
  // Positive control: a C2 grant's leaf Miller loops still get pool helpers.
  ASSERT_TRUE(
      session_.access(friend_, c2.post_id, Knowledge::full(ctx), net::pc_profile()).success());
  EXPECT_GT(pool_tasks.value(), tasks0);
}

TEST_F(ObservabilityTest, ShareAndRefreshCountersIncrement) {
  const Context ctx = party_context();
  auto& shares_c1 = counter("sp_share_requests_total", {{"scheme", "c1"}});
  auto& refreshes = counter("sp_refresh_requests_total");
  const auto shares0 = shares_c1.value();
  const auto refreshes0 = refreshes.value();

  const auto receipt =
      session_.share_c1(sharer_, to_bytes("object"), ctx, 2, 4, net::pc_profile());
  EXPECT_EQ(shares_c1.value(), shares0 + 1);

  session_.refresh(sharer_, receipt.post_id, to_bytes("object v2"), ctx, net::pc_profile());
  EXPECT_EQ(refreshes.value(), refreshes0 + 1);
  EXPECT_EQ(shares_c1.value(), shares0 + 1);  // refresh is not a share
}

// ec_scalar_muls_total{path}: the generator tables are owned by Schnorr and
// CpAbe, and the sharer's by the receiver, so no amount of C2 traffic evicts
// them. A granted C1 access is one Schnorr Verify: two fixed-base and no
// generic multiplications, the first grant (which builds the sharer's
// table) included.
TEST_F(ObservabilityTest, GrantedC1AccessCostsTwoFixedBaseAndNoGenericMuls) {
  auto& fixed_base = counter("ec_scalar_muls_total", {{"path", "fixed_base"}});
  auto& generic = counter("ec_scalar_muls_total", {{"path", "generic"}});
  const Context ctx = party_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes("object"), ctx, 2, 4, net::pc_profile());
  const auto access_muls = [&] {
    const auto fixed0 = fixed_base.value();
    const auto generic0 = generic.value();
    const auto result =
        session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
    EXPECT_TRUE(result.success());
    return std::pair{fixed_base.value() - fixed0, generic.value() - generic0};
  };
  const std::pair<std::uint64_t, std::uint64_t> two_fixed{2, 0};
  EXPECT_EQ(access_muls(), two_fixed);
  EXPECT_EQ(access_muls(), two_fixed);
  for (int i = 0; i < 70; ++i) {
    (void)session_.share_c2(sharer_, to_bytes("c2 object " + std::to_string(i)), ctx, 2,
                            net::pc_profile());
  }
  EXPECT_EQ(access_muls(), two_fixed);
}

TEST_F(ObservabilityTest, RegisterUserCostsOneFixedBaseMul) {
  auto& fixed_base = counter("ec_scalar_muls_total", {{"path", "fixed_base"}});
  auto& generic = counter("ec_scalar_muls_total", {{"path", "generic"}});
  const auto fixed0 = fixed_base.value();
  const auto generic0 = generic.value();
  (void)session_.register_user("late joiner");
  EXPECT_EQ(fixed_base.value() - fixed0, 1U);
  EXPECT_EQ(generic.value() - generic0, 0U);
}

// A durable session serving one grant of each construction reports into
// every serving family a scrape needs: requests and phases, the leaf pool,
// the DH, the WAL, recovery and the curve layer.
TEST_F(ObservabilityTest, DurableSessionExportsEveryServingFamily) {
  const testsupport::TempDir tmp;  // outlives the rig below
  SessionConfig cfg = testsupport::toy_config("observability-durable");
  cfg.persistence = PersistenceConfig{tmp.str()};
  testsupport::FanoutRig rig(cfg, 1);
  for (const std::string& post : {rig.c1_post_, rig.c2_post_}) {
    ASSERT_TRUE(rig.session_
                    .access(rig.receivers_[0], post, Knowledge::full(rig.ctx_), net::pc_profile())
                    .success())
        << post;
  }

  const auto& registry = obs::MetricsRegistry::global();
  EXPECT_GT(registry.series_count(), 0u);
  const std::string text = registry.to_prometheus();
  for (const char* family :
       {"sp_access_requests_total", "sp_phase_latency_ms", "pool_tasks_total",
        "osn_dh_requests_total", "sp_storage_wal_appends_total", "sp_storage_recovery_ms",
        "ec_scalar_muls_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "), std::string::npos)
        << "missing family: " << family;
  }
}

}  // namespace
}  // namespace sp::core
