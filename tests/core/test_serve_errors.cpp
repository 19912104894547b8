// Negative-path coverage for every ServeError kind at both constructions:
// each fault is forced with probability 1 in its op class, and the tests
// assert the error is surfaced on the result (never a silent empty object)
// and that the ledger still carries what the failed attempts cost. The
// statistical mixed-fault load lives in test_chaos.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::to_bytes;

SessionConfig faulted_config(const std::string& label, std::optional<net::FaultPlan> plan,
                             net::RetryPolicy retry = {}) {
  SessionConfig cfg = testsupport::toy_config(label);
  cfg.faults = std::move(plan);
  cfg.retry = retry;
  return cfg;
}

/// A two-user session with one C1 and one C2 post, under a caller-chosen
/// fault plan. k = 2 of the party context's 4 questions for both posts.
struct FaultRig {
  explicit FaultRig(const std::string& label, std::optional<net::FaultPlan> plan,
                    net::RetryPolicy retry = {})
      : session(faulted_config(label, std::move(plan), retry)),
        sharer(session.register_user("sharer")),
        receiver(session.register_user("receiver")),
        ctx(testsupport::party_context()) {
    session.befriend(sharer, receiver);
    c1_post = session.share_c1(sharer, to_bytes("c1 object"), ctx, 2, 4, net::pc_profile())
                  .post_id;
    c2_post = session.share_c2(sharer, to_bytes("c2 object"), ctx, 2, net::pc_profile())
                  .post_id;
  }

  Session session;
  osn::UserId sharer;
  osn::UserId receiver;
  Context ctx;
  std::string c1_post;
  std::string c2_post;
};

net::FaultPlan only(double net::FaultPlan::* prob) {
  net::FaultPlan plan;
  plan.*prob = 1.0;
  return plan;
}

// ---------------------------------------------------------------- timeout

TEST(ServeErrorPaths, TimeoutSurfacesAndChargesWaitNotNetwork) {
  FaultRig rig("serve-err-timeout", only(&net::FaultPlan::p_transfer_timeout));
  auto& transfers = obs::MetricsRegistry::global().counter("net_transfers_total");
  auto& moved = obs::MetricsRegistry::global().counter("net_bytes_total");
  for (const std::string& post : {rig.c1_post, rig.c2_post}) {
    const auto transfers0 = transfers.value();
    const auto moved0 = moved.value();
    const auto result =
        rig.session.access(rig.receiver, post, Knowledge::full(rig.ctx), net::pc_profile());
    // A timed-out exchange never reaches the link model.
    EXPECT_EQ(transfers.value(), transfers0);
    EXPECT_EQ(moved.value(), moved0);
    EXPECT_FALSE(result.granted);
    EXPECT_FALSE(result.object.has_value());
    EXPECT_EQ(result.error, net::ServeError::kTimeout);
    // The very first exchange (challenge download) is lost: the wasted wait
    // is charged, but no payload moved and no modeled network delay accrued.
    EXPECT_DOUBLE_EQ(result.cost.wait_ms(), 400.0);
    EXPECT_DOUBLE_EQ(result.cost.network_ms(), 0.0);
    EXPECT_EQ(result.cost.bytes_transferred(), 0u);
  }
}

TEST(ServeErrorPaths, LatencySpikeChargesItsSurchargeToEveryExchange) {
  // Twin sessions on one seed: the same shares, challenges and link jitter,
  // so the spiked requests differ from the fault-free ones only by the
  // surcharge — once per request/response exchange (C1: challenge, Verify,
  // blob; C2: challenge, Verify and three file downloads).
  net::FaultPlan plan = only(&net::FaultPlan::p_latency_spike);
  plan.latency_spike_ms = 123.0;
  FaultRig spiked("serve-err-spike", plan);
  FaultRig clean("serve-err-spike", std::nullopt);
  auto& delays = obs::MetricsRegistry::global().histogram("net_transfer_ms");
  struct Case {
    std::string spiked_post;
    std::string clean_post;
    int exchanges;
  };
  const Case cases[] = {{spiked.c1_post, clean.c1_post, 3}, {spiked.c2_post, clean.c2_post, 5}};
  std::uint64_t spikes = 0;
  for (const auto& [spiked_post, clean_post, exchanges] : cases) {
    const double delays0 = delays.sum_ms();
    const auto result = spiked.session.access(spiked.receiver, spiked_post,
                                              Knowledge::full(spiked.ctx), net::pc_profile());
    const double link_ms = delays.sum_ms() - delays0;
    const auto twin = clean.session.access(clean.receiver, clean_post,
                                           Knowledge::full(clean.ctx), net::pc_profile());
    ASSERT_TRUE(result.success()) << spiked_post;  // a spike slows a request, never fails it
    ASSERT_TRUE(twin.success()) << clean_post;
    EXPECT_EQ(*result.object, *twin.object);
    EXPECT_NEAR(result.cost.network_ms(), twin.cost.network_ms() + exchanges * 123.0, 1e-6);
    EXPECT_DOUBLE_EQ(result.cost.wait_ms(), 0.0);
    EXPECT_EQ(result.cost.bytes_transferred(), twin.cost.bytes_transferred());
    // net_transfer_ms records the link model's delay; the surcharge lands
    // only in the request's ledger (µs rounding slack per observation).
    EXPECT_NEAR(link_ms, twin.cost.network_ms(), 0.01 * exchanges);
    spikes += static_cast<std::uint64_t>(exchanges);
  }
  EXPECT_EQ(spiked.session.fault_injector()->injected(net::FaultKind::kLatencySpike), spikes);
}

TEST(ServeErrorPaths, RetriesExhaustAttemptsAndMergeEveryAttemptsCost) {
  FaultRig rig("serve-err-timeout-retry", only(&net::FaultPlan::p_transfer_timeout));
  const auto result = rig.session.access_with_retries(rig.receiver, rig.c1_post,
                                                      Knowledge::full(rig.ctx), net::pc_profile());
  EXPECT_FALSE(result.success());
  EXPECT_EQ(result.error, net::ServeError::kTimeout);
  EXPECT_EQ(result.attempts, net::RetryPolicy{}.max_attempts);
  // 4 lost exchanges at 400 ms each plus three backoffs (25/50/100 ms, each
  // jittered by at most +25%).
  EXPECT_GE(result.cost.wait_ms(), 4 * 400.0 + 175.0);
  EXPECT_LE(result.cost.wait_ms(), 4 * 400.0 + 175.0 * 1.25 + 1e-9);
}

TEST(ServeErrorPaths, DeadlineExceededIsTerminalAndCounted) {
  net::RetryPolicy tight;
  tight.deadline_ms = 100.0;  // below even one attempt's 400 ms wasted wait
  FaultRig rig("serve-err-deadline", only(&net::FaultPlan::p_transfer_timeout), tight);
  auto& deadline_total =
      obs::MetricsRegistry::global().counter("sp_deadline_exceeded_total");
  const auto deadline0 = deadline_total.value();

  const auto result = rig.session.access_with_retries(rig.receiver, rig.c2_post,
                                                      Knowledge::full(rig.ctx), net::pc_profile());
  EXPECT_FALSE(result.success());
  EXPECT_EQ(result.error, net::ServeError::kDeadlineExceeded);
  EXPECT_FALSE(net::is_transient(net::ServeError::kDeadlineExceeded));
  EXPECT_EQ(result.attempts, 1);  // budget died before a second attempt
  EXPECT_EQ(deadline_total.value(), deadline0 + 1);
}

// ---------------------------------------------------------------- SP errors

TEST(ServeErrorPaths, SpOutageSurfacesAndStillChargesTheUpload) {
  FaultRig rig("serve-err-sp", only(&net::FaultPlan::p_sp_error));
  for (const std::string& post : {rig.c1_post, rig.c2_post}) {
    const auto result =
        rig.session.access(rig.receiver, post, Knowledge::full(rig.ctx), net::pc_profile());
    EXPECT_FALSE(result.granted);
    EXPECT_FALSE(result.object.has_value());
    EXPECT_EQ(result.error, net::ServeError::kSpUnavailable);
    // The receiver downloaded the challenge and uploaded a response into the
    // void before learning the SP was down — both are real paid traffic.
    EXPECT_GT(result.cost.network_ms(), 0.0);
    EXPECT_GT(result.cost.bytes_transferred(), 0u);
  }
}

TEST(ServeErrorPaths, PartialReplyBelowThresholdIsUnserviceable) {
  net::FaultPlan plan = only(&net::FaultPlan::p_sp_partial);
  plan.partial_drop_frac = 1.0;  // the SP reply loses every granted entry
  FaultRig rig("serve-err-partial-all", plan);
  const auto result = rig.session.access(rig.receiver, rig.c1_post, Knowledge::full(rig.ctx),
                                         net::pc_profile());
  EXPECT_FALSE(result.granted);
  EXPECT_FALSE(result.object.has_value());
  EXPECT_EQ(result.error, net::ServeError::kSpUnavailable);
}

TEST(ServeErrorPaths, PartialReplyAboveThresholdDegradesGracefully) {
  net::FaultPlan plan = only(&net::FaultPlan::p_sp_partial);
  plan.partial_drop_frac = 0.01;  // clamps to exactly one lost entry
  net::RetryPolicy patient;
  patient.max_attempts = 8;  // a 2-question challenge minus one entry retries
  FaultRig rig("serve-err-partial-one", plan, patient);
  const auto result = rig.session.access_with_retries(rig.receiver, rig.c1_post,
                                                      Knowledge::full(rig.ctx), net::pc_profile());
  // Access only needs k = 2 of the surviving entries: losing one from a
  // 3-or-4-question challenge still reconstructs and decrypts.
  ASSERT_TRUE(result.success());
  EXPECT_EQ(*result.object, to_bytes("c1 object"));
  EXPECT_FALSE(result.error.has_value());
}

// ---------------------------------------------------------------- DH faults

TEST(ServeErrorPaths, DhMissSurfacesAfterGrant) {
  FaultRig rig("serve-err-dh-miss", only(&net::FaultPlan::p_dh_miss));
  for (const std::string& post : {rig.c1_post, rig.c2_post}) {
    const auto result =
        rig.session.access(rig.receiver, post, Knowledge::full(rig.ctx), net::pc_profile());
    // The SP granted — the failure is purely the storage host's.
    EXPECT_TRUE(result.granted);
    EXPECT_FALSE(result.success());
    EXPECT_FALSE(result.object.has_value());
    EXPECT_EQ(result.error, net::ServeError::kDhMiss);
  }
}

TEST(ServeErrorPaths, DhMissRetriesStillChargeEveryAttempt) {
  FaultRig rig("serve-err-dh-miss-retry", only(&net::FaultPlan::p_dh_miss));
  const auto single = rig.session.access(rig.receiver, rig.c1_post, Knowledge::full(rig.ctx),
                                         net::pc_profile());
  const auto retried = rig.session.access_with_retries(
      rig.receiver, rig.c1_post, Knowledge::full(rig.ctx), net::pc_profile());
  EXPECT_EQ(retried.error, net::ServeError::kDhMiss);
  EXPECT_EQ(retried.attempts, net::RetryPolicy{}.max_attempts);
  // Four attempts' worth of real traffic plus backoff waits. (Byte counts
  // vary per attempt with the drawn challenge size, so the bound is loose.)
  EXPECT_GT(retried.cost.network_ms(), 2.5 * single.cost.network_ms());
  EXPECT_GT(retried.cost.bytes_transferred(), single.cost.bytes_transferred());
  EXPECT_GT(retried.cost.wait_ms(), 0.0);
}

TEST(ServeErrorPaths, CorruptedBlobNeverDecryptsSilently) {
  FaultRig rig("serve-err-corrupt", only(&net::FaultPlan::p_dh_corrupt));
  const auto at_rest = rig.session.storage_host().observed_blobs();
  for (const std::string& post : {rig.c1_post, rig.c2_post}) {
    const auto result =
        rig.session.access(rig.receiver, post, Knowledge::full(rig.ctx), net::pc_profile());
    EXPECT_TRUE(result.granted);  // grant happened; delivery was poisoned
    EXPECT_FALSE(result.object.has_value());
    EXPECT_EQ(result.error, net::ServeError::kCorruptedBlob);
  }
  // Only the delivered copies were corrupted: the objects at rest are intact.
  EXPECT_EQ(rig.session.storage_host().observed_blobs(), at_rest);
}

// ---------------------------------------------------------------- denials

TEST(ServeErrorPaths, CleanDenialCarriesNoError) {
  // No fault plan at all: a denial for lack of knowledge is not a fault and
  // must not look like one.
  FaultRig rig("serve-err-clean", std::nullopt);
  crypto::Drbg rng("serve-err-clean-knowledge");
  const Knowledge thin = Knowledge::partial(rig.ctx, 1, rng);  // k - 1 correct
  for (const std::string& post : {rig.c1_post, rig.c2_post}) {
    const auto result = rig.session.access_with_retries(rig.receiver, post, thin,
                                                        net::pc_profile(), /*max_draws=*/3);
    EXPECT_FALSE(result.granted);
    EXPECT_FALSE(result.object.has_value());
    EXPECT_FALSE(result.error.has_value());
  }
}

}  // namespace
}  // namespace sp::core
