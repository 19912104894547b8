// Unit coverage for the deterministic fault layer: error taxonomy, plan
// validation, per-stream PRF determinism, schedule digests, retry backoff
// math and the cost ledger. How Session applies each draw is covered in
// tests/core/test_serve_errors.cpp, and the end-to-end chaos load lives in
// tests/core/test_chaos.cpp; this file pins the primitives they rely on.
#include "net/faults.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/simnet.hpp"
#include "obs/metrics.hpp"

namespace sp::net {
namespace {

TEST(ServeErrors, TransientVsTerminalClassification) {
  EXPECT_TRUE(is_transient(ServeError::kTimeout));
  EXPECT_TRUE(is_transient(ServeError::kSpUnavailable));
  EXPECT_TRUE(is_transient(ServeError::kDhMiss));
  EXPECT_TRUE(is_transient(ServeError::kCorruptedBlob));
  EXPECT_FALSE(is_transient(ServeError::kDeadlineExceeded));
}

TEST(ServeErrors, NamesAreStable) {
  // The strings land in logs and bench JSON; renames are a breaking change.
  EXPECT_STREQ(to_string(ServeError::kTimeout), "timeout");
  EXPECT_STREQ(to_string(ServeError::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(FaultKind::kTransferTimeout), "transfer_timeout");
  EXPECT_STREQ(to_string(FaultKind::kSpPartialReply), "sp_partial_reply");
  EXPECT_STREQ(to_string(FaultKind::kDhCorrupt), "dh_corrupt");
}

TEST(Expected, HoldsValueOrError) {
  const Expected<double> good(3.5);
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good.value(), 3.5);

  const Expected<double> bad(ServeError::kDhMiss);
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(bad.error(), ServeError::kDhMiss);
}

TEST(FaultPlan, UniformSetsEveryClassAndValidatesRate) {
  const FaultPlan plan = FaultPlan::uniform(0.25, "unit");
  EXPECT_DOUBLE_EQ(plan.p_transfer_timeout, 0.25);
  EXPECT_DOUBLE_EQ(plan.p_latency_spike, 0.25);
  EXPECT_DOUBLE_EQ(plan.p_sp_error, 0.25);
  EXPECT_DOUBLE_EQ(plan.p_sp_partial, 0.25);
  EXPECT_DOUBLE_EQ(plan.p_dh_miss, 0.25);
  EXPECT_DOUBLE_EQ(plan.p_dh_corrupt, 0.25);
  EXPECT_THROW((void)FaultPlan::uniform(-0.1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::uniform(1.1), std::invalid_argument);
}

TEST(FaultInjector, RejectsMalformedPlans) {
  FaultPlan out_of_range;
  out_of_range.p_sp_error = 1.5;
  EXPECT_THROW(FaultInjector{out_of_range}, std::invalid_argument);

  // The timeout/spike and miss/corrupt pairs partition one unit draw each,
  // so their probabilities must not sum past 1.
  FaultPlan transfer_sum;
  transfer_sum.p_transfer_timeout = 0.7;
  transfer_sum.p_latency_spike = 0.7;
  EXPECT_THROW(FaultInjector{transfer_sum}, std::invalid_argument);

  FaultPlan dh_sum;
  dh_sum.p_dh_miss = 0.6;
  dh_sum.p_dh_corrupt = 0.6;
  EXPECT_THROW(FaultInjector{dh_sum}, std::invalid_argument);
}

TEST(FaultInjector, NonePlanNeverFires) {
  const FaultInjector injector(FaultPlan::none());
  FaultStream tape = injector.stream_for_label("quiet");
  for (int i = 0; i < 100; ++i) {
    const auto transfer = tape.next_transfer();
    EXPECT_FALSE(transfer.fault.has_value());
    EXPECT_DOUBLE_EQ(transfer.extra_ms, 0.0);
    EXPECT_FALSE(tape.next_sp_error());
    EXPECT_EQ(tape.next_sp_partial(4), 0u);
    EXPECT_FALSE(tape.next_dh().has_value());
  }
  EXPECT_EQ(injector.injected_total(), 0u);
}

TEST(FaultInjector, CertainProbabilitiesAlwaysFire) {
  FaultPlan plan;
  plan.p_transfer_timeout = 1.0;
  plan.p_sp_error = 1.0;
  plan.p_sp_partial = 1.0;
  plan.p_dh_miss = 1.0;
  const FaultInjector injector(plan);
  FaultStream tape = injector.stream_for_label("doomed");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(tape.next_transfer().fault, ServeError::kTimeout);
    EXPECT_TRUE(tape.next_sp_error());
    // partial_drop_frac 0.5 of 4 granted entries drops 2.
    EXPECT_EQ(tape.next_sp_partial(4), 2u);
    EXPECT_EQ(tape.next_dh(), ServeError::kDhMiss);
  }
  EXPECT_EQ(injector.injected(FaultKind::kTransferTimeout), 10u);
  EXPECT_EQ(injector.injected(FaultKind::kSpError), 10u);
  EXPECT_EQ(injector.injected(FaultKind::kSpPartialReply), 10u);
  EXPECT_EQ(injector.injected(FaultKind::kDhMiss), 10u);
  EXPECT_EQ(injector.injected_total(), 40u);
}

TEST(FaultInjector, PartialDropClampsToAtLeastOneAndAtMostAll) {
  FaultPlan plan;
  plan.p_sp_partial = 1.0;
  plan.partial_drop_frac = 0.01;  // floor(n * 0.01) == 0 -> clamped to 1
  {
    const FaultInjector injector(plan);
    FaultStream tape = injector.stream_for_label("clamp-low");
    EXPECT_EQ(tape.next_sp_partial(4), 1u);
    EXPECT_EQ(tape.next_sp_partial(0), 0u);  // nothing granted, nothing to drop
  }
  plan.partial_drop_frac = 1.0;
  {
    const FaultInjector injector(plan);
    FaultStream tape = injector.stream_for_label("clamp-high");
    EXPECT_EQ(tape.next_sp_partial(4), 4u);
  }
}

TEST(FaultInjector, SameSeedSameDecisionsDifferentSeedDifferentDigest) {
  const FaultPlan plan = FaultPlan::uniform(0.3, "replay-me");
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  FaultStream ta = a.stream_for_label("req");
  FaultStream tb = b.stream_for_label("req");
  for (int i = 0; i < 64; ++i) {
    const auto fa = ta.next_transfer();
    const auto fb = tb.next_transfer();
    EXPECT_EQ(fa.fault, fb.fault);
    EXPECT_DOUBLE_EQ(fa.extra_ms, fb.extra_ms);
    EXPECT_EQ(ta.next_sp_error(), tb.next_sp_error());
    EXPECT_EQ(ta.next_sp_partial(6), tb.next_sp_partial(6));
    EXPECT_EQ(ta.next_dh(), tb.next_dh());
    EXPECT_DOUBLE_EQ(ta.jitter_unit(static_cast<std::uint64_t>(i)),
                     tb.jitter_unit(static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(a.schedule_digest("req", 8, 16), b.schedule_digest("req", 8, 16));

  const FaultInjector c(FaultPlan::uniform(0.3, "replay-me-not"));
  EXPECT_NE(a.schedule_digest("req", 8, 16), c.schedule_digest("req", 8, 16));
}

TEST(FaultInjector, RequestOrdinalsGiveRetriesFreshTapes) {
  const FaultPlan plan = FaultPlan::uniform(0.3, "ordinals");
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  // a's second stream for the same request key is a different tape than its
  // first; b (fresh ordinal map) replays a's first tape exactly.
  FaultStream a1 = a.stream(7, "post");
  FaultStream a2 = a.stream(7, "post");
  FaultStream b1 = b.stream(7, "post");
  EXPECT_DOUBLE_EQ(a1.jitter_unit(0), b1.jitter_unit(0));
  EXPECT_NE(a1.jitter_unit(0), a2.jitter_unit(0));
  // Distinct request keys are independent tapes too.
  FaultStream other = b.stream(8, "post");
  EXPECT_NE(b1.jitter_unit(1), other.jitter_unit(1));
}

TEST(FaultInjector, ScheduleDigestDoesNotCountAsInjected) {
  const FaultInjector injector(FaultPlan::uniform(0.5, "digest-probe"));
  auto& reg = obs::MetricsRegistry::global();
  auto& spikes = reg.counter("sp_faults_injected_total", "", {{"kind", "latency_spike"}});
  const auto spikes0 = spikes.value();
  (void)injector.schedule_digest("probe", 16, 16);
  EXPECT_EQ(injector.injected_total(), 0u);
  EXPECT_EQ(spikes.value(), spikes0);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyWithCapAndJitter) {
  RetryPolicy policy;  // 25ms base, x2, 1000ms cap, 25% jitter
  EXPECT_DOUBLE_EQ(policy.backoff_ms(0, 0.0), 25.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(1, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(2, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(20, 0.0), 1000.0);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_ms(0, 1.0), 25.0 * 1.25);
  EXPECT_THROW((void)policy.backoff_ms(-1, 0.0), std::invalid_argument);
}

TEST(CostLedger, WaitBucketAndMergeAccumulateAcrossAttempts) {
  CostLedger total(pc_profile());
  total.add_wait(400.0);

  CostLedger attempt(pc_profile());
  attempt.add_local_measured(3.0);
  attempt.add_network(7.0);
  attempt.add_wait(25.0);
  attempt.add_bytes(512);
  total.merge(attempt);

  EXPECT_DOUBLE_EQ(total.wait_ms(), 425.0);
  EXPECT_DOUBLE_EQ(total.local_ms(), 3.0);
  EXPECT_DOUBLE_EQ(total.network_ms(), 7.0);
  EXPECT_DOUBLE_EQ(total.total_ms(), 435.0);
  EXPECT_EQ(total.bytes_transferred(), 512u);
}

}  // namespace
}  // namespace sp::net
