// Chaos layer: seeded fault injection under concurrent load. Eight threads
// drive a mixed C1/C2 access mix (receiver i pinned to thread i, as the
// fault determinism contract requires) at 1% and 10% uniform fault rates,
// asserting the run never crashes, every request is accounted for
// (granted + denied + deadline-exceeded == issued), the process-wide
// sp_faults_injected_total deltas match the injector's own counters, and two
// same-seed runs are byte-identical in both fault schedule and outcomes.
// These tests carry the ChaosHammer name the TSan CI filter selects.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "core/thread_pool.hpp"
#include "crypto/drbg.hpp"
#include "obs/metrics.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::to_bytes;

constexpr std::size_t kThreads = 8;
constexpr int kRequestsPerThread = 12;
constexpr int kIssued = static_cast<int>(kThreads) * kRequestsPerThread;

SessionConfig chaos_config(double rate, const std::string& schedule,
                           ec::ParamPreset preset = ec::ParamPreset::kToy) {
  SessionConfig cfg = testsupport::toy_config("chaos-tests");
  cfg.pairing_preset = preset;
  net::FaultPlan plan = net::FaultPlan::uniform(rate, schedule);
  // Drop whole replies rather than a fraction: a fractional drop's outcome
  // depends on the drawn challenge size, whose RNG fork order is
  // scheduling-dependent under 8 threads. With frac = 1 every outcome is a
  // pure function of the fault schedule, so same-seed runs match exactly.
  // (Fractional partial replies are covered single-threaded in
  // test_serve_errors.cpp.)
  plan.partial_drop_frac = 1.0;
  cfg.faults = std::move(plan);
  cfg.retry.max_attempts = 5;
  return cfg;
}

struct Outcome {
  int granted = 0;
  int denied = 0;
  int deadline = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// The 8-thread mixed load: thread t drives receiver t through
/// `per_thread` requests, alternating the C1 and C2 posts, with retries.
/// Returns the summed outcome tally.
Outcome run_chaos_load(testsupport::FanoutRig& rig, int per_thread = kRequestsPerThread) {
  std::array<Outcome, kThreads> tallies{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rig, &tallies, per_thread, t] {
      const Knowledge knows = Knowledge::full(rig.ctx_);
      for (int i = 0; i < per_thread; ++i) {
        const bool is_c1 = i % 2 == 0;
        const std::string& post = is_c1 ? rig.c1_post_ : rig.c2_post_;
        const auto result = rig.session_.access_with_retries(rig.receivers_[t], post, knows,
                                                             net::pc_profile(), /*max_draws=*/4);
        if (result.success()) {
          ++tallies[t].granted;
          // A grant under chaos must still deliver the right plaintext.
          EXPECT_EQ(*result.object, is_c1 ? to_bytes("c1 object") : to_bytes("c2 object"));
        } else if (result.error == net::ServeError::kDeadlineExceeded) {
          ++tallies[t].deadline;
        } else {
          ++tallies[t].denied;
          // Full knowledge never cleanly denies C2, and C1 redraws cover it;
          // any non-deadline failure here must name its fault.
          EXPECT_TRUE(result.error.has_value());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Outcome total;
  for (const Outcome& o : tallies) {
    total.granted += o.granted;
    total.denied += o.denied;
    total.deadline += o.deadline;
  }
  return total;
}

TEST(ChaosHammer, TenPercentMixedLoadAccountsForEveryRequest) {
  testsupport::FanoutRig rig(chaos_config(0.10, "chaos-ten"), kThreads);
  const Outcome tally = run_chaos_load(rig);
  EXPECT_EQ(tally.granted + tally.denied + tally.deadline, kIssued);
  // At 10% per op class something must both fail and be saved by a retry.
  ASSERT_NE(rig.session_.fault_injector(), nullptr);
  EXPECT_GT(rig.session_.fault_injector()->injected_total(), 0u);
  EXPECT_GT(tally.granted, 0);
}

TEST(ChaosHammer, OnePercentMixedLoadMostlySucceeds) {
  // The fault-sweep bar: with a 5-attempt retry budget, a 1% uniform fault
  // rate is absorbed to a 99.5% success rate over 200 requests at the test
  // preset, and every request is accounted for. The tally is deterministic
  // per seed, so the bar is stable.
  constexpr int kPerThread = 25;
  constexpr int kSweepIssued = static_cast<int>(kThreads) * kPerThread;
  testsupport::FanoutRig rig(chaos_config(0.01, "chaos-one", ec::ParamPreset::kTest), kThreads);
  const Outcome tally = run_chaos_load(rig, kPerThread);
  EXPECT_EQ(tally.granted + tally.denied + tally.deadline, kSweepIssued);
  EXPECT_GE(tally.granted * 1000, kSweepIssued * 995)
      << tally.granted << " of " << kSweepIssued << " granted";
}

TEST(ChaosHammer, MetricsDeltasMatchInjectorCounts) {
  auto& reg = obs::MetricsRegistry::global();
  std::array<obs::Counter*, net::kFaultKindCount> counters{};
  std::array<std::uint64_t, net::kFaultKindCount> before{};
  for (std::size_t i = 0; i < net::kFaultKindCount; ++i) {
    counters[i] = &reg.counter("sp_faults_injected_total", "",
                               {{"kind", to_string(static_cast<net::FaultKind>(i))}});
    before[i] = counters[i]->value();
  }

  testsupport::FanoutRig rig(chaos_config(0.10, "chaos-metrics"), kThreads);
  (void)run_chaos_load(rig);

  const net::FaultInjector* injector = rig.session_.fault_injector();
  ASSERT_NE(injector, nullptr);
  for (std::size_t i = 0; i < net::kFaultKindCount; ++i) {
    EXPECT_EQ(counters[i]->value() - before[i],
              injector->injected(static_cast<net::FaultKind>(i)))
        << to_string(static_cast<net::FaultKind>(i));
  }
}

TEST(ChaosHammer, SameSeedRunsAreByteIdentical) {
  // Two rigs built from the same config replay the same universe: identical
  // schedule digests, identical per-kind injected-fault counts, identical
  // outcome tallies — even though each run interleaves 8 threads freely.
  testsupport::FanoutRig first(chaos_config(0.10, "chaos-replay"), kThreads);
  const Outcome tally_a = run_chaos_load(first);

  testsupport::FanoutRig second(chaos_config(0.10, "chaos-replay"), kThreads);
  const Outcome tally_b = run_chaos_load(second);

  const net::FaultInjector* ia = first.session_.fault_injector();
  const net::FaultInjector* ib = second.session_.fault_injector();
  ASSERT_NE(ia, nullptr);
  ASSERT_NE(ib, nullptr);
  EXPECT_EQ(ia->schedule_digest("replay-probe", 16, 8), ib->schedule_digest("replay-probe", 16, 8));
  for (std::size_t i = 0; i < net::kFaultKindCount; ++i) {
    EXPECT_EQ(ia->injected(static_cast<net::FaultKind>(i)),
              ib->injected(static_cast<net::FaultKind>(i)))
        << to_string(static_cast<net::FaultKind>(i));
  }
  EXPECT_TRUE(tally_a == tally_b);

  // A different schedule string is a different universe.
  testsupport::FanoutRig other(chaos_config(0.10, "chaos-replay-b"), kThreads);
  const net::FaultInjector* ic = other.session_.fault_injector();
  ASSERT_NE(ic, nullptr);
  EXPECT_NE(ia->schedule_digest("replay-probe", 16, 8), ic->schedule_digest("replay-probe", 16, 8));
}

// ---- fork-join fault isolation under seeded chaos ----------------------

struct ForkChaosTally {
  int calls_ok = 0;
  int calls_failed = 0;
  int clean_jobs_ran = 0;

  friend bool operator==(const ForkChaosTally&, const ForkChaosTally&) = default;
};

/// Eight threads share one ThreadPool and fork-join through run_all; each
/// thread's fault schedule is a seeded Drbg stream (~10% of calls get a
/// throwing job injected), so two same-seed runs face the identical fault
/// universe. Returns the summed tally.
ForkChaosTally run_fork_chaos(const std::string& seed) {
  ThreadPool pool(4);
  std::array<ForkChaosTally, kThreads> per_thread{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &per_thread, &seed, t] {
      crypto::Drbg rng(seed + "-verify-chaos-" + std::to_string(t));
      std::atomic<int> ran{0};
      for (int round = 0; round < 30; ++round) {
        const bool faulty = rng.bytes(1)[0] < 26;  // ~10% of calls
        std::vector<std::function<void()>> jobs(3, [&ran] { ran.fetch_add(1); });
        if (faulty) jobs.emplace_back([] { throw std::runtime_error("chaos verify fault"); });
        try {
          pool.run_all(jobs);
          EXPECT_FALSE(faulty) << "faulted call must not complete cleanly";
          ++per_thread[t].calls_ok;
        } catch (const std::runtime_error&) {
          EXPECT_TRUE(faulty) << "clean call caught a fault from another request";
          ++per_thread[t].calls_failed;
        }
      }
      per_thread[t].clean_jobs_ran = ran.load();
    });
  }
  for (std::thread& th : threads) th.join();
  ForkChaosTally total;
  for (const ForkChaosTally& o : per_thread) {
    total.calls_ok += o.calls_ok;
    total.calls_failed += o.calls_failed;
    total.clean_jobs_ran += o.clean_jobs_ran;
  }
  return total;
}

TEST(ChaosHammer, RunAllFaultsStayInTheirOwnCall) {
  const ForkChaosTally tally = run_fork_chaos("queue-chaos");
  // Every call is accounted for, and a failed call never loses its healthy
  // jobs: all 3 clean jobs per call ran regardless.
  EXPECT_EQ(tally.calls_ok + tally.calls_failed, static_cast<int>(kThreads) * 30);
  EXPECT_EQ(tally.clean_jobs_ran, static_cast<int>(kThreads) * 30 * 3);
  // At ~10% a seeded run has both failures and survivors.
  EXPECT_GT(tally.calls_failed, 0);
  EXPECT_GT(tally.calls_ok, tally.calls_failed);
  // Same-seed replay is outcome-identical.
  EXPECT_TRUE(run_fork_chaos("queue-chaos") == tally);
}

TEST(ChaosHammer, SessionVerifyPathSurvivesChaosThroughTheQueue) {
  // End-to-end: the Session runs every C1/C2 Verify on the request thread,
  // timed by the sp.verify phase. Under a 10% net-fault plan the earlier
  // accounting tests already pin totals; here every grant must have
  // verified at least once (retries and redraws can add more).
  auto& verify_phase = obs::MetricsRegistry::global().histogram(
      "sp_phase_latency_ms", "", obs::Histogram::default_latency_bounds_ms(),
      {{"phase", "sp.verify"}});
  const auto verifies_before = verify_phase.count();
  testsupport::FanoutRig rig(chaos_config(0.10, "chaos-queue-e2e"), kThreads);
  const Outcome tally = run_chaos_load(rig);
  EXPECT_EQ(tally.granted + tally.denied + tally.deadline, kIssued);
  EXPECT_GE(verify_phase.count() - verifies_before, static_cast<std::uint64_t>(tally.granted));
}

}  // namespace
}  // namespace sp::core
