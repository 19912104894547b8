// ThreadPool::run_all, the fork-join runner behind the receiver's C2 leaf
// pairings: every job runs exactly once, the caller works and can finish
// alone (busy workers, a worker caller), the lowest-index error wins, and
// nothing of a call outlives it. The multi-thread hammers live in
// test_concurrency.cpp (TSan filter) and the seeded fault replay in
// test_chaos.cpp.
#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ec/pairing.hpp"
#include "ec/params.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {
namespace {

using Job = std::function<void()>;

std::uint64_t pool_tasks() {
  return obs::MetricsRegistry::global().counter("pool_tasks_total", "").value();
}

TEST(ThreadPool, RunAllRunsEveryJobExactlyOnce) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> ran(64);
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < ran.size(); ++i) {
      jobs.emplace_back([&ran, i] { ran[i].fetch_add(1, std::memory_order_relaxed); });
    }
    pool.run_all(jobs);
    for (std::size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "job " << i << " round " << round;
    }
  }
}

TEST(ThreadPool, RunAllEmptySpanReturnsAtOnce) {
  ThreadPool pool(1);
  const auto tasks0 = pool_tasks();
  pool.run_all({});
  EXPECT_EQ(pool_tasks(), tasks0);  // no helper was lent
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, NoWorkersRunEveryJobOnTheCallerInOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const auto tasks0 = pool_tasks();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 8; ++i) {
    jobs.emplace_back([&order, caller, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
  }
  pool.run_all(jobs);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(pool_tasks(), tasks0);  // no helper was lent
}

TEST(ThreadPool, RunAllRethrowsLowestIndexError) {
  // Job 3 throws first; job 1 throws only after job 3 has, so the errors
  // finish in the opposite order of their indexes. Every job still runs.
  ThreadPool pool(2);
  std::atomic<bool> third_threw{false};
  std::atomic<int> ran{0};
  std::vector<Job> jobs(5, [&ran] { ran.fetch_add(1); });
  jobs[1] = [&] {
    ran.fetch_add(1);
    while (!third_threw.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    throw std::logic_error("lowest index, thrown last");
  };
  jobs[3] = [&] {
    ran.fetch_add(1);
    third_threw.store(true);
    throw std::runtime_error("higher index, thrown first");
  };
  EXPECT_THROW(pool.run_all(jobs), std::logic_error);
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPool, RunAllCompletesWhileEveryWorkerIsParked) {
  // The only worker is parked in another caller's job: this caller must run
  // its own jobs instead of queueing behind it.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<int> parked{0};
  const std::vector<Job> slow(2, [&] {
    parked.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });
  // Its caller blocks in one slow job, so the worker must take the other.
  std::thread other([&] { pool.run_all(slow); });
  while (parked.load() != 2) std::this_thread::yield();
  EXPECT_EQ(pool.in_flight(), 1u);
  std::atomic<int> ran{0};
  const std::vector<Job> jobs(4, [&ran] { ran.fetch_add(1); });
  pool.run_all(jobs);  // returns while the worker is still blocked
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(pool.queue_depth(), 0u);  // its unclaimed helper was withdrawn
  release.store(true);
  other.join();
}

TEST(ThreadPool, RunAllFromAWorkerFinishesAlone) {
  // Two jobs that wait for each other run on two threads, so one of them
  // runs on the pool's only worker. Each forks eight jobs of its own: the
  // worker's call can get no helper and must not wait for one.
  ThreadPool pool(1);
  std::atomic<int> started{0};
  std::atomic<int> ran{0};
  const std::vector<Job> outer(2, [&] {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    const std::vector<Job> jobs(8, [&ran] { ran.fetch_add(1); });
    pool.run_all(jobs);
  });
  EXPECT_NO_THROW(pool.run_all(outer));
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPool, RunAllLendsAtMostNumThreadsHelpersAndLeavesNoneBehind) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    const auto tasks0 = pool_tasks();
    std::atomic<int> ran{0};
    const std::vector<Job> jobs(16, [&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    pool.run_all(jobs);
    EXPECT_EQ(ran.load(), 16);
    EXPECT_LE(pool_tasks() - tasks0, pool.num_threads());
    // Withdrawn or finished: no helper of the call is queued or running.
    EXPECT_EQ(pool.queue_depth(), 0u);
    EXPECT_EQ(pool.in_flight(), 0u);
  }
  // A single job needs no helper at all.
  const auto tasks0 = pool_tasks();
  int ran = 0;
  const std::vector<Job> one(1, [&ran] { ++ran; });
  pool.run_all(one);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool_tasks(), tasks0);
}

TEST(ThreadPool, RunAllAsPairingRunnerMatchesInline) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const ec::Pairing pairing(curve);
  crypto::Drbg rng("run-all-pairing");
  std::vector<ec::Pairing::Term> terms;
  for (int i = 0; i < 5; ++i) {
    terms.push_back({curve.random_group_element(rng), curve.random_group_element(rng),
                     /*inverse=*/i % 2 == 1});
  }
  ThreadPool pool(2);
  const ec::Pairing::Runner runner = [&pool](std::span<const Job> jobs) { pool.run_all(jobs); };
  EXPECT_EQ(pairing.product(terms, runner), pairing.product(terms));
}

TEST(ThreadPool, RunAllHelperSpansEndInsideTheCallersTrace) {
  auto& tracer = obs::Tracer::global();
  tracer.configure(obs::TracerConfig{});
  tracer.set_enabled(true);
  (void)tracer.drain();
  auto& dropped = obs::MetricsRegistry::global().counter("sp_trace_spans_dropped_total", "");
  const auto dropped0 = dropped.value();
  std::uint64_t root_id = 0;
  {
    ThreadPool pool(2);
    obs::Span root = tracer.start_trace("test.fork");
    EXPECT_TRUE(root.recording());
    root_id = root.span_id();
    const obs::ContextGuard guard(root.context());
    // A two-party barrier: neither job can finish until the other started,
    // so a helper must run one of them.
    std::atomic<int> started{0};
    const std::vector<Job> jobs(2, [&started] {
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
    });
    pool.run_all(jobs);
  }  // the root ends right after run_all returned
  const auto traces = tracer.drain();
  tracer.set_enabled(false);
  ASSERT_EQ(traces.size(), 1u);
  int tasks = 0;
  int waits = 0;
  for (const obs::SpanRecord& s : traces.front().spans) {
    if (s.name == "pool.task") ++tasks;
    if (s.name == "pool.wait") ++waits;
    if (s.name == "pool.task" || s.name == "pool.wait") {
      EXPECT_EQ(s.parent_id, root_id);
    }
  }
  EXPECT_EQ(tasks, 2);  // one per job, the caller's included
  EXPECT_GE(waits, 1);  // only a helper that ran waited in the queue
  EXPECT_EQ(dropped.value(), dropped0) << "a helper span ended after its trace sealed";
}

TEST(ThreadPool, EveryJobRunsUnderAPoolTaskSpan) {
  auto& tracer = obs::Tracer::global();
  tracer.configure(obs::TracerConfig{});
  tracer.set_enabled(true);
  (void)tracer.drain();
  std::uint64_t root_id = 0;
  {
    ThreadPool pool(0);  // the caller runs every job
    obs::Span root = tracer.start_trace("test.fork");
    root_id = root.span_id();
    const obs::ContextGuard guard(root.context());
    std::vector<Job> jobs(3, [] {});
    jobs[1] = [] { obs::Span(obs::Tracer::current(), "test.inside_job").end(); };
    pool.run_all(jobs);
  }
  const auto traces = tracer.drain();
  tracer.set_enabled(false);
  ASSERT_EQ(traces.size(), 1u);
  std::vector<std::uint64_t> task_ids;
  const obs::SpanRecord* inside = nullptr;
  for (const obs::SpanRecord& s : traces.front().spans) {
    if (s.name == "pool.task") {
      task_ids.push_back(s.span_id);
      EXPECT_EQ(s.parent_id, root_id);
    }
    if (s.name == "test.inside_job") inside = &s;
    EXPECT_NE(s.name, "pool.wait") << "no helper was queued";
  }
  EXPECT_EQ(task_ids.size(), 3u);
  ASSERT_NE(inside, nullptr);
  EXPECT_NE(std::find(task_ids.begin(), task_ids.end(), inside->parent_id), task_ids.end())
      << "a job's own spans nest under its pool.task";
}

}  // namespace
}  // namespace sp::core
