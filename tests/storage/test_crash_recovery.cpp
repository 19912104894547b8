// The kCrash chaos layer's acceptance gate (ISSUE 8): a durable StorageHost
// is SIGKILLed at a PRF-scheduled WAL kill point and must recover with zero
// record loss for acknowledged writes — at the 100k-post scale, with a
// checkpoint in the history, and under concurrent writers.
//
// Structure: the test forks. The child serves real writes and reports each
// *acknowledged* store over a pipe (one line per ack, written only after
// store() returned, i.e. after the WAL write completed); the crash schedule
// kills it mid-batch via raise(SIGKILL). The parent drains the pipe, reaps
// the SIGKILL, reopens the directory and asserts every acked object is
// present and intact. fsync=kNever is sufficient against SIGKILL (the page
// cache survives process death), which keeps the 100k-post run fast.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/bytes.hpp"
#include "net/faults.hpp"
#include "obs/metrics.hpp"
#include "osn/storage_host.hpp"
#include "storage/store.hpp"
#include "storage/wal.hpp"
#include "support/temp_dir.hpp"

namespace sp::storage {
namespace {

namespace fs = std::filesystem;
using crypto::Bytes;
using crypto::to_bytes;
using testsupport::TempDir;

Bytes blob_for(std::uint64_t i) { return to_bytes("post-" + std::to_string(i) + "-payload"); }

/// Writes one full ack line to `fd`. A single write(2) per line keeps lines
/// atomic (<= PIPE_BUF) under concurrent writers, and nothing is buffered in
/// userspace — a SIGKILL can lose an ack (safe direction: we just check one
/// record fewer) but can never fabricate one.
void ack_line(int fd, std::uint64_t i, const std::string& url) {
  const std::string line = std::to_string(i) + " " + url + "\n";
  ASSERT_EQ(::write(fd, line.data(), line.size()), static_cast<ssize_t>(line.size()));
}

struct ChildOutcome {
  std::map<std::uint64_t, std::string> acked;  ///< index -> URL, full lines only
  bool phase1_done = false;
  int wait_status = 0;
};

/// Drains the ack pipe until EOF (child death closes it), then reaps.
ChildOutcome reap(int read_fd, pid_t child) {
  ChildOutcome out;
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(read_fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl = 0;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (line == "PHASE1-DONE") {
        out.phase1_done = true;
        continue;
      }
      std::istringstream iss(line);
      std::uint64_t i = 0;
      std::string url;
      if (iss >> i >> url) out.acked[i] = url;
    }
  }
  ::close(read_fd);
  EXPECT_EQ(::waitpid(child, &out.wait_status, 0), child);
  return out;
}

/// The WAL kill point a plan schedules: one crash draw per record from the
/// writer's own labeled tape, so two writers with distinct labels crash
/// independently under one plan.
std::function<bool()> scheduled_kill_point(const net::FaultInjector& injector,
                                           std::string_view label) {
  return [tape = injector.stream_for_label(label)]() mutable { return tape.next_crash(); };
}

DurableStore::Options host_opts(const std::string& dir, const net::FaultInjector* injector) {
  DurableStore::Options opts;
  opts.dir = dir;
  opts.wal.fsync = WalWriter::Fsync::kNever;
  if (injector != nullptr) {
    opts.wal.kill_point = scheduled_kill_point(*injector, "dh-wal");
    opts.wal.on_crash = [] {
      ::raise(SIGKILL);
      ::pause();  // unreachable; satisfies "must not return"
    };
  }
  return opts;
}

void verify_recovery(const std::string& dir, const ChildOutcome& outcome,
                     std::uint64_t min_acked) {
  ASSERT_TRUE(WIFSIGNALED(outcome.wait_status))
      << "child should die at the kill point, status=" << outcome.wait_status;
  EXPECT_EQ(WTERMSIG(outcome.wait_status), SIGKILL);
  ASSERT_GE(outcome.acked.size(), min_acked);

  osn::StorageHost dh(host_opts(dir, nullptr));
  // Zero record loss for acknowledged writes: every acked URL is present
  // with exactly the bytes that were stored.
  for (const auto& [i, url] : outcome.acked) {
    ASSERT_TRUE(dh.exists(url)) << "acked post " << i << " lost (" << url << ")";
    EXPECT_EQ(dh.fetch(url), blob_for(i)) << "acked post " << i << " corrupted";
  }
  // Unacked records may or may not have reached the file; the torn crash
  // record itself must have been dropped cleanly, not half-applied.
  EXPECT_GE(dh.object_count(), outcome.acked.size());
  EXPECT_LE(dh.object_count(), outcome.acked.size() + 64);
}

TEST(CrashRecovery, HundredThousandPostsSurviveSigkillAtScheduledPoint) {
  constexpr std::uint64_t kPhase1Posts = 100'000;
  constexpr std::uint64_t kPhase2Cap = 100'000;

  TempDir tmp;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    const int ack_fd = pipe_fds[1];
    // Phase 1: 100k acknowledged posts, with a checkpoint in the middle so
    // recovery exercises the segment + WAL path, then a clean close.
    {
      osn::StorageHost dh(host_opts(tmp.str(), nullptr));
      for (std::uint64_t i = 0; i < kPhase1Posts; ++i) {
        const std::string url = dh.store(blob_for(i));
        ack_line(ack_fd, i, url);
        if (i == kPhase1Posts / 2) dh.checkpoint();
      }
      dh.sync();
    }
    {
      const std::string done = "PHASE1-DONE\n";
      if (::write(ack_fd, done.data(), done.size()) != static_cast<ssize_t>(done.size())) {
        ::_Exit(3);
      }
    }
    // Phase 2: reopen with the crash schedule armed and write until the PRF
    // kill point fires (expected after ~5k records; the cap is a safety net
    // at ~20 expected crashes).
    net::FaultPlan plan;
    plan.p_crash = 2e-4;
    plan.seed = "crash-at-scale";
    const net::FaultInjector injector(plan);
    osn::StorageHost dh(host_opts(tmp.str(), &injector));
    for (std::uint64_t i = 0; i < kPhase2Cap; ++i) {
      const std::string url = dh.store(blob_for(kPhase1Posts + i));
      ack_line(ack_fd, kPhase1Posts + i, url);
    }
    ::_Exit(2);  // schedule never fired — the parent fails on !WIFSIGNALED
  }

  ::close(pipe_fds[1]);
  const ChildOutcome outcome = reap(pipe_fds[0], child);
  EXPECT_TRUE(outcome.phase1_done);
  verify_recovery(tmp.str(), outcome, kPhase1Posts);
}

TEST(CrashRecovery, ConcurrentWritersDieMidBatchAndRecover) {
  // Several threads in one group-commit batch when the kill point fires: the
  // batch prefix before the crash record must replay, the torn record must
  // not, and every *acked* write must survive regardless of which thread it
  // came from.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;

  TempDir tmp;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    const int ack_fd = pipe_fds[1];
    net::FaultPlan plan;
    plan.p_crash = 5e-4;
    plan.seed = "crash-mid-batch";
    const net::FaultInjector injector(plan);
    osn::StorageHost dh(host_opts(tmp.str(), &injector));
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&dh, ack_fd, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t n = static_cast<std::uint64_t>(t) * kPerThread + i;
          const std::string url = dh.store(blob_for(n));
          const std::string line = std::to_string(n) + " " + url + "\n";
          if (::write(ack_fd, line.data(), line.size()) < 0) return;
        }
      });
    }
    for (auto& th : threads) th.join();
    ::_Exit(2);  // schedule never fired
  }

  ::close(pipe_fds[1]);
  const ChildOutcome outcome = reap(pipe_fds[0], child);
  verify_recovery(tmp.str(), outcome, /*min_acked=*/1);
}

TEST(CrashRecovery, KillPointCountsIntoChaosMetrics) {
  // In-process arm of the chaos cross-check: override on_crash to abort the
  // writer without killing the test, then compare the injector's count and
  // the sp_faults_injected_total{kind="crash"} delta.
  auto& crash_metric = obs::MetricsRegistry::global().counter("sp_faults_injected_total", "",
                                                              {{"kind", "crash"}});
  const auto metric0 = crash_metric.value();

  TempDir tmp;
  fs::create_directories(tmp.str());
  net::FaultPlan plan;
  plan.p_crash = 0.02;
  plan.seed = "crash-metrics";
  const net::FaultInjector injector(plan);

  WalWriter::Options opts;
  opts.fsync = WalWriter::Fsync::kNever;
  opts.kill_point = scheduled_kill_point(injector, "metrics-wal");
  std::atomic<bool> crashed{false};
  opts.on_crash = [&crashed] {
    crashed.store(true);
    throw std::runtime_error("kill point");  // writer records the error; waiters rethrow
  };

  WalWriter wal(tmp.str() + "/wal.log", opts);
  bool saw_failure = false;
  for (int i = 0; i < 2000 && !saw_failure; ++i) {
    try {
      wal.append(codec::encode_envelope({codec::Envelope::Op::kPut, 1, 0, "k", to_bytes("v")}));
    } catch (const std::runtime_error&) {
      saw_failure = true;
    }
  }
  ASSERT_TRUE(saw_failure) << "p=0.02 over 2000 draws should fire";
  EXPECT_TRUE(crashed.load());
  EXPECT_GE(injector.injected(net::FaultKind::kCrash), 1u);
  EXPECT_EQ(crash_metric.value() - metric0, injector.injected(net::FaultKind::kCrash));
}

}  // namespace
}  // namespace sp::storage
