// Multi-thread hammers for the single-writer WAL queue and the durable
// hosts, named *ConcurrencyHammer so the TSan CI job's filter picks them up
// (.github/workflows/ci.yml). These are race detectors, not correctness
// oracles — the correctness assertions live in test_wal / test_store.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codec/records.hpp"
#include "crypto/bytes.hpp"
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

Bytes record(int i) {
  return codec::encode_envelope({codec::Envelope::Op::kPut, 1, static_cast<std::uint64_t>(i),
                                 "id-" + std::to_string(i), to_bytes("v")});
}

TEST(WalConcurrencyHammer, MixedAppendAsyncFlushFromManyThreads) {
  TempDir tmp;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::uint64_t expected = 0;
  {
    WalWriter::Options opts;
    opts.fsync = WalWriter::Fsync::kNever;
    WalWriter wal(tmp.path("wal.log"), opts);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int n = t * kPerThread + i;
          switch (i % 4) {
            case 0:
              wal.append(record(n));
              break;
            case 1:
              wal.enqueue(record(n));  // nobody waits on this ticket
              break;
            case 2:
              wal.wait(wal.enqueue(record(n)));
              break;
            default:
              wal.enqueue(record(n));
              if (i % 16 == 3) wal.flush();
              break;
          }
          (void)wal.current_file_bytes();
        }
      });
    }
    for (auto& th : threads) th.join();
    wal.flush();
    expected = kThreads * kPerThread;
  }
  std::uint64_t seen = 0;
  replay_wal(tmp.path("wal.log"), [&](const codec::Frame&) { ++seen; });
  EXPECT_EQ(seen, expected);
}

TEST(WalConcurrencyHammer, RotationRacesAppendsWithoutLoss) {
  TempDir tmp;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  constexpr int kRotations = 8;
  {
    WalWriter::Options opts;
    opts.fsync = WalWriter::Fsync::kNever;
    WalWriter wal(tmp.path("wal-0.log"), opts);
    std::atomic<bool> done{false};
    std::thread rotator([&] {
      for (int r = 1; r <= kRotations; ++r) {
        wal.rotate_to(tmp.path("wal-" + std::to_string(r) + ".log"));
      }
      done.store(true);
    });
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) wal.append(record(t * kPerThread + i));
      });
    }
    for (auto& th : threads) th.join();
    rotator.join();
    EXPECT_TRUE(done.load());
  }
  // Every record landed in exactly one of the rotation's files.
  std::uint64_t seen = 0;
  for (int r = 0; r <= kRotations; ++r) {
    replay_wal(tmp.path("wal-" + std::to_string(r) + ".log"),
               [&](const codec::Frame&) { ++seen; });
  }
  EXPECT_EQ(seen, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(DurableHostConcurrencyHammer, StoreFetchRemoveCheckpointMix) {
  TempDir tmp;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 150;
  std::atomic<std::uint64_t> stored{0};
  std::atomic<std::uint64_t> removed{0};
  {
    storage::DurableStore::Options opts;
    opts.dir = tmp.str() + "/dh";
    opts.wal.fsync = WalWriter::Fsync::kNever;
    osn::StorageHost dh(opts);
    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string url = dh.store(to_bytes("blob-" + std::to_string(t * 1000 + i)));
          stored.fetch_add(1);
          (void)dh.fetch(url);
          if (i % 3 == 0) {
            dh.remove(url);
            removed.fetch_add(1);
          }
        }
      });
    }
    threads.emplace_back([&] {
      for (int c = 0; c < 25; ++c) {
        dh.checkpoint();
        std::this_thread::yield();
      }
    });
    for (auto& th : threads) th.join();
    dh.sync();
    EXPECT_EQ(dh.object_count(), stored.load() - removed.load());
  }
  // Reopen: the concurrent checkpoints must not have lost or duplicated
  // anything relative to the live map at close.
  storage::DurableStore::Options opts;
  opts.dir = tmp.str() + "/dh";
  opts.wal.fsync = WalWriter::Fsync::kNever;
  osn::StorageHost dh(opts);
  EXPECT_EQ(dh.object_count(), stored.load() - removed.load());
}

}  // namespace
}  // namespace sp::storage
