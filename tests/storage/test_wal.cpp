#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/records.hpp"
#include "codec/wire.hpp"
#include "crypto/bytes.hpp"
#include "obs/metrics.hpp"
#include "storage/wal.hpp"
#include "support/temp_dir.hpp"

namespace sp::storage {
namespace {

namespace fs = std::filesystem;
using crypto::Bytes;
using crypto::to_bytes;
using testsupport::TempDir;

Bytes record(int i) {
  return codec::encode_envelope(
      {codec::Envelope::Op::kPut, 1, static_cast<std::uint64_t>(i),
       "id-" + std::to_string(i), to_bytes("value-" + std::to_string(i))});
}

TEST(WalWriter, AppendThenReplayRoundTrips) {
  TempDir tmp;
  const std::string path = tmp.path("wal.log");
  {
    WalWriter wal(path, {});
    for (int i = 0; i < 100; ++i) wal.append(record(i));
  }
  std::vector<codec::Envelope> seen;
  const WalReplayStats stats =
      replay_wal(path, [&](const codec::Frame& f) { seen.push_back(decode_envelope_payload(f)); });
  EXPECT_EQ(stats.records, 100u);
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].id, "id-" + std::to_string(i));
  }
}

TEST(WalWriter, EnqueueFixesReplayOrderWaitIsSeparate) {
  TempDir tmp;
  const std::string path = tmp.path("wal.log");
  {
    WalWriter wal(path, {});
    std::vector<WalWriter::Ticket> tickets;
    tickets.reserve(50);
    for (int i = 0; i < 50; ++i) tickets.push_back(wal.enqueue(record(i)));
    // Waiting out of order must not reorder the log.
    for (auto it = tickets.rbegin(); it != tickets.rend(); ++it) wal.wait(*it);
  }
  int next = 0;
  replay_wal(path, [&](const codec::Frame& f) {
    EXPECT_EQ(decode_envelope_payload(f).id, "id-" + std::to_string(next++));
  });
  EXPECT_EQ(next, 50);
}

TEST(WalWriter, AsyncAppendsStayOrderedWithSyncOnes) {
  TempDir tmp;
  const std::string path = tmp.path("wal.log");
  {
    WalWriter wal(path, {});
    for (int i = 0; i < 40; ++i) {
      if (i % 2 == 0) {
        wal.enqueue(record(i));  // nobody waits on this ticket
      } else {
        wal.append(record(i));
      }
    }
    wal.flush();
  }
  int next = 0;
  replay_wal(path, [&](const codec::Frame& f) {
    EXPECT_EQ(decode_envelope_payload(f).id, "id-" + std::to_string(next++));
  });
  EXPECT_EQ(next, 40);
}

TEST(WalWriter, TornTailIsDetectedAndTruncated) {
  TempDir tmp;
  const std::string path = tmp.path("wal.log");
  {
    WalWriter wal(path, {});
    for (int i = 0; i < 10; ++i) wal.append(record(i));
  }
  // Simulate a crash mid-record: append half of an eleventh frame by hand.
  const Bytes torn = record(10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size() / 2));
  }
  const std::uint64_t dirty_size = fs::file_size(path);

  std::size_t seen = 0;
  const WalReplayStats stats = replay_wal(path, [&](const codec::Frame&) { ++seen; });
  EXPECT_EQ(seen, 10u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_LT(fs::file_size(path), dirty_size);  // truncated back to valid data

  // A second replay of the truncated file is clean.
  const WalReplayStats again = replay_wal(path, [](const codec::Frame&) {});
  EXPECT_EQ(again.records, 10u);
  EXPECT_FALSE(again.torn_tail);

  // And a writer reopened on it appends after the valid prefix.
  {
    WalWriter wal(path, {});
    wal.append(record(10));
  }
  const WalReplayStats final_stats = replay_wal(path, [](const codec::Frame&) {});
  EXPECT_EQ(final_stats.records, 11u);
  EXPECT_FALSE(final_stats.torn_tail);
}

TEST(WalWriter, CorruptMiddleRecordStopsReplayAtIt) {
  TempDir tmp;
  const std::string path = tmp.path("wal.log");
  std::uint64_t first_two = 0;
  {
    WalWriter wal(path, {});
    wal.append(record(0));
    wal.append(record(1));
    first_two = wal.current_file_bytes();
    wal.append(record(2));
  }
  // Flip a byte inside the third record.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(first_two) + 20);
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(first_two) + 20);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  std::size_t seen = 0;
  const WalReplayStats stats = replay_wal(path, [&](const codec::Frame&) { ++seen; });
  EXPECT_EQ(seen, 2u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(fs::file_size(path), first_two);
}

TEST(WalWriter, RotateDrainsOldFileThenSwitches) {
  TempDir tmp;
  const std::string a = tmp.path("wal-0.log");
  const std::string b = tmp.path("wal-1.log");
  {
    WalWriter wal(a, {});
    for (int i = 0; i < 5; ++i) wal.enqueue(record(i));  // no wait before the rotate
    wal.rotate_to(b);
    EXPECT_EQ(wal.path(), b);
    EXPECT_EQ(wal.current_file_bytes(), 0u);
    for (int i = 5; i < 8; ++i) wal.append(record(i));
  }
  std::size_t in_a = 0;
  std::size_t in_b = 0;
  replay_wal(a, [&](const codec::Frame&) { ++in_a; });
  replay_wal(b, [&](const codec::Frame&) { ++in_b; });
  EXPECT_EQ(in_a, 5u);  // everything enqueued before the rotate landed in a
  EXPECT_EQ(in_b, 3u);
}

TEST(WalWriter, FileBytesTrackAppends) {
  TempDir tmp;
  WalWriter wal(tmp.path("wal.log"), {});
  EXPECT_EQ(wal.current_file_bytes(), 0u);
  const Bytes r = record(0);
  wal.append(r);
  EXPECT_EQ(wal.current_file_bytes(), r.size());
  // Reopening on the same file resumes the byte count (checkpoint trigger
  // must survive process restarts).
  const std::string path = wal.path();
  const std::uint64_t bytes = wal.current_file_bytes();
  {
    WalWriter reopened(path, {});
    EXPECT_EQ(reopened.current_file_bytes(), bytes);
  }
}

TEST(WalWriter, FsyncNeverAlsoDurableForReplay) {
  TempDir tmp;
  const std::string path = tmp.path("wal.log");
  {
    WalWriter::Options opts;
    opts.fsync = WalWriter::Fsync::kNever;
    WalWriter wal(path, opts);
    for (int i = 0; i < 20; ++i) wal.append(record(i));
  }
  std::size_t seen = 0;
  replay_wal(path, [&](const codec::Frame&) { ++seen; });
  EXPECT_EQ(seen, 20u);
}

TEST(WalWriter, GroupCommitBatchesConcurrentAppends) {
  // With 8 threads hammering one writer, the drain-everything policy must
  // produce far fewer batches (fsyncs) than records. The batch counter is
  // process-wide, so assert on deltas.
  auto& reg = sp::obs::MetricsRegistry::global();
  auto& appends = reg.counter("sp_storage_wal_appends_total");
  auto& batches = reg.counter("sp_storage_wal_batches_total");
  const auto appends0 = appends.value();
  const auto batches0 = batches.value();

  TempDir tmp;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    WalWriter wal(tmp.path("wal.log"), {});
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) wal.append(record(t * kPerThread + i));
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(appends.value() - appends0, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Single-threaded worst case would be one batch per record; with eight
  // concurrent producers at least *some* grouping must happen.
  EXPECT_LT(batches.value() - batches0, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GT(batches.value() - batches0, 0u);
}

}  // namespace
}  // namespace sp::storage
