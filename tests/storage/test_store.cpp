#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "codec/records.hpp"
#include "crypto/bytes.hpp"
#include "storage/store.hpp"
#include "support/temp_dir.hpp"

namespace sp::storage {
namespace {

namespace fs = std::filesystem;
using codec::Envelope;
using crypto::Bytes;
using crypto::to_bytes;
using testsupport::TempDir;

Envelope put(int i) {
  return {Envelope::Op::kPut, 1, static_cast<std::uint64_t>(i), "id-" + std::to_string(i),
          to_bytes("value-" + std::to_string(i))};
}

Envelope erase(int i) { return {Envelope::Op::kErase, 1, 0, "id-" + std::to_string(i), {}}; }

/// Replays a directory into a map the way a host would.
std::map<std::string, Bytes> materialize(const std::string& dir,
                                         DurableStore::RecoveryStats* stats = nullptr) {
  DurableStore store({dir, {}, 64ull << 20});
  std::map<std::string, Bytes> state;
  const auto s = store.recover([&](const Envelope& env) {
    switch (env.op) {
      case Envelope::Op::kPut:
        state[env.id] = env.value;
        break;
      case Envelope::Op::kErase:
        state.erase(env.id);
        break;
      case Envelope::Op::kObserve:
        break;
    }
  });
  if (stats != nullptr) *stats = s;
  return state;
}

TEST(DurableStore, FreshDirectoryRecoversEmptyAndPersistsAppends) {
  TempDir tmp;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    const auto stats = store.recover([](const Envelope&) { FAIL() << "fresh dir has no records"; });
    EXPECT_EQ(stats.segment_records, 0u);
    EXPECT_EQ(stats.wal_records, 0u);
    for (int i = 0; i < 100; ++i) store.append(put(i));
    store.append(erase(7));
  }
  DurableStore::RecoveryStats stats;
  const auto state = materialize(tmp.str(), &stats);
  EXPECT_EQ(stats.wal_records, 101u);
  EXPECT_EQ(state.size(), 99u);
  EXPECT_EQ(state.at("id-3"), to_bytes("value-3"));
  EXPECT_FALSE(state.contains("id-7"));
}

TEST(DurableStore, ReplayPreservesPutOverwriteOrder) {
  TempDir tmp;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    store.recover([](const Envelope&) {});
    store.append({Envelope::Op::kPut, 1, 0, "k", to_bytes("first")});
    store.append({Envelope::Op::kPut, 1, 0, "k", to_bytes("second")});
  }
  EXPECT_EQ(materialize(tmp.str()).at("k"), to_bytes("second"));
}

TEST(DurableStore, CheckpointCompactsAndDeletesOldEpochFiles) {
  TempDir tmp;
  std::map<std::string, Bytes> live;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    store.recover([](const Envelope&) {});
    EXPECT_EQ(store.epoch(), 0u);
    for (int i = 0; i < 200; ++i) {
      store.append(put(i));
      live["id-" + std::to_string(i)] = to_bytes("value-" + std::to_string(i));
    }
    for (int i = 0; i < 200; i += 2) {
      store.append(erase(i));
      live.erase("id-" + std::to_string(i));
    }

    store.checkpoint([&](const DurableStore::Applier& emit) {
      for (const auto& [id, value] : live) emit({Envelope::Op::kPut, 1, 0, id, value});
    });
    EXPECT_EQ(store.epoch(), 1u);
    EXPECT_TRUE(fs::exists(DurableStore::segment_path(tmp.str(), 1)));
    EXPECT_TRUE(fs::exists(DurableStore::wal_path(tmp.str(), 1)));
    EXPECT_FALSE(fs::exists(DurableStore::wal_path(tmp.str(), 0)));
    EXPECT_EQ(store.wal_bytes(), 0u);  // post-rotation WAL starts empty

    // Appends after the checkpoint land in the new WAL.
    store.append(put(1000));
    live["id-1000"] = to_bytes("value-1000");
  }

  DurableStore::RecoveryStats stats;
  const auto state = materialize(tmp.str(), &stats);
  EXPECT_EQ(stats.segment_records, 100u);
  EXPECT_EQ(stats.wal_records, 1u);
  EXPECT_EQ(state.size(), live.size());
  for (const auto& [id, value] : live) {
    ASSERT_TRUE(state.contains(id)) << id;
    EXPECT_EQ(state.at(id), value);
  }
}

TEST(DurableStore, RecordInBothSegmentAndWalResolvesToWalVersion) {
  // The checkpoint protocol allows a record appended concurrently with the
  // snapshot scan to appear in both files; WAL replays after the segment, so
  // the (equal or newer) WAL version must win.
  TempDir tmp;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    store.recover([](const Envelope&) {});
    store.append({Envelope::Op::kPut, 1, 0, "k", to_bytes("old")});
    store.checkpoint([&](const DurableStore::Applier& emit) {
      emit({Envelope::Op::kPut, 1, 0, "k", to_bytes("snapshot")});
    });
    store.append({Envelope::Op::kPut, 1, 0, "k", to_bytes("newer")});
  }
  EXPECT_EQ(materialize(tmp.str()).at("k"), to_bytes("newer"));
}

TEST(DurableStore, MaybeCheckpointHonorsByteThreshold) {
  TempDir tmp;
  DurableStore store({tmp.str(), {}, /*checkpoint_wal_bytes=*/1024});
  store.recover([](const Envelope&) {});
  const auto scan = [](const DurableStore::Applier&) {};
  EXPECT_FALSE(store.maybe_checkpoint(scan));  // empty WAL, below threshold
  while (store.wal_bytes() <= 1024) store.append(put(0));
  EXPECT_TRUE(store.maybe_checkpoint(scan));
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_FALSE(store.maybe_checkpoint(scan));  // fresh WAL, below threshold again
}

TEST(DurableStore, RepeatedCheckpointsAdvanceEpochs) {
  TempDir tmp;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    store.recover([](const Envelope&) {});
    for (int e = 0; e < 3; ++e) {
      store.append(put(e));
      store.checkpoint([&](const DurableStore::Applier& emit) {
        for (int i = 0; i <= e; ++i) emit(put(i));
      });
    }
    EXPECT_EQ(store.epoch(), 3u);
    // Exactly one segment and one WAL remain.
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(tmp.str())) {
      ++files;
      (void)entry;
    }
    EXPECT_EQ(files, 2u);
  }
  EXPECT_EQ(materialize(tmp.str()).size(), 3u);
}

TEST(DurableStore, CorruptNewestSegmentFallsBackToWalHistory) {
  // A checkpoint that tore mid-rename (or a disk that lied) leaves a segment
  // that fails validation. Recovery must reject it and serve from what
  // remains rather than refuse to open.
  TempDir tmp;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    store.recover([](const Envelope&) {});
    store.append(put(1));
    store.checkpoint([&](const DurableStore::Applier& emit) { emit(put(1)); });
    store.append(put(2));
  }
  // Corrupt the epoch-1 segment.
  const std::string seg = DurableStore::segment_path(tmp.str(), 1);
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(6);
    f.put(static_cast<char>(0xFF));
  }
  const auto state = materialize(tmp.str());
  // The segment is gone (deleted as corrupt); the epoch-1 WAL still replays.
  EXPECT_FALSE(fs::exists(seg));
  EXPECT_TRUE(state.contains("id-2"));
}

TEST(DurableStore, TornWalTailSurfacesInStats) {
  TempDir tmp;
  {
    DurableStore store({tmp.str(), {}, 64ull << 20});
    store.recover([](const Envelope&) {});
    for (int i = 0; i < 5; ++i) store.append(put(i));
  }
  {
    std::ofstream out(DurableStore::wal_path(tmp.str(), 0), std::ios::binary | std::ios::app);
    out.write("SPR1torn", 8);
  }
  DurableStore::RecoveryStats stats;
  const auto state = materialize(tmp.str(), &stats);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(state.size(), 5u);
}

}  // namespace
}  // namespace sp::storage
