// Host- and session-level persistence round trips: a durable
// ServiceProvider / StorageHost closed cleanly and reopened on the same
// directory must serve exactly the state it acknowledged — records, blobs,
// and the id counters that keep new ids from colliding with recovered ones.
// Writes checkpoint once the live WAL crosses its threshold, and the WAL A/B
// bounds what durability costs a mixed serving stream's p50.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codec/records.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "osn/host_table.hpp"
#include "osn/service_provider.hpp"
#include "osn/storage_host.hpp"
#include "support/fixtures.hpp"
#include "support/temp_dir.hpp"

namespace sp::osn {
namespace {

namespace fs = std::filesystem;
using crypto::Bytes;
using crypto::to_bytes;
using testsupport::TempDir;

storage::DurableStore::Options fast_opts(const std::string& dir) {
  storage::DurableStore::Options opts;
  opts.dir = dir;
  opts.wal.fsync = storage::WalWriter::Fsync::kNever;  // tests: speed over power-loss
  return opts;
}

/// Every byte of the file at `path`.
Bytes read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

bool contains(const Bytes& haystack, const Bytes& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
         haystack.end();
}

TEST(ServiceProviderPersistence, RecordsAndCounterSurviveReopen) {
  TempDir tmp;
  std::string id1;
  std::string id2;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    EXPECT_TRUE(sp.is_durable());
    id1 = sp.store_record(to_bytes("record-one"));
    id2 = sp.store_record(to_bytes("record-two"));
    sp.replace_record(id1, to_bytes("record-one-refreshed"));
    sp.sync();
  }
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    EXPECT_EQ(sp.recovery_stats().wal_records, 3u);  // 3 record puts
    EXPECT_EQ(sp.record_count(), 2u);
    EXPECT_EQ(sp.record(id1), to_bytes("record-one-refreshed"));
    EXPECT_EQ(sp.record(id2), to_bytes("record-two"));
    // The id counter continues past recovered ids: no collision, no reuse.
    const std::string id3 = sp.store_record(to_bytes("record-three"));
    EXPECT_NE(id3, id1);
    EXPECT_NE(id3, id2);
    EXPECT_EQ(sp.record_count(), 3u);
  }
}

TEST(ServiceProviderPersistence, TamperedStateIsWhatPersists) {
  // A malicious-SP tamper is a durable mutation like any other: reopening
  // serves the tampered bytes, exactly what a receiver would then see.
  TempDir tmp;
  std::string id;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    id = sp.store_record(to_bytes("0123456789"));
    sp.tamper_record(id, 4, to_bytes("XY"));
  }
  ServiceProvider sp(fast_opts(tmp.str()));
  EXPECT_EQ(sp.record(id), to_bytes("0123XY6789"));
}

TEST(ServiceProviderPersistence, DirectoryWithRetiredObservationLogStillOpens) {
  // Older SPs logged every response hash a receiver sent: op-3 envelopes in
  // keyspace 2, written between the record puts and re-emitted by every
  // checkpoint. Such a directory must still open with all its records and
  // its id counter, and its next checkpoint must drop the logged bytes.
  // Recovery deletes a segment with a frame it cannot decode, so a decoder
  // that stopped accepting op 3 would lose records 1 and 2 here.
  TempDir tmp;
  const Bytes observed = to_bytes("OBSERVED-RESPONSE-HASH-5e1f");
  const auto observation = [&](std::uint64_t ordinal) {
    return codec::Envelope{codec::Envelope::Op::kObserve, space_byte(Space::kSpObservations),
                           ordinal, "c1-response-hash", observed};
  };
  const auto record_put = [](std::uint64_t n) {
    return codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kSpRecords), n,
                           "puzzle-" + std::to_string(n), to_bytes("record-" + std::to_string(n))};
  };
  {
    storage::DurableStore store(fast_opts(tmp.str()));
    (void)store.recover([](const codec::Envelope&) {});
    store.append(record_put(1));
    store.append(observation(1));
    store.append(record_put(2));
    store.append(observation(2));
    store.checkpoint([&](const storage::DurableStore::Applier& emit) {
      emit(codec::Envelope{codec::Envelope::Op::kPut, space_byte(Space::kMeta), 2, "sp-counter",
                           {}});
      emit(record_put(1));
      emit(observation(1));
      emit(record_put(2));
      emit(observation(2));
    });
    store.append(observation(3));
    store.append(record_put(3));
    store.append(observation(4));  // an ordinal above every record seq
  }

  ServiceProvider sp(fast_opts(tmp.str()));
  EXPECT_EQ(sp.recovery_stats().segment_records, 5u);
  EXPECT_EQ(sp.recovery_stats().wal_records, 3u);
  ASSERT_EQ(sp.record_count(), 3u);
  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(sp.record("puzzle-" + std::to_string(n)), to_bytes("record-" + std::to_string(n)));
  }
  // The counter follows the record seqs, never the log's ordinals.
  EXPECT_EQ(sp.store_record(to_bytes("record-4")), "puzzle-4");
  EXPECT_FALSE(sp.view_contains(observed));

  sp.checkpoint();
  bool records_on_disk = false;
  for (const auto& entry : fs::recursive_directory_iterator(tmp.str())) {
    if (!entry.is_regular_file()) continue;
    const Bytes contents = read_file(entry.path());
    EXPECT_FALSE(contains(contents, observed)) << entry.path();
    records_on_disk = records_on_disk || contains(contents, to_bytes("record-3"));
  }
  EXPECT_TRUE(records_on_disk);  // the scan reads the files it checks
}

TEST(ServiceProviderPersistence, CounterSurvivesCheckpointOnlyHistory) {
  // After a checkpoint deletes the WAL that carried the id-counter seqs, the
  // segment's meta record must still restore monotonic id issuance.
  TempDir tmp;
  std::set<std::string> ids;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    for (int i = 0; i < 5; ++i) ids.insert(sp.store_record(to_bytes("r")));
    sp.checkpoint();
  }
  ServiceProvider sp(fast_opts(tmp.str()));
  for (int i = 0; i < 5; ++i) {
    const auto [_, fresh] = ids.insert(sp.store_record(to_bytes("r")));
    EXPECT_TRUE(fresh) << "recovered counter reissued an id";
  }
  EXPECT_EQ(sp.record_count(), 10u);
}

TEST(StorageHostPersistence, BlobsTamperRemoveAndCounterSurviveReopen) {
  TempDir tmp;
  std::string kept;
  std::string tampered;
  std::string removed;
  {
    StorageHost dh(fast_opts(tmp.str()));
    EXPECT_TRUE(dh.is_durable());
    kept = dh.store(to_bytes("kept-object"));
    tampered = dh.store(to_bytes("0123"));
    removed = dh.store(to_bytes("doomed"));
    dh.tamper(tampered, 1);
    dh.remove(removed);
    dh.sync();
  }
  {
    StorageHost dh(fast_opts(tmp.str()));
    EXPECT_EQ(dh.object_count(), 2u);
    EXPECT_EQ(dh.fetch(kept), to_bytes("kept-object"));
    Bytes want = to_bytes("0123");
    want[1] ^= 0x01;
    EXPECT_EQ(dh.fetch(tampered), want);
    EXPECT_FALSE(dh.exists(removed));
    // URL issuance continues: a new store never collides with live URLs.
    const std::string fresh = dh.store(to_bytes("new-object"));
    EXPECT_NE(fresh, kept);
    EXPECT_NE(fresh, tampered);
    EXPECT_EQ(dh.object_count(), 3u);
  }
}

TEST(StorageHostPersistence, MaybeCheckpointFiresOnWalGrowth) {
  // Every acknowledged write checks the live WAL against the threshold, so
  // store() itself advances the epoch once the log crosses it.
  TempDir tmp;
  auto opts = fast_opts(tmp.str());
  opts.checkpoint_wal_bytes = 2048;
  StorageHost dh(opts);
  ASSERT_NE(dh.durable(), nullptr);
  int stores = 0;
  while (stores < 200 && dh.durable()->epoch() == 0) {
    dh.store(to_bytes("some blob payload " + std::to_string(stores++)));
  }
  EXPECT_GT(stores, 1);
  EXPECT_EQ(dh.durable()->epoch(), 1u);
  EXPECT_FALSE(fs::exists(storage::DurableStore::wal_path(tmp.str(), 0)));
  EXPECT_EQ(dh.object_count(), static_cast<std::size_t>(stores));
}

TEST(SessionPersistence, HostsReopenWithSharedState) {
  // The session wires PersistenceConfig through to both hosts (SP under
  // dir/sp, DH under dir/dh). The puzzle *registry* is session memory — what
  // must survive is every byte the SP and DH acknowledged.
  TempDir tmp;
  std::string post_c1;
  std::string post_c2;
  std::size_t sp_records = 0;
  std::size_t dh_objects = 0;
  Bytes c1_record;

  core::SessionConfig cfg = testsupport::toy_config("persist-session");
  core::PersistenceConfig persist;
  persist.dir = tmp.str();
  persist.fsync = storage::WalWriter::Fsync::kNever;
  cfg.persistence = persist;
  {
    core::Session session(cfg);
    const auto sharer = session.register_user("sharer");
    const auto friend_id = session.register_user("friend");
    session.befriend(sharer, friend_id);
    const core::Context ctx = testsupport::party_context();
    post_c1 = session.share_c1(sharer, to_bytes("c1 object"), ctx, 2, 4, net::pc_profile()).post_id;
    post_c2 = session.share_c2(sharer, to_bytes("c2 object"), ctx, 2, net::pc_profile()).post_id;

    // A durable session still serves accesses end to end.
    const auto result =
        session.access(friend_id, post_c1, core::Knowledge::full(ctx), net::pc_profile());
    ASSERT_TRUE(result.success());

    sp_records = session.service_provider().record_count();
    dh_objects = session.storage_host().object_count();
    c1_record = session.service_provider().record(post_c1);
    EXPECT_GE(sp_records, 2u);
    EXPECT_GE(dh_objects, 2u);
  }
  {
    core::Session session(cfg);
    EXPECT_EQ(session.service_provider().record_count(), sp_records);
    EXPECT_EQ(session.storage_host().object_count(), dh_objects);
    EXPECT_EQ(session.service_provider().record(post_c1), c1_record);
    EXPECT_TRUE(session.service_provider().has_record(post_c2));
    EXPECT_GT(session.service_provider().recovery_stats().wal_records, 0u);
  }
  // In-memory sessions stay exactly as before: no directory, no recovery.
  core::Session ephemeral(testsupport::toy_config("persist-none"));
  EXPECT_FALSE(ephemeral.service_provider().is_durable());
  EXPECT_FALSE(ephemeral.storage_host().is_durable());
}

TEST(SessionPersistence, WritesCheckpointOnceTheWalCrossesItsThreshold) {
  // Each host checkpoints after the write that takes its live WAL past
  // checkpoint_wal_bytes, so recovery replays one segment plus a short log,
  // not every write since the directory was created.
  TempDir tmp;
  core::SessionConfig cfg = testsupport::toy_config("persist-checkpoint");
  core::PersistenceConfig persist;
  persist.dir = tmp.str();
  persist.fsync = storage::WalWriter::Fsync::kNever;
  persist.checkpoint_wal_bytes = 4096;
  cfg.persistence = persist;
  constexpr std::size_t kPosts = 40;
  {
    core::Session session(cfg);
    const auto sharer = session.register_user("sharer");
    const core::Context ctx = testsupport::party_context();
    for (std::size_t i = 0; i < kPosts; ++i) {
      (void)session.share_c1(sharer, to_bytes("c1 object " + std::to_string(i)), ctx, 2, 4,
                             net::pc_profile());
    }
    for (const storage::DurableStore* store :
         {session.service_provider().durable(), session.storage_host().durable()}) {
      ASSERT_NE(store, nullptr);
      EXPECT_GE(store->epoch(), 1u) << store->dir();
      EXPECT_TRUE(fs::exists(storage::DurableStore::segment_path(store->dir(), store->epoch())))
          << store->dir();
      EXPECT_LT(fs::file_size(storage::DurableStore::wal_path(store->dir(), store->epoch())),
                persist.checkpoint_wal_bytes)
          << store->dir();
    }
  }
  core::Session reopened(cfg);
  EXPECT_EQ(reopened.service_provider().record_count(), kPosts);
  EXPECT_EQ(reopened.storage_host().object_count(), kPosts);
}

constexpr std::size_t kMixedOps = 64;
constexpr std::size_t kMixedWrites = kMixedOps / 4;

/// One pass of the WAL A/B's mixed stream over 8 threads: every 4th
/// operation writes 64 bytes (alternating a DH store and an SP record), the
/// rest are full-knowledge accesses. Returns each operation's latency: wall
/// ms, plus the modeled wire ms for a read.
std::vector<double> mixed_pass(testsupport::FanoutRig& rig) {
  constexpr std::size_t kThreads = 8;
  const Bytes payload(64, 0x5a);
  std::vector<double> ms(kMixedOps);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = next++; i < kMixedOps; i = next++) {
        const auto start = std::chrono::steady_clock::now();
        double wire_ms = 0;
        if (i % 4 == 3) {
          if ((i / 4) % 2 == 0) {
            (void)rig.session_.storage_host().store(payload);
          } else {
            (void)rig.session_.service_provider().store_record(payload);
          }
        } else {
          const auto result =
              rig.session_.access(rig.receivers_[t], (i % 2 == 0) ? rig.c1_post_ : rig.c2_post_,
                                  core::Knowledge::full(rig.ctx_), net::pc_profile());
          if (!result.success()) failed.fetch_add(1);
          wire_ms = result.cost.network_ms();
        }
        ms[i] = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                    .count() +
                wire_ms;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failed.load(), 0u);
  return ms;
}

double p50(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

TEST(SessionPersistence, DurableP50StaysWithinAQuarterOfInMemory) {
  // The WAL A/B: one seeded fan-out session, in memory and durable (the
  // default fsync = kBatch, so every write is acknowledged after its group
  // commit), serves a warm pass and then a measured pass of one mixed
  // stream. The p50 falls among the reads, whose modeled wire wait both arms
  // share, so durability may cost the p50 at most a quarter.
  auto& appends = obs::MetricsRegistry::global().counter("sp_storage_wal_appends_total", "");
  core::SessionConfig cfg = testsupport::toy_config("persist-wal-ab");
  testsupport::FanoutRig memory(cfg, 8);
  (void)mixed_pass(memory);
  const double memory_p50 = p50(mixed_pass(memory));

  TempDir tmp;
  core::PersistenceConfig persist;
  persist.dir = tmp.str();
  cfg.persistence = persist;
  testsupport::FanoutRig durable(cfg, 8);
  (void)mixed_pass(durable);
  const std::uint64_t appends0 = appends.value();
  const double durable_p50 = p50(mixed_pass(durable));
  // The durable arm really went through the WAL: one append per write.
  EXPECT_EQ(appends.value() - appends0, kMixedWrites);
  EXPECT_LE(durable_p50, 1.25 * memory_p50)
      << "in-memory p50 " << memory_p50 << " ms, durable p50 " << durable_p50 << " ms";
}

}  // namespace
}  // namespace sp::osn
