// Hammer tests for the concurrent serving core. Every test here throws
// multiple threads at shared SP/DH/graph/session state; they are the
// workload the CI ThreadSanitizer job (SP_SANITIZE=thread) runs to prove
// the sharded stores and the const access path are race-free, and they
// assert functional invariants (counts, round-trips, grant decisions) so
// they catch logic torn by concurrency even in non-TSan builds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abe/cpabe.hpp"
#include "core/session.hpp"
#include "core/thread_pool.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

constexpr std::size_t kThreads = 8;

/// Runs `fn(thread_index)` on kThreads threads and joins them.
template <typename Fn>
void run_threads(Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(fn, t);
  for (std::thread& th : threads) th.join();
}

TEST(ThreadPool, IntrospectionCountsQueuedAndExecuting) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);

  std::atomic<bool> gate{false};
  std::atomic<int> started_a{0};
  std::atomic<int> started_b{0};
  const auto gated = [&gate](std::atomic<int>& started) {
    return std::vector<std::function<void()>>(3, [&gate, &started] {
      started.fetch_add(1, std::memory_order_relaxed);
      while (!gate.load(std::memory_order_relaxed)) std::this_thread::yield();
    });
  };
  // Caller A and both workers each hold one of A's jobs at the gate.
  const auto jobs_a = gated(started_a);
  std::thread a([&] { pool.run_all(jobs_a); });
  while (started_a.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  // Caller B queues two helpers no worker can pop, then blocks in its job.
  const auto jobs_b = gated(started_b);
  std::thread b([&] { pool.run_all(jobs_b); });
  while (started_b.load(std::memory_order_relaxed) < 1) std::this_thread::yield();
  EXPECT_EQ(pool.in_flight(), 2u);
  EXPECT_EQ(pool.queue_depth(), 2u);

  gate.store(true, std::memory_order_relaxed);
  a.join();
  b.join();
  EXPECT_EQ(started_b.load(), 3);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ConcurrencyHammer, ServiceProviderStoreRecordReplaceTamper) {
  osn::ServiceProvider sp;
  constexpr int kIters = 40;
  std::vector<std::vector<std::string>> ids(kThreads);
  run_threads([&sp, &ids](std::size_t t) {
    for (int i = 0; i < kIters; ++i) {
      const std::string id =
          sp.store_record(to_bytes("record-" + std::to_string(t) + "-" + std::to_string(i)));
      ids[t].push_back(id);
      EXPECT_TRUE(sp.has_record(id));
      EXPECT_FALSE(sp.record(id).empty());
      sp.replace_record(id, to_bytes("replaced-" + std::to_string(t)));
      sp.tamper_record(id, 0, to_bytes("T"));
      (void)sp.view_contains(to_bytes("replaced-" + std::to_string(t)));
      (void)sp.record_count();
    }
  });
  EXPECT_EQ(sp.record_count(), kThreads * kIters);
  // Every record holds its own thread's replacement, tampered to start with 'T'.
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const std::string& id : ids[t]) {
      EXPECT_EQ(sp.record(id), to_bytes("Teplaced-" + std::to_string(t))) << id;
    }
  }
}

TEST(ConcurrencyHammer, StorageHostStoreFetchRemove) {
  osn::StorageHost dh;
  constexpr int kIters = 40;
  std::atomic<std::size_t> removed{0};
  run_threads([&](std::size_t t) {
    std::vector<std::string> mine;
    for (int i = 0; i < kIters; ++i) {
      const Bytes blob = to_bytes("blob-" + std::to_string(t) + "-" + std::to_string(i));
      const std::string url = dh.store(blob);
      mine.push_back(url);
      EXPECT_EQ(dh.fetch(url), blob);
      EXPECT_TRUE(dh.exists(url));
      (void)dh.bytes_stored();
      (void)dh.object_count();
      if (i % 4 == 3) {
        dh.tamper(url, 1);
        dh.remove(url);
        mine.pop_back();
        removed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (const std::string& url : mine) EXPECT_TRUE(dh.exists(url));
  });
  EXPECT_EQ(dh.object_count(), kThreads * kIters - removed.load());
}

TEST(ConcurrencyHammer, SocialGraphRegisterBefriendFeed) {
  osn::SocialGraph g;
  const osn::UserId hub = g.add_user("hub");
  g.post(osn::Post{hub, "puzzle-hub", "pinned"});
  run_threads([&g, hub](std::size_t t) {
    for (int i = 0; i < 20; ++i) {
      const osn::UserId u = g.add_user("user-" + std::to_string(t) + "-" + std::to_string(i));
      g.befriend(hub, u);
      EXPECT_TRUE(g.are_friends(u, hub));
      g.post(osn::Post{u, "puzzle-" + std::to_string(u), "hi"});
      // Reader mix: feeds and profiles while other threads write. The feed
      // contains at least u's own post and the hub's (friend) post.
      EXPECT_GE(g.feed_for(u).size(), 2u);
      (void)g.friends_of(hub);
      (void)g.profile(u);
      (void)g.user_count();
    }
  });
  EXPECT_EQ(g.user_count(), 1 + kThreads * 20);
  EXPECT_EQ(g.friends_of(hub).size(), kThreads * 20);
}

class SessionConcurrencyTest : public testsupport::FanoutSessionFixture {
 protected:
  SessionConcurrencyTest()
      : FanoutSessionFixture(testsupport::toy_config("concurrency-tests"), kThreads) {}
};

TEST_F(SessionConcurrencyTest, CallerThreadsServeMixedC1C2Batch) {
  // Eight caller threads, one receiver each, serve a mixed batch through
  // the retry loop; every fourth request is heavy C2 traffic.
  constexpr std::size_t kPerThread = 4;
  std::vector<AccessResult> results(kPerThread * kThreads);
  run_threads([&](std::size_t t) {
    for (std::size_t j = 0; j < kPerThread; ++j) {
      const std::size_t i = t * kPerThread + j;
      results[i] = session_.access_with_retries(receivers_[t],
                                                (i % 4 == 0) ? c2_post_ : c1_post_,
                                                Knowledge::full(ctx_), net::pc_profile(), 1);
    }
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].granted) << "request " << i;
    ASSERT_TRUE(results[i].success()) << "request " << i;
    EXPECT_EQ(*results[i].object,
              (i % 4 == 0) ? to_bytes("c2 object") : to_bytes("c1 object"));
    EXPECT_GT(results[i].cost.total_ms(), 0.0);
  }
}

TEST_F(SessionConcurrencyTest, ConcurrentAccessSharingAndRefresh) {
  // The full serving mix: readers hammer both posts while the sharer-side
  // paths (fresh shares and a §VI-C refresh of the C1 post) run against
  // them. Every access must see a coherent puzzle — granted with the right
  // plaintext, or (for refresh races) a cleanly denied attempt; never torn
  // state or a crash.
  std::atomic<int> denied{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Knowledge knows = Knowledge::full(ctx_);
      for (int i = 0; i < 6; ++i) {
        if (t == 0 && i == 3) {
          // One refresh mid-run: new M_O, new K_Z, new URL, same post id.
          session_.refresh(sharer_, c1_post_, to_bytes("c1 object v2"), ctx_,
                            net::pc_profile());
          continue;
        }
        if (t == 1) {
          session_.share_c1(sharer_, to_bytes("extra"), ctx_, 2, 4, net::pc_profile());
        }
        const std::string& post = (i % 2 == 0) ? c1_post_ : c2_post_;
        const auto result = session_.access_with_retries(receivers_[t], post, knows,
                                                          net::pc_profile(), 4);
        if (!result.success()) {
          denied.fetch_add(1);
          continue;
        }
        const Bytes& obj = *result.object;
        EXPECT_TRUE(obj == to_bytes("c1 object") || obj == to_bytes("c1 object v2") ||
                    obj == to_bytes("c2 object"));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // With full knowledge, C1/C2 grants are deterministic: nothing is denied.
  EXPECT_EQ(denied.load(), 0);
  // After the dust settles the refreshed post serves v2.
  const auto after = session_.access_with_retries(receivers_[0], c1_post_,
                                                   Knowledge::full(ctx_), net::pc_profile());
  ASSERT_TRUE(after.success());
  EXPECT_EQ(*after.object, to_bytes("c1 object v2"));
}

TEST_F(SessionConcurrencyTest, C2GrantsAboveThresholdShareTheLeafPool) {
  // Eight receivers make C2 grants with k < m <= N at once: every request
  // forks its KeyGen jobs, then its Miller loops (each building a missing
  // line table), over the ONE pool the session owns, so jobs of different
  // requests and posts run side by side on the same workers.
  const Context ctx({{"Where did we meet?", "Paris"},
                     {"What did we eat?", "pizza"},
                     {"Who hosted?", "Alice"},
                     {"Which month?", "June"},
                     {"What was the song?", "Volare"},
                     {"Who came late?", "Bob"}});
  struct Post {
    std::string id;
    Bytes object;
    std::size_t k;
  };
  std::vector<Post> posts;
  for (std::size_t k = 1; k <= 5; ++k) {
    Bytes object = to_bytes("c2 object, k=" + std::to_string(k));
    const std::string id =
        session_.share_c2(sharer_, object, ctx, k, net::pc_profile()).post_id;
    posts.push_back({id, std::move(object), k});
  }
  std::array<std::atomic<int>, kThreads> granted{};
  run_threads([&](std::size_t t) {
    crypto::Drbg rng("leaf-pool-hammer-" + std::to_string(t));
    for (std::size_t i = 0; i < 2 * posts.size(); ++i) {
      const Post& post = posts[(t + i) % posts.size()];
      // m in (k, N]: more answers than Decrypt needs.
      const std::size_t m = post.k + 1 + (t + i) % (ctx.size() - post.k);
      const auto result = session_.access(receivers_[t], post.id,
                                          Knowledge::partial(ctx, m, rng), net::pc_profile());
      ASSERT_TRUE(result.success()) << "thread " << t << " post k=" << post.k << " m=" << m;
      EXPECT_EQ(*result.object, post.object) << "thread " << t << " post k=" << post.k;
      granted[t].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(granted[t].load(), static_cast<int>(2 * posts.size())) << "thread " << t;
  }
}

TEST_F(SessionConcurrencyTest, FirstC1GrantsFromAFreshSharerRaceItsTableBuild) {
  // A sharer no receiver has verified yet: the first C1 grant against them
  // builds the table of their key. Eight receivers make that first grant at
  // once, released together, so every thread races the one build.
  const osn::UserId fresh = session_.register_user("fresh sharer");
  for (const osn::UserId r : receivers_) session_.befriend(fresh, r);
  const Bytes object = to_bytes("first-use object");
  const std::string post =
      session_.share_c1(fresh, object, ctx_, 2, 4, net::pc_profile()).post_id;
  std::atomic<std::size_t> arrived{0};
  std::vector<AccessResult> results(kThreads);
  run_threads([&](std::size_t t) {
    arrived.fetch_add(1);
    while (arrived.load() < kThreads) std::this_thread::yield();
    results[t] = session_.access(receivers_[t], post, Knowledge::full(ctx_), net::pc_profile());
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].success()) << "thread " << t;
    EXPECT_EQ(*results[t].object, object) << "thread " << t;
  }
}

TEST_F(SessionConcurrencyTest, ServingPathUnderRefreshAndRevokeChurn) {
  // Eight receivers read both posts through the full serving path while the
  // sharer churns them: a plain refresh, then revoke-then-refresh, each
  // round. Refresh re-uploads the same plaintext, so every grant must
  // return the shared bytes, and the only failure a revoked post may cause
  // is kDhMiss. Phases advance on reader progress, never on timing: each
  // waits until readers saw its outcome on both posts, so every run sees
  // both grants and misses.
  const std::array<std::string, 2> posts{c1_post_, c2_post_};
  const std::array<Bytes, 2> objects{to_bytes("c1 object"), to_bytes("c2 object")};
  std::array<std::atomic<std::size_t>, 2> grants{};
  std::array<std::atomic<std::size_t>, 2> misses{};
  std::atomic<std::size_t> wrong{0};  // other bytes, or a failure other than kDhMiss
  std::atomic<std::size_t> served{0};  // accesses completed, whatever the outcome
  std::atomic<bool> writer_waiting{false};
  std::atomic<bool> done{false};
  const Knowledge knows = Knowledge::full(ctx_);

  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t i = t; !done.load(); ++i) {
        // The registry lock prefers readers, so eight busy ones could starve
        // the writer: stand aside while it waits.
        while (writer_waiting.load() && !done.load()) std::this_thread::yield();
        const std::size_t p = i % 2;
        const auto result = session_.access(receivers_[t], posts[p], knows, net::pc_profile());
        if (result.success()) {
          grants[p].fetch_add(1);
          if (*result.object != objects[p]) wrong.fetch_add(1);
        } else if (result.granted && result.error == net::ServeError::kDhMiss) {
          misses[p].fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
  }
  // Blocks until readers record one more `seen` outcome on each post. The
  // first access after a write shows its outcome, so running out of a
  // generous access budget means the write did not take effect: fail the
  // phase rather than hang.
  const auto await = [&served](const std::array<std::atomic<std::size_t>, 2>& seen) {
    const std::size_t from0 = seen[0].load();
    const std::size_t from1 = seen[1].load();
    const std::size_t budget = served.load() + 256;
    while (seen[0].load() == from0 || seen[1].load() == from1) {
      if (served.load() >= budget) return false;
      std::this_thread::yield();
    }
    return true;
  };
  // One write on both posts; in-flight reads finish first (exclusive lock).
  const auto churn = [&](bool revoke) {
    writer_waiting.store(true);
    for (std::size_t p = 0; p < 2; ++p) {
      if (revoke) {
        session_.revoke(sharer_, posts[p]);
      } else {
        session_.refresh(sharer_, posts[p], objects[p], ctx_, net::pc_profile());
      }
    }
    writer_waiting.store(false);
  };
  bool phases_ok = await(grants);
  for (int round = 0; round < 3; ++round) {
    churn(false);
    phases_ok = await(grants) && phases_ok;
    churn(true);
    phases_ok = await(misses) && phases_ok;
    churn(false);
    phases_ok = await(grants) && phases_ok;
  }
  done.store(true);
  for (std::thread& th : readers) th.join();
  EXPECT_TRUE(phases_ok) << "a phase's outcome never showed within its access budget";
  EXPECT_EQ(wrong.load(), 0u);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_GE(grants[p].load(), 1u) << posts[p];
    EXPECT_GE(misses[p].load(), 1u) << posts[p];
  }
}

TEST(ConcurrencyHammer, RunAllEightThreadsShareOnePool) {
  // Eight request threads fork-join over ONE pool (the Session topology for
  // C2 leaf pairings). Every call must complete with exactly its own jobs,
  // whatever mix of calls the helpers are serving.
  ThreadPool pool(4);
  std::array<std::atomic<int>, kThreads> ran{};
  run_threads([&](std::size_t t) {
    for (int round = 0; round < 25; ++round) {
      const int n = 1 + static_cast<int>((t + round) % 7);
      const std::vector<std::function<void()>> jobs(
          n, [&ran, t] { ran[t].fetch_add(1, std::memory_order_relaxed); });
      pool.run_all(jobs);
      // All of THIS thread's jobs so far have run once run_all returns;
      // per-thread counters make that checkable despite the shared pool.
      int expected = 0;
      for (int r = 0; r <= round; ++r) expected += 1 + static_cast<int>((t + r) % 7);
      EXPECT_EQ(ran[t].load(), expected) << "thread " << t << " round " << round;
    }
  });
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ConcurrencyHammer, RunAllInjectedFaultFailsOnlyItsOwnCall) {
  // A fault inside one call's job must surface from that call and nowhere
  // else. Odd threads inject a throw into every third call; even threads run
  // clean and must never see an error.
  ThreadPool pool(4);
  std::array<std::atomic<int>, kThreads> clean_ran{};
  std::atomic<int> faults_thrown{0};
  std::atomic<int> faults_caught{0};
  run_threads([&](std::size_t t) {
    for (int round = 0; round < 20; ++round) {
      const bool faulty = (t % 2 == 1) && (round % 3 == 0);
      std::vector<std::function<void()>> jobs(
          4, [&clean_ran, t] { clean_ran[t].fetch_add(1, std::memory_order_relaxed); });
      if (faulty) {
        jobs.emplace_back([&faults_thrown] {
          faults_thrown.fetch_add(1, std::memory_order_relaxed);
          throw std::runtime_error("transient verification fault");
        });
      }
      try {
        pool.run_all(jobs);
        EXPECT_FALSE(faulty) << "thread " << t << " round " << round
                             << ": faulty call completed cleanly";
      } catch (const std::runtime_error&) {
        EXPECT_TRUE(faulty) << "thread " << t << " round " << round
                            << ": clean call caught a neighbour's fault";
        faults_caught.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Every injected fault was thrown, and each was caught by its own call.
  EXPECT_EQ(faults_thrown.load(), 4 * 7);  // 4 odd threads x ceil(20/3) rounds
  EXPECT_EQ(faults_caught.load(), faults_thrown.load());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(clean_ran[t].load(), 20 * 4) << "thread " << t;
  }
}

TEST(ConcurrencyHammer, RunAllFromWorkersAndOutsideCallersTogether) {
  // Calls made from the pool's own workers (nested inside another call's
  // jobs) mix with calls from outside threads; with every worker busy as a
  // caller, each call must still finish (its caller can run every job
  // alone).
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<int> calls{0};
  const std::function<void()> fork = [&pool, &ran, &calls] {
    const std::vector<std::function<void()>> jobs(5, [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    pool.run_all(jobs);
    calls.fetch_add(1, std::memory_order_relaxed);
  };
  const std::vector<std::function<void()>> nested(2, fork);
  run_threads([&](std::size_t t) {
    for (int round = 0; round < 10; ++round) {
      if (t % 2 == 0) {
        fork();
      } else {
        pool.run_all(nested);
      }
    }
  });
  EXPECT_EQ(calls.load(), static_cast<int>(kThreads / 2) * 10 * 3);
  EXPECT_EQ(ran.load(), static_cast<int>(kThreads / 2) * 10 * 3 * 5);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

// CpAbe builds its generator's FixedBase on first use. Eight threads make
// that first call on one fresh instance, half KeyGen and half Encrypt; every
// result must be byte-identical to a sequential run on another instance
// over the same curve, and every ciphertext must open under a key from the
// fresh instance.
TEST(CpAbeFirstUse, EightThreadsKeygenAndEncryptOnAFreshInstance) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const abe::CpAbe reference(curve);
  crypto::Drbg setup_rng("cpabe-first-use");
  const auto keys = reference.setup(setup_rng);
  const abe::PublicKey& pk = keys.first;
  const abe::MasterKey& mk = keys.second;
  const std::vector<std::pair<std::string, std::string>> qa = {
      {"q1", "a1"}, {"q2", "a2"}, {"q3", "a3"}};
  const abe::AccessTree policy = abe::AccessTree::puzzle_policy(qa, 2);
  std::vector<std::string> attrs;
  for (const auto& [q, a] : qa) attrs.push_back(abe::LeafAttribute{q, a, false}.canonical());
  const auto thread_rng = [](std::size_t t) {
    return crypto::Drbg("cpabe-first-use-" + std::to_string(t));
  };
  std::vector<Bytes> want(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    crypto::Drbg rng = thread_rng(t);
    want[t] = t % 2 == 0 ? reference.serialize(reference.keygen(mk, attrs, rng))
                         : reference.serialize(reference.encrypt_key(pk, policy, rng).first);
  }

  const abe::CpAbe fresh(curve);
  std::vector<Bytes> got(kThreads);
  std::vector<Bytes> dem_keys(kThreads);
  run_threads([&](std::size_t t) {
    crypto::Drbg rng = thread_rng(t);
    if (t % 2 == 0) {
      got[t] = fresh.serialize(fresh.keygen(mk, attrs, rng));
    } else {
      auto [ct, dem_key] = fresh.encrypt_key(pk, policy, rng);
      got[t] = fresh.serialize(ct);
      dem_keys[t] = std::move(dem_key);
    }
  });
  const abe::PrivateKey sk = fresh.deserialize_private_key(got[0]);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want[t]) << "thread " << t;
    if (t % 2 == 1) {
      EXPECT_EQ(fresh.decrypt_key(pk, sk, fresh.deserialize_ciphertext(got[t])), dem_keys[t])
          << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace sp::core
