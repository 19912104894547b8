// Workload shapes, set-up, and the checked load loops (closed and open).
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace core = sp::core;
namespace osn = sp::osn;
using Clock = std::chrono::steady_clock;

namespace {

// Why each workload exists is in README.md. Op mixes are by count: below-
// threshold guesses cost tens of microseconds, so paper_feed and
// photo_album make half their ops guesses to give the deny percentiles
// enough samples without moving their time budget.
const Spec kSpecs[] = {
    {Workload::kPaperFeed, "paper_feed", 64, 100, true, 0, 0, false, false, 1.1, 0.5, 0.5 / 9, 0},
    {Workload::kPhotoAlbum, "photo_album", 32, 64 * 1024, false, 5, 3, true, false, 1.1, 0.5,
     0.5 / 17, 0},
    {Workload::kGuessChurn, "guess_churn", 64, 100, false, 0, 0, false, true, 1.1, 0.90, 0.05,
     800},
};

constexpr std::size_t kSharers = 8;
constexpr std::size_t kReceivers = 24;
constexpr std::size_t kFreshChecked = 4;

/// §VIII inputs: 50-character questions, 20-character answers.
core::Context make_context(std::size_t n, Drbg& rng) {
  core::Context ctx;
  for (std::size_t i = 0; i < n; ++i) {
    std::string q = "q";
    q += std::to_string(i);
    q += ':';
    while (q.size() < 50) q.push_back(static_cast<char>('a' + rng.uniform(26)));
    std::string a;
    while (a.size() < 20) a.push_back(static_cast<char>('a' + rng.uniform(26)));
    ctx.add(std::move(q), std::move(a));
  }
  return ctx;
}

/// A 100-character message (§VIII) or an opaque photo of `bytes` bytes.
Bytes make_object(std::size_t bytes, Drbg& rng) {
  if (bytes > 100) return rng.bytes(bytes);
  Bytes msg(bytes);
  for (auto& b : msg) b = static_cast<std::uint8_t>('A' + rng.uniform(26));
  return msg;
}

/// Radical inverse of i in `base` (van der Corput), in [0, 1).
double radical_inverse(std::size_t i, std::size_t base) {
  double out = 0;
  double f = 1.0 / static_cast<double>(base);
  for (; i > 0; i /= base, f /= static_cast<double>(base)) out += f * static_cast<double>(i % base);
  return out;
}

/// Post shape by popularity rank. With C2, it takes the even ranks and C1
/// the odd ones (1:1 posts). Unless the workload fixes them, N in 2..10 and
/// k in 1..N are laid over each scheme's ranks by a low-discrepancy
/// sequence rather than drawn: every seed then puts the same cost mix under
/// the Zipf head, so a run's percentiles move with the code, not with which
/// (N, k) the seed happened to make popular.
void shape_post(const Spec& spec, std::size_t rank, Post& post) {
  post.c2 = spec.with_c2 && rank % 2 == 0;
  if (spec.n != 0) {
    post.n = spec.n;
    post.k = spec.k;
    return;
  }
  const std::size_t j = (spec.with_c2 ? rank / 2 : rank) + 1;
  post.n = 2 + static_cast<std::size_t>(radical_inverse(j, 2) * 9);
  post.k = 1 + static_cast<std::size_t>(radical_inverse(j, 3) * static_cast<double>(post.n));
}

core::ShareReceipt share(core::Session& session, const Post& post) {
  const auto device = sp::net::pc_profile();
  return post.c2 ? session.share_c2(post.sharer, post.object, post.ctx, post.k, device)
                 : session.share_c1(post.sharer, post.object, post.ctx, post.k, post.n, device);
}

enum class OpKind { kAccess, kGuess, kShare, kRefresh, kRevokeRefresh };

struct Op {
  OpKind kind = OpKind::kAccess;
  Post* post = nullptr;
  sp::osn::UserId receiver = 0;
  std::size_t m = 0;  ///< correct answers the receiver knows
  core::Knowledge knowledge;
  std::unique_ptr<Post> fresh;  ///< kShare: the post being shared
};

class OpSource {
 public:
  OpSource(const Spec& spec, World& world)
      : spec_(spec), world_(world), zipf_(world.corpus.size(), spec.zipf_s) {}

  Op draw(Drbg& rng) const {
    Op op;
    const double u = rng.uniform_real();
    op.post = world_.corpus[zipf_.sample(rng)].get();
    op.receiver = world_.receivers[rng.uniform(world_.receivers.size())];
    const Post& post = *op.post;
    if (u < spec_.guess_fraction) {
      op.kind = OpKind::kGuess;
      op.m = rng.uniform(post.k);
    } else if (u < spec_.guess_fraction + spec_.write_fraction) {
      op.kind = spec_.kind == Workload::kGuessChurn
                    ? std::array{OpKind::kShare, OpKind::kRefresh,
                                 OpKind::kRevokeRefresh}[rng.uniform(3)]
                    : OpKind::kShare;
    } else {
      op.kind = OpKind::kAccess;
      op.m = spec_.full_knowledge ? post.n : post.k + rng.uniform(post.n - post.k + 1);
    }
    if (op.kind == OpKind::kAccess || op.kind == OpKind::kGuess) {
      op.knowledge = op.m == post.n ? core::Knowledge::full(post.ctx)
                                    : core::Knowledge::partial(post.ctx, op.m, rng);
    }
    if (op.kind == OpKind::kShare) {
      // A new post shaped like a corpus post of the same popularity.
      op.fresh = std::make_unique<Post>();
      Post& fresh = *op.fresh;
      fresh.c2 = post.c2;
      fresh.n = post.n;
      fresh.k = post.k;
      fresh.sharer = post.sharer;
      fresh.ctx = make_context(fresh.n, rng);
      fresh.object = make_object(spec_.object_bytes, rng);
    }
    return op;
  }

 private:
  const Spec& spec_;
  World& world_;
  sp::workload::ZipfSampler zipf_;
};

enum class Outcome { kGranted, kDenied, kOther, kFailed };

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Runs one op, checks its outcome and records it. `origin` is when the op
/// was due (open loop) or started (closed loop); latencies count from it.
Outcome execute(World& world, Op& op, Clock::time_point origin, Samples& out) {
  core::Session& session = *world.session;
  Post& post = *op.post;
  const auto device = sp::net::pc_profile();
  auto& tracer = sp::obs::Tracer::global();
  ++out.attempted;
  const Clock::time_point t0 = Clock::now();
  try {
    switch (op.kind) {
      case OpKind::kAccess: {
        const std::uint64_t done_before = post.revokes_done.load();
        sp::obs::Span span = tracer.start_trace("bench.access");
        const sp::obs::ContextGuard guard(span.context());
        const core::AccessResult r =
            session.access_with_retries(op.receiver, post.id, op.knowledge, device);
        const Clock::time_point t1 = Clock::now();
        span.end();
        const bool revoked_window = post.revokes_started.load() > done_before;
        out.service_ns += ns_between(t0, t1);
        ++out.honest_requests;
        out.honest_attempts += static_cast<std::uint64_t>(r.attempts);
        if (r.success()) {
          if (*r.object != post.object) {
            out.fail(true, "granted object differs from the shared plaintext");
            return Outcome::kFailed;
          }
          ++out.honest_granted;
          out.access_ns.push_back(ns_between(origin, t1));
          out.access_local_ms.push_back(r.cost.local_ms());
          out.access_net_ms.push_back(r.cost.network_ms());
          out.access_bytes.push_back(static_cast<double>(r.cost.bytes_transferred()));
          return Outcome::kGranted;
        }
        if (r.error) {
          if (*r.error == sp::net::ServeError::kDhMiss && revoked_window) return Outcome::kOther;
          out.fail(false, std::string("honest access failed: ") + sp::net::to_string(*r.error));
          return Outcome::kFailed;
        }
        // A clean denial is expected only where C1's random challenge can
        // miss what the receiver knows.
        if (post.c2 || op.m == post.n) {
          out.fail(false, "honest access with m >= k denied");
          return Outcome::kFailed;
        }
        return Outcome::kDenied;
      }
      case OpKind::kGuess: {
        sp::obs::Span span = tracer.start_trace("bench.deny");
        const sp::obs::ContextGuard guard(span.context());
        const core::AccessResult r = session.access(op.receiver, post.id, op.knowledge, device);
        const Clock::time_point t1 = Clock::now();
        span.end();
        out.service_ns += ns_between(t0, t1);
        if (r.granted || r.object) {
          out.fail(true, "request granted with m < k");
          return Outcome::kFailed;
        }
        if (r.error) {
          out.fail(false, std::string("guess failed: ") + sp::net::to_string(*r.error));
          return Outcome::kFailed;
        }
        out.deny_ns.push_back(ns_between(origin, t1));
        return Outcome::kDenied;
      }
      case OpKind::kShare: {
        Post& fresh = *op.fresh;
        sp::obs::Span span = tracer.start_trace("bench.share");
        const core::ShareReceipt receipt = share(session, fresh);
        const Clock::time_point t1 = Clock::now();
        span.end();
        out.service_ns += ns_between(t0, t1);
        out.write_ns.push_back(ns_between(origin, t1));
        fresh.id = receipt.post_id;
        const std::lock_guard lock(world.fresh_mutex);
        world.fresh.push_back(std::move(op.fresh));
        return Outcome::kOther;
      }
      case OpKind::kRefresh: {
        const std::lock_guard lock(post.write_mutex);
        const Clock::time_point t_start = Clock::now();
        sp::obs::Span span = tracer.start_trace("bench.refresh");
        (void)session.refresh(post.sharer, post.id, post.object, post.ctx, device);
        const Clock::time_point t1 = Clock::now();
        span.end();
        out.service_ns += ns_between(t_start, t1);
        out.refresh_ns.push_back(ns_between(t_start, t1));
        out.write_ns.push_back(ns_between(origin, t1));
        return Outcome::kOther;
      }
      case OpKind::kRevokeRefresh: {
        const std::lock_guard lock(post.write_mutex);
        post.revokes_started.fetch_add(1);
        const Clock::time_point t_start = Clock::now();
        sp::obs::Span revoke_span = tracer.start_trace("bench.revoke");
        session.revoke(post.sharer, post.id);
        const Clock::time_point t1 = Clock::now();
        revoke_span.end();
        // Untimed probe: until it is refreshed, a revoked post must answer
        // kDhMiss even to a receiver who knows every answer.
        {
          const sp::obs::ContextGuard no_trace{sp::obs::TraceContext{}};
          const core::AccessResult probe = session.access(
              world.receivers.front(), post.id, core::Knowledge::full(post.ctx), device);
          if (probe.success() || probe.error != sp::net::ServeError::kDhMiss) {
            out.fail(true, "revoked post did not answer kDhMiss");
          }
        }
        const Clock::time_point t2 = Clock::now();
        sp::obs::Span refresh_span = tracer.start_trace("bench.refresh");
        (void)session.refresh(post.sharer, post.id, post.object, post.ctx, device);
        const Clock::time_point t3 = Clock::now();
        refresh_span.end();
        post.revokes_done.fetch_add(1);
        out.service_ns += ns_between(t_start, t1) + ns_between(t2, t3);
        out.refresh_ns.push_back(ns_between(t2, t3));
        out.write_ns.push_back(ns_between(origin, t1) + ns_between(t2, t3));
        return Outcome::kOther;
      }
    }
  } catch (const std::exception& e) {
    out.fail(false, std::string("op threw: ") + e.what());
  }
  return Outcome::kFailed;
}

/// Sleeps to 0.5 ms short of `due`, then spins. A vCPU woken straight into a
/// request ran the 50 us deny path several times slower and far less
/// repeatably; the spin keeps it awake for the request's own work.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(500);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

World::~World() {
  session.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

std::unique_ptr<World> build_world(const Spec& spec, std::uint64_t seed, int instance,
                                   const std::string& dir, unsigned threads) {
  auto world = std::make_unique<World>();
  core::SessionConfig cfg;
  cfg.pairing_preset = sp::ec::ParamPreset::kFull;
  cfg.seed = "perfbench-" + spec.name + "-" + std::to_string(seed) + "-" + std::to_string(instance);
  if (spec.durable) {
    world->dir = dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    cfg.persistence = core::PersistenceConfig{dir};
  }
  world->session = std::make_unique<core::Session>(cfg);
  core::Session& session = *world->session;
  for (std::size_t i = 0; i < kSharers; ++i) {
    world->sharers.push_back(session.register_user("sharer-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < kReceivers; ++i) {
    const osn::UserId r = session.register_user("receiver-" + std::to_string(i));
    world->receivers.push_back(r);
    for (const osn::UserId s : world->sharers) session.befriend(r, s);
  }

  // Content is a function of the seed alone, so every set-up instance of a
  // run shares the same corpus.
  Drbg content("perfbench-content-" + spec.name + "-" + std::to_string(seed));
  for (std::size_t rank = 0; rank < spec.corpus_posts; ++rank) {
    auto post = std::make_unique<Post>();
    shape_post(spec, rank, *post);
    post->sharer = world->sharers[rank % kSharers];
    post->ctx = make_context(post->n, content);
    post->object = make_object(spec.object_bytes, content);
    world->corpus.push_back(std::move(post));
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::mutex error_mutex;
  std::string error;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < world->corpus.size(); i = next++) {
        try {
          world->corpus[i]->id = share(session, *world->corpus[i]).post_id;
        } catch (const std::exception& e) {
          const std::lock_guard lock(error_mutex);
          error = e.what();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (!error.empty()) throw std::runtime_error("corpus share failed: " + error);
  return world;
}

void Samples::merge(Samples&& o) {
  auto append = [](std::vector<double>& to, std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(access_ns, o.access_ns);
  append(deny_ns, o.deny_ns);
  append(write_ns, o.write_ns);
  append(refresh_ns, o.refresh_ns);
  append(access_local_ms, o.access_local_ms);
  append(access_net_ms, o.access_net_ms);
  append(access_bytes, o.access_bytes);
  append(late_ns, o.late_ns);
  service_ns += o.service_ns;
  elapsed_s += o.elapsed_s;
  attempted += o.attempted;
  failed += o.failed;
  honest_requests += o.honest_requests;
  honest_attempts += o.honest_attempts;
  honest_granted += o.honest_granted;
  violations += o.violations;
  for (auto& m : o.messages) {
    if (messages.size() < 8) messages.push_back(std::move(m));
  }
}

void Samples::fail(bool violation, std::string message) {
  ++failed;
  if (violation) ++violations;
  if (messages.size() < 8) messages.push_back(std::move(message));
}

Samples run_phase(const Spec& spec, World& world, std::uint64_t seed,
                  const std::string& seed_label, double seconds, unsigned threads) {
  const OpSource source(spec, world);
  const std::string stream =
      "perfbench-" + spec.name + "-" + std::to_string(seed) + "-" + seed_label;

  // Open loop: one seeded Poisson schedule, due times relative to start.
  std::vector<double> due_s;
  if (spec.offered_rate > 0) {
    Drbg arrivals(stream + "-arrivals");
    for (double t = 0;;) {
      t += -std::log(1.0 - arrivals.uniform_real()) / spec.offered_rate;
      if (t >= seconds) break;
      due_s.push_back(t);
    }
  }
  std::atomic<std::size_t> next_due{0};

  std::vector<Samples> per_thread(threads);
  std::vector<Clock::time_point> last_end(threads);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Drbg rng(stream + "-client-" + std::to_string(t));
      Samples& out = per_thread[t];
      if (spec.offered_rate <= 0) {
        while (Clock::now() < deadline) {
          Op op = source.draw(rng);
          (void)execute(world, op, Clock::now(), out);
        }
      } else {
        for (std::size_t i = next_due++; i < due_s.size(); i = next_due++) {
          Op op = source.draw(rng);
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
          wait_until(due);
          out.late_ns.push_back(ns_between(due, Clock::now()));
          (void)execute(world, op, due, out);
        }
      }
      last_end[t] = Clock::now();
    });
  }
  for (auto& th : pool) th.join();

  Samples all;
  for (auto& s : per_thread) all.merge(std::move(s));
  const Clock::time_point end = *std::max_element(last_end.begin(), last_end.end());
  all.elapsed_s = ns_between(start, end) / 1e9;
  return all;
}

void verify_posts(World& world, bool all, Samples& out) {
  std::vector<Post*> posts;
  {
    const std::lock_guard lock(world.fresh_mutex);
    const std::size_t from = all || world.fresh.size() < kFreshChecked
                                 ? 0
                                 : world.fresh.size() - kFreshChecked;
    for (std::size_t i = from; i < world.fresh.size(); ++i) posts.push_back(world.fresh[i].get());
  }
  if (all) {
    for (auto& p : world.corpus) posts.push_back(p.get());
  }
  for (Post* post : posts) {
    try {
      const core::AccessResult r = world.session->access_with_retries(
          world.receivers.front(), post->id, core::Knowledge::full(post->ctx),
          sp::net::pc_profile());
      if (!r.success() || *r.object != post->object) {
        out.fail(true, "post " + post->id + " did not grant its plaintext");
      }
    } catch (const std::exception& e) {
      out.fail(true, "post " + post->id + " check threw: " + e.what());
    }
  }
}

QuietPass quiet_pass(const Spec& spec, World& world, std::uint64_t seed, std::size_t count,
                     Samples& out) {
  const OpSource source(spec, world);
  Drbg rng("perfbench-" + spec.name + "-" + std::to_string(seed) + "-quiet");
  QuietPass pass;
  while (pass.requests < count) {
    Op op = source.draw(rng);
    if (op.kind != OpKind::kAccess) continue;
    ++pass.requests;
    if (execute(world, op, Clock::now(), out) == Outcome::kGranted && op.post->c2) {
      ++pass.c2_granted;
    }
  }
  return pass;
}

}  // namespace perfbench
