// sp_perfbench: the benchmark of record. Usage (run.py builds and calls it):
//
//   sp_perfbench --workload paper_feed|photo_album|guess_churn --seed N
//                --seconds S --trace 0|1 --workdir DIR
//   sp_perfbench --selftest --workdir DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer ones. The last stdout line is one
// JSON object; a human summary goes to stderr. Exits 1 when any op failed
// or any check was violated.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "ec/params.hpp"
#include "obs/trace.hpp"
#include "osn/service_provider.hpp"
#include "osn/storage_host.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/perfbench-work";
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sp_perfbench: %s\nusage: sp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] | --selftest [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--workdir") {
        a.workdir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!a.selftest && find_spec(a.workload) == nullptr) usage("unknown --workload");
  if (!(a.seconds > 0) || a.seconds > 120) usage("--seconds must be in (0, 120]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Metrics in print order: name -> (value, unit).
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    rows_.push_back({name, value, unit});
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", rows_[i].value);
      json += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " + num +
              ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

/// One core is left to the library's own threads (VerifyQueue workers, the
/// WAL committer) and the trace collector. With every core loaded, a
/// denial's p99 landed on the scheduler's preemption cliff and moved by half
/// between runs.
unsigned load_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw <= 1 ? 1u : hw - 1, 1u, 3u);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string world_dir(const Args& a, int instance) {
  return a.workdir + "/" + a.workload + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(instance);
}

/// Builds the set-up five times and keeps the last: setup_s is the median,
/// so one slow build (first-use parameter generation, a slow fsync) does not
/// decide it.
std::unique_ptr<World> setup(const Spec& spec, const Args& a, unsigned threads,
                             double& setup_s) {
  constexpr int kSetups = 5;
  std::vector<double> times;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const double t0 = now_s();
    world = build_world(spec, a.seed, i, world_dir(a, i), threads);
    times.push_back(now_s() - t0);
  }
  setup_s = median_of(times);
  return world;
}

void summarize(const char* phase, const Samples& s) {
  std::fprintf(stderr,
               "[%s] %.2fs: ops=%llu granted=%zu deny=%zu write=%zu honest=%llu "
               "attempts=%llu failed=%llu violations=%llu\n",
               phase, s.elapsed_s, static_cast<unsigned long long>(s.attempted),
               s.access_ns.size(), s.deny_ns.size(), s.write_ns.size(),
               static_cast<unsigned long long>(s.honest_requests),
               static_cast<unsigned long long>(s.honest_attempts),
               static_cast<unsigned long long>(s.failed),
               static_cast<unsigned long long>(s.violations));
  for (const auto& m : s.messages) std::fprintf(stderr, "[%s]   %s\n", phase, m.c_str());
}

/// Folds the untimed checks' failures into a phase's counts.
void absorb_checks(Samples& into, Samples&& checks) {
  into.failed += checks.failed;
  into.violations += checks.violations;
  into.attempted += checks.attempted;
  for (auto& m : checks.messages) into.messages.push_back(std::move(m));
}

int run_end_to_end(const Spec& spec, const Args& a) {
  const unsigned threads = load_threads();
  double setup_s = 0;
  std::unique_ptr<World> world = setup(spec, a, threads, setup_s);
  Samples s = run_phase(spec, *world, a.seed, "run", a.seconds, threads);
  Report r;
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", static_cast<double>(s.attempted) / s.elapsed_s, "1/s");
  r.add("access_ms_p50", quantile(s.access_ns, 0.50) / 1e6, "ms");
  r.add("deny_us_p50", quantile(s.deny_ns, 0.50) / 1e3, "us");
  r.add("access_local_ms_p50", quantile(s.access_local_ms, 0.50), "ms");
  r.add("access_net_ms_p50", quantile(s.access_net_ms, 0.50), "ms");
  r.add("access_kb", mean(s.access_bytes) / 1024.0, "KiB");
  r.add("peak_rss_mb", peak_rss_mib(), "MiB");

  Samples checks;
  verify_posts(*world, false, checks);
  absorb_checks(s, std::move(checks));
  summarize(spec.name.c_str(), s);
  world.reset();
  const bool correct = s.failed == 0 && s.violations == 0;
  r.print(correct, s.attempted, s.failed);
  return correct ? 0 : 1;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int run_traced(const Spec& spec, const Args& a) {
  const unsigned threads = load_threads();
  double setup_s = 0;
  std::unique_ptr<World> world = setup(spec, a, threads, setup_s);

  // Same workload and seed, alternating untraced and traced slices so drift
  // on the host lands in both arms alike; the untraced arm is the overhead
  // baseline. Counter deltas are summed over the traced slices only.
  constexpr int kSlices = 4;
  const double slice_s = a.seconds / (2 * kSlices);
  auto& tracer = sp::obs::Tracer::global();
  Samples untraced;
  Samples traced;
  Counters d;
  SpanTotals spans;
  {
    TraceCollector collector;
    for (int i = 0; i < kSlices; ++i) {
      const std::string tag = std::to_string(i);
      untraced.merge(run_phase(spec, *world, a.seed, "untraced-" + tag, slice_s, threads));
      const Counters before = Counters::read();
      tracer.set_enabled(true);
      traced.merge(run_phase(spec, *world, a.seed, "traced-" + tag, slice_s, threads));
      tracer.set_enabled(false);
      d.add_delta(before, Counters::read());
    }
    spans = collector.finish();
  }
  const Counters q0 = Counters::read();  // gauges read while the session is live
  Samples checks;
  const QuietPass quiet = quiet_pass(spec, *world, a.seed, 24, checks);
  const Counters q1 = Counters::read();
  verify_posts(*world, false, checks);
  absorb_checks(traced, std::move(checks));

  // k for the Shamir probe: the corpus median.
  std::vector<double> ks;
  for (const auto& p : world->corpus) ks.push_back(static_cast<double>(p->k));
  const auto k_probe = static_cast<std::size_t>(median_of(ks));

  double recovery_ms = 0;
  if (spec.durable) {
    world->session.reset();
    sp::storage::DurableStore::Options sp_opts;
    sp_opts.dir = world->dir + "/sp";
    sp::storage::DurableStore::Options dh_opts;
    dh_opts.dir = world->dir + "/dh";
    const double t0 = now_s();
    {
      const sp::osn::ServiceProvider sp_host(sp_opts);
      const sp::osn::StorageHost dh_host(dh_opts);
    }
    recovery_ms = (now_s() - t0) * 1e3;
  }
  world.reset();
  const sp::ec::Curve curve(sp::ec::preset_params(sp::ec::ParamPreset::kFull));
  const Probes probes = run_probes(curve, k_probe, spec.object_bytes, a.seed);
  if (!probes.ok) traced.fail(true, "a unit probe's output did not match its input");

  auto hist_mean = [&](const char* key) {
    const std::string k(key);
    return ratio(d.get(k + ".sum_ms"), d.get(k + ".count"));
  };
  // Mean duration over several span names, in us.
  auto spans_mean_us = [&](std::initializer_list<const char*> names) {
    double total_ms = 0;
    double count = 0;
    for (const char* n : names) {
      total_ms += spans.get(n).total_ms;
      count += static_cast<double>(spans.get(n).count);
    }
    return ratio(total_ms, count) * 1e3;
  };
  const SpanTotals::Entry& sp_access = spans.get("sp.access");
  const SpanTotals::Entry& deny = spans.get("bench.deny");
  const double c1_access_ms = spans.mean_ms("c1.interpolate");
  const double ops = static_cast<double>(traced.attempted);

  // Attribution: of the driver's op time, what the program's own spans and
  // sharer-side phase timers cover. Honest requests root their own
  // sp.request trace; denials nest sp.access under the driver's span.
  double bench_ms = 0;
  for (const auto& [name, e] : spans.by_name) {
    if (name.rfind("bench.", 0) == 0) bench_ms += e.total_ms;
  }
  const double write_phases_ms = d.get("phase.c1.upload.sum_ms") +
                                 d.get("phase.c1.sign.sum_ms") +
                                 d.get("phase.c2.upload.sum_ms");
  const double attributed_ms =
      spans.get("sp.request").total_ms + (deny.total_ms - deny.self_ms) + write_phases_ms;
  // Ring overwrites are what draining controls: any is a failed traced run.
  // Spans that end after their root sealed are dropped by the tracer itself
  // (VerifyQueue drain tokens run as pool tasks traced into whichever request
  // submitted them); no drain rate can save them, so they are reported apart.
  const double spans_lost = d.get("overwritten_recent") + d.get("overwritten_kept");
  if (spans_lost > 0) traced.fail(false, "traced run lost spans to ring overwrites");

  Report r;
  r.add("core.access.self_us",
        ratio(sp_access.self_ms, static_cast<double>(sp_access.count)) * 1e3, "us");
  r.add("core.verify.us", spans.mean_ms("sp.verify") * 1e3, "us");
  r.add("core.verify_queue.wait_us", spans.mean_ms("verify.wait") * 1e3, "us");
  r.add("core.verify_queue.jobs_per_batch",
        ratio(d.get("verify_jobs"), d.get("verify_batches")), "count");
  r.add("core.display.us", spans_mean_us({"c1.display", "c2.display"}), "us");
  r.add("core.answer_hash.us", spans_mean_us({"c1.answer_hashes", "c2.answer_hashes"}), "us");
  r.add("core.c1.access.ms", c1_access_ms, "ms");
  r.add("core.c2.access.ms", spans.mean_ms("c2.access"), "ms");
  r.add("core.c1.upload.ms", hist_mean("phase.c1.upload"), "ms");
  r.add("core.c2.upload.ms", hist_mean("phase.c2.upload"), "ms");
  r.add("core.refresh.ms", mean(traced.refresh_ns) / 1e6, "ms");
  const auto attempts = static_cast<double>(traced.honest_attempts);
  r.add("core.attempts_per_access",
        ratio(attempts, static_cast<double>(traced.honest_requests)), "count");
  r.add("core.useful_attempt_ratio",
        ratio(static_cast<double>(traced.honest_granted), attempts), "ratio");
  r.add("sig.verify.ms", spans.mean_ms("c1.sig_verify"), "ms");
  r.add("sig.sign.ms", hist_mean("phase.c1.sign"), "ms");
  r.add("abe.reconstruct.us", hist_mean("phase.c2.reconstruct") * 1e3, "us");
  r.add("abe.keygen.ms", hist_mean("phase.c2.keygen"), "ms");
  r.add("abe.decrypt.ms", hist_mean("phase.c2.decrypt"), "ms");
  r.add("ec.pairs_per_c2_access",
        ratio(q1.delta(q0, "pairs"), static_cast<double>(quiet.c2_granted)), "count");
  r.add("ec.multi_pairing.ms", hist_mean("multi_pairing"), "ms");
  r.add("ec.miller_table_hit_ratio",
        ratio(d.get("miller_hits"),
              d.get("miller_hits") + d.get("miller_builds")),
        "ratio");
  r.add("ec.pairing.ms", probes.pairing_ms, "ms");
  r.add("ec.scalar_mul.us", probes.scalar_mul_us, "us");
  r.add("field.mul.ns", probes.field_mul_ns, "ns");
  r.add("field.inv.us", probes.field_inv_us, "us");
  r.add("sss.lagrange_hit_ratio",
        ratio(d.get("lagrange_hits"),
              d.get("lagrange_hits") + d.get("lagrange_builds")),
        "ratio");
  r.add("sss.reconstruct.us", probes.sss_reconstruct_us, "us");
  r.add("crypto.open.mb_s", probes.open_mb_s, "MB/s");
  r.add("crypto.seal.mb_s", probes.seal_mb_s, "MB/s");
  r.add("crypto.open_pct_of_c1_access", 100 * ratio(probes.open_object_ms, c1_access_ms), "%");
  r.add("osn.sp.observations_per_req", ratio(d.get("observe"), ops), "count");
  r.add("osn.sp.observations_end", q0.v.at("sp_observations"), "count");
  r.add("osn.dh.bytes_end", q0.v.at("dh_bytes"), "B");
  r.add("osn.dh.fetch.us", spans.mean_ms("dh.fetch") * 1e3, "us");
  r.add("storage.wal.appends_per_op", ratio(d.get("wal_appends"), ops), "count");
  r.add("storage.wal.appends_per_batch",
        ratio(d.get("wal_appends"), d.get("wal_batches")), "count");
  r.add("storage.wal.bytes_per_op", ratio(d.get("wal_bytes"), ops), "B");
  r.add("storage.wal.fsync_ms", hist_mean("fsync"), "ms");
  r.add("storage.recovery_ms", recovery_ms, "ms");
  r.add("net.transfers_per_access",
        ratio(q1.delta(q0, "transfers"), static_cast<double>(quiet.requests)), "count");
  r.add("obs.trace_overhead_pct",
        100 * (ratio(ratio(traced.service_ns, ops),
                     ratio(untraced.service_ns, static_cast<double>(untraced.attempted))) -
               1),
        "%");
  r.add("obs.spans_lost", spans_lost, "count");
  r.add("obs.spans_late_dropped", d.get("spans_dropped"), "count");
  r.add("bench.unattributed_pct", 100 * ratio(bench_ms - attributed_ms, bench_ms), "%");
  r.add("bench.deny_in_sp_access_pct", 100 * ratio(deny.total_ms - deny.self_ms, deny.total_ms),
        "%");
  r.add("bench.late_ms_p99", quantile(traced.late_ns, 0.99) / 1e6, "ms");
  // End-to-end latencies that swing too far between identical runs on a
  // shared host to gate a change on (README.md), from the untraced slices.
  r.add("ungated.share_ms_p50", quantile(untraced.write_ns, 0.50) / 1e6, "ms");
  r.add("ungated.access_ms_p99", quantile(untraced.access_ns, 0.99) / 1e6, "ms");
  r.add("ungated.deny_us_p99", quantile(untraced.deny_ns, 0.99) / 1e3, "us");
  r.add("ungated.share_ms_p99", quantile(untraced.write_ns, 0.99) / 1e6, "ms");

  summarize("untraced", untraced);
  summarize("traced", traced);
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  const bool correct = failed == 0 && untraced.violations + traced.violations == 0;
  r.print(correct, attempted, failed);
  return correct ? 0 : 1;
}

/// Proves the checker fires: a clean short run passes, then one DH blob is
/// tampered and the per-post check must report it.
int run_selftest(const Args& a) {
  const Spec& spec = *find_spec("photo_album");
  Args args = a;
  args.workload = spec.name;
  const unsigned threads = load_threads();
  std::unique_ptr<World> world = build_world(spec, 1, 0, world_dir(args, 0), threads);
  Samples clean = run_phase(spec, *world, 1, "selftest", 2.0, threads);
  verify_posts(*world, true, clean);
  summarize("selftest clean", clean);
  if (clean.failed != 0 || clean.attempted == 0) {
    std::fprintf(stderr, "selftest: the clean run failed\n");
    return 1;
  }
  sp::osn::StorageHost& dh = world->session->storage_host();
  const auto blobs = dh.observed_blobs();
  dh.tamper(blobs.begin()->first, blobs.begin()->second.size() / 2);
  Samples tampered;
  verify_posts(*world, true, tampered);
  summarize("selftest tampered", tampered);
  if (tampered.failed == 0) {
    std::fprintf(stderr, "selftest: a tampered blob went undetected\n");
    return 1;
  }
  std::fprintf(stderr, "selftest: ok (clean run passed, tampered blob detected)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Rings sized so the 10 ms drain never lets one wrap; slow-trace keeping
  // is off because every trace is drained anyway. Set before any thread
  // publishes: ring size is fixed when a thread's ring is created.
  sp::obs::TracerConfig tc;
  tc.sample_probability = 1.0;
  tc.ring_slots = 1 << 14;
  tc.kept_slots = 1 << 10;
  tc.keep_slow_min_count = 0;
  sp::obs::Tracer::global().configure(tc);
  try {
    std::filesystem::create_directories(args.workdir);
    if (args.selftest) return run_selftest(args);
    const Spec& spec = *find_spec(args.workload);
    return args.trace == 0 ? run_end_to_end(spec, args) : run_traced(spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sp_perfbench: %s\n", e.what());
    return 1;
  }
}
