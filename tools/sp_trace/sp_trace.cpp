// sp_trace — record, convert and analyze request-lifecycle trace dumps.
//
// Subcommands (see usage()):
//   record  drive a self-contained chaos workload through core::Session with
//           the tracer enabled, then dump every collected trace to a binary
//           .sptrace file (codec::encode_trace_dump) and optionally Chrome
//           trace-event JSON. This is the CI smoke entry point: it exercises
//           the whole propagation chain (retry loop, thread-pool fork-join,
//           WAL group commit) in one process.
//   report  per-phase critical-path breakdown (self-time attribution) plus
//           the slowest-N span trees of a dump.
//   chrome  convert a dump to Chrome about:tracing JSON.
//   folded  convert a dump to folded stacks (flamegraph.pl / speedscope).
//
// A dump is a concatenation of SPR1 kTraceSpan frames; a torn tail loses
// only the trailing partial frame (decode_trace_dump stops cleanly), so a
// dump from a crashed run is still analyzable.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codec/trace_records.hpp"
#include "core/session.hpp"
#include "core/thread_pool.hpp"
#include "crypto/bytes.hpp"
#include "net/faults.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"

namespace {

using sp::crypto::Bytes;

int usage() {
  std::cerr <<
      "usage: sp_trace <command> [options]\n"
      "\n"
      "  record --out FILE.sptrace [options]\n"
      "      Run a chaos access workload with tracing on and dump the traces.\n"
      "      --out FILE        binary dump output (required)\n"
      "      --chrome FILE     also write Chrome trace-event JSON\n"
      "      --requests N      access requests to issue (default 24)\n"
      "      --threads N       threads issuing the requests, the caller included\n"
      "                        (default 4); 1 issues them in order on the caller,\n"
      "                        so one seed fixes the granted/faulted counts\n"
      "      --faults RATE     uniform fault probability per op class (default 0.2)\n"
      "      --sample P        head-sampling probability (default 1.0)\n"
      "      --seed S          session + fault schedule seed (default sp-trace)\n"
      "      --durable DIR     persist SP/DH state under DIR (adds wal.* spans)\n"
      "\n"
      "  report DUMP [--top N]\n"
      "      Phase breakdown (count/total/self/p50/max, sorted by self-time)\n"
      "      and the N slowest span trees (default 3).\n"
      "\n"
      "  chrome DUMP [--out FILE]\n"
      "      Chrome about:tracing JSON to FILE or stdout.\n"
      "\n"
      "  folded DUMP [--out FILE]\n"
      "      Folded stacks (self-time us weights) to FILE or stdout.\n";
  return 2;
}

/// Minimal flag parser: --name value pairs after the positionals.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  [[nodiscard]] std::optional<std::string> flag(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return v;
    }
    return std::nullopt;
  }
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sp_trace: flag " << arg << " needs a value\n";
        return std::nullopt;
      }
      args.flags.emplace_back(arg.substr(2), argv[++i]);
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "sp_trace: cannot open " << path << "\n";
    std::exit(1);
  }
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "sp_trace: cannot write " << path << "\n";
    std::exit(1);
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

void write_text(const std::optional<std::string>& path, const std::string& text) {
  if (!path) {
    std::cout << text;
    return;
  }
  std::ofstream out(*path, std::ios::trunc);
  if (!out) {
    std::cerr << "sp_trace: cannot write " << *path << "\n";
    std::exit(1);
  }
  out << text;
}

std::vector<sp::obs::TraceData> load_dump(const std::string& path) {
  const Bytes raw = read_file(path);
  return sp::codec::decode_trace_dump(raw);
}

// ---------------------------------------------------------------------------
// record
// ---------------------------------------------------------------------------

/// The running-example context (same answers the integration suites use).
sp::core::Context workload_context() {
  return sp::core::Context({{"Where did we meet?", "Paris"},
                            {"What did we eat?", "pizza"},
                            {"Who hosted?", "Alice"},
                            {"Which month?", "June"}});
}

int cmd_record(const Args& args) {
  const std::string out = args.flag("out").value_or("");
  if (out.empty()) {
    std::cerr << "sp_trace record: --out is required\n";
    return 2;
  }
  const std::size_t requests = std::stoul(args.flag("requests").value_or("24"));
  const std::size_t threads = std::stoul(args.flag("threads").value_or("4"));
  const double fault_rate = std::stod(args.flag("faults").value_or("0.2"));
  const double sample = std::stod(args.flag("sample").value_or("1.0"));
  const std::string seed = args.flag("seed").value_or("sp-trace");  // sp-lint: allow(missing-wipe)

  auto& tracer = sp::obs::Tracer::global();
  sp::obs::TracerConfig tcfg;
  tcfg.sample_probability = sample;
  // The drain happens once at the end, so the recent ring must hold the
  // whole run: size it to the request count (plus wal.group_commit traces).
  tcfg.ring_slots = std::max<std::size_t>(1024, requests * 4);
  tcfg.kept_slots = std::max<std::size_t>(256, requests);
  tracer.configure(tcfg);
  tracer.set_enabled(true);

  sp::core::SessionConfig cfg;
  cfg.pairing_preset = sp::ec::ParamPreset::kToy;
  cfg.seed = seed;
  if (fault_rate > 0) {
    cfg.faults = sp::net::FaultPlan::uniform(fault_rate, seed + "-faults");
  }
  if (const auto dir = args.flag("durable")) {
    sp::core::PersistenceConfig pcfg;
    pcfg.dir = *dir;
    cfg.persistence = pcfg;
  }
  sp::core::Session session(cfg);

  const auto sharer = session.register_user("sharer");
  std::vector<sp::osn::UserId> receivers;
  for (std::size_t i = 0; i < 4; ++i) {
    receivers.push_back(session.register_user("receiver-" + std::to_string(i)));
    session.befriend(sharer, receivers.back());
  }

  const sp::core::Context ctx = workload_context();
  std::string c1_post;
  std::string c2_post;
  {
    // One root over both shares, so their DH and SP writes carry a sampled
    // origin and a durable session's group commits are traced (wal.*).
    const sp::obs::Span root = tracer.start_trace("sp_trace.share");
    const sp::obs::ContextGuard guard(root.context());
    c1_post = session.share_c1(sharer, sp::crypto::to_bytes("c1 object"), ctx, 2, 4,
                               sp::net::pc_profile())
                  .post_id;
    c2_post = session.share_c2(sharer, sp::crypto::to_bytes("c2 object"), ctx, 2,
                               sp::net::pc_profile())
                  .post_id;
  }

  // Mixed workload: both constructions, mostly knowledgeable receivers with
  // a denied (insufficient knowledge) request every fifth slot so the dump
  // always contains non-granted traces; under --faults the schedule adds
  // transient/terminal serving errors on top.
  sp::crypto::Drbg knowledge_rng(seed + "-knowledge");
  std::vector<sp::core::AccessResult> results(requests);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    sp::core::Knowledge knows = (i % 5 == 4) ? sp::core::Knowledge::partial(ctx, 1, knowledge_rng)
                                             : sp::core::Knowledge::full(ctx);
    jobs.emplace_back([&, i, knows = std::move(knows)] {
      results[i] = session.access_with_retries(receivers[i % receivers.size()],
                                               (i % 2 == 0) ? c1_post : c2_post, knows,
                                               sp::net::pc_profile(), 4);
    });
  }
  {
    // The fan-out runs under one root, so the pool's pool.task spans are
    // traced whatever the C2 forks do; each request roots its own
    // sp.request trace.
    const sp::obs::Span root = tracer.start_trace("sp_trace.batch");
    const sp::obs::ContextGuard guard(root.context());
    // The caller plus threads-1 helpers. With one thread the caller issues
    // the requests in index order, so request i opens the session's i-th
    // request stream and its challenge draw (and with it how many shares a
    // partial-reply fault can drop) replays with the seed.
    sp::core::ThreadPool pool(std::max<std::size_t>(threads, 1) - 1);
    pool.run_all(jobs);
  }

  std::size_t granted = 0;
  std::size_t errored = 0;
  for (const auto& r : results) {
    if (r.success()) ++granted;
    if (r.error) ++errored;
  }

  const auto traces = tracer.drain();
  const Bytes dump = sp::codec::encode_trace_dump(traces);
  write_file(out, dump);
  if (const auto chrome = args.flag("chrome")) {
    const std::string json = sp::obs::to_chrome_json(traces);
    write_file(*chrome, std::span<const std::uint8_t>(
                            reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  }

  std::size_t spans = 0;
  for (const auto& t : traces) spans += t.spans.size();
  std::cout << "sp_trace record: " << results.size() << " requests (" << granted
            << " granted, " << errored << " faulted), " << traces.size() << " traces, "
            << spans << " spans -> " << out << " (" << dump.size() << " bytes)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

std::string format_ms(double ms) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << ms;
  return os.str();
}

int cmd_report(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::size_t top = std::stoul(args.flag("top").value_or("3"));
  const auto traces = load_dump(args.positional.front());
  if (traces.empty()) {
    std::cout << "empty dump\n";
    return 0;
  }

  std::size_t spans = 0;
  std::size_t errored = 0;
  for (const auto& t : traces) {
    spans += t.spans.size();
    if (t.errored) ++errored;
  }
  std::cout << traces.size() << " traces, " << spans << " spans, " << errored
            << " errored\n\n";

  const auto phases = sp::obs::phase_breakdown(traces);
  std::cout << "phase breakdown (by self-time):\n";
  std::cout << "  " << "phase                 " << "count   " << "total_ms    "
            << "self_ms     " << "p50_ms      " << "max_ms\n";
  for (const auto& p : phases) {
    std::string name = p.name;
    if (name.size() < 20) name.resize(20, ' ');
    auto pad = [](std::string s, std::size_t w) {
      if (s.size() < w) s.resize(w, ' ');
      return s;
    };
    std::cout << "  " << name << "  " << pad(std::to_string(p.count), 6) << "  "
              << pad(format_ms(p.total_ms), 10) << "  " << pad(format_ms(p.self_ms), 10)
              << "  " << pad(format_ms(p.p50_ms), 10) << "  " << format_ms(p.max_ms)
              << "\n";
  }

  const auto slowest = sp::obs::slowest_traces(traces, top);
  for (const std::size_t idx : slowest) {
    std::cout << "\nslowest trace #" << idx << ":\n"
              << sp::obs::format_trace_tree(traces[idx]);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// chrome / folded
// ---------------------------------------------------------------------------

int cmd_chrome(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto traces = load_dump(args.positional.front());
  write_text(args.flag("out"), sp::obs::to_chrome_json(traces));
  return 0;
}

int cmd_folded(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto traces = load_dump(args.positional.front());
  write_text(args.flag("out"), sp::obs::to_folded_stacks(traces));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto args = parse_args(argc, argv);
  if (!args) return 2;
  try {
    if (cmd == "record") return cmd_record(*args);
    if (cmd == "report") return cmd_report(*args);
    if (cmd == "chrome") return cmd_chrome(*args);
    if (cmd == "folded") return cmd_folded(*args);
  } catch (const std::exception& e) {
    std::cerr << "sp_trace: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
