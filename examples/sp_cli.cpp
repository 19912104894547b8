// sp_cli — command-line social puzzles over plain files, demonstrating the
// library outside the OSN simulator (bring-your-own transport: email the
// .puzzle and .enc files, host them anywhere).
//
//   sp_cli share  <object-file> <out-prefix> <k> "Q=A" "Q=A" ...
//       -> writes <out-prefix>.puzzle and <out-prefix>.enc
//   sp_cli inspect <prefix>.puzzle
//       -> prints the questions and threshold (what a receiver would see)
//   sp_cli solve  <prefix> <out-file> "Q=A" "Q=A" ...
//       -> reads <prefix>.puzzle + <prefix>.enc, reconstructs, decrypts
//
// Answers are matched case/whitespace-insensitively, like the web UI.
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>

#include "core/construction1.hpp"
#include "ec/params.hpp"

namespace {

using namespace sp;
using core::Construction1;
using core::Context;
using core::Knowledge;
using core::Puzzle;
using crypto::Bytes;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::pair<std::string, std::string> parse_qa(const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("expected \"Question=Answer\", got: " + arg);
  }
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/// Non-deterministic seed for real CLI use (tests/benches use fixed seeds).
crypto::Drbg entropy_rng() {
  std::random_device rd;
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rd());
  return crypto::Drbg(std::span<const std::uint8_t>(seed));
}

int cmd_share(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr, "usage: sp_cli share <object-file> <out-prefix> <k> \"Q=A\"...\n");
    return 2;
  }
  const std::string object_path = argv[0];
  const std::string prefix = argv[1];
  const std::size_t k = std::stoul(argv[2]);
  Context ctx;
  for (int i = 3; i < argc; ++i) {
    auto [q, a] = parse_qa(argv[i]);
    ctx.add(std::move(q), std::move(a));
  }

  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  Construction1 c1(curve.fp(), curve);
  sig::Schnorr schnorr(curve, curve.hash_to_group(crypto::to_bytes("sp-schnorr-g")));
  crypto::Drbg rng = entropy_rng();
  const sig::KeyPair keys = schnorr.keygen(rng);

  auto up = c1.upload(read_file(object_path), ctx, k, ctx.size(), keys, rng);
  up.puzzle.url = "file://" + prefix + ".enc";
  c1.sign_puzzle(up.puzzle, keys);
  write_file(prefix + ".puzzle", up.puzzle.serialize());
  write_file(prefix + ".enc", up.encrypted_object);
  std::printf("wrote %s.puzzle (%zu questions, threshold %zu) and %s.enc (%zu bytes)\n",
              prefix.c_str(), up.puzzle.n(), k, prefix.c_str(), up.encrypted_object.size());
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: sp_cli inspect <file>.puzzle\n");
    return 2;
  }
  const Puzzle puzzle = Puzzle::deserialize(read_file(argv[0]));
  std::printf("social puzzle: answer %zu of %zu questions to unlock %s\n", puzzle.threshold,
              puzzle.n(), puzzle.url.c_str());
  for (const auto& e : puzzle.entries) std::printf("  Q: %s\n", e.question.c_str());
  return 0;
}

int cmd_solve(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: sp_cli solve <prefix> <out-file> \"Q=A\"...\n");
    return 2;
  }
  const std::string prefix = argv[0];
  const std::string out_path = argv[1];
  Knowledge knowledge;
  for (int i = 2; i < argc; ++i) {
    auto [q, a] = parse_qa(argv[i]);
    knowledge.learn(std::move(q), std::move(a));
  }

  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  Construction1 c1(curve.fp(), curve);
  const Puzzle puzzle = Puzzle::deserialize(read_file(prefix + ".puzzle"));
  const Bytes encrypted = read_file(prefix + ".enc");

  // File mode has no social graph to learn the sharer's key from, so the
  // one table is built from the key the puzzle file carries: this catches a
  // corrupted file, not a forger who re-signs it.
  bool signature_ok = false;
  try {
    const ec::FixedBase sharer_key(curve,
                                   c1.schnorr().deserialize_public(puzzle.sharer_public_key));
    signature_ok = c1.verify_puzzle_signature(sharer_key, puzzle, puzzle.url);
  } catch (const std::invalid_argument&) {
    // An undecodable or off-curve key: the signature cannot be checked.
  }
  if (!signature_ok) {
    std::fprintf(stderr, "WARNING: puzzle signature invalid — file may be tampered\n");
  }
  // In file mode there is no SP: run DisplayPuzzle/Verify locally with all
  // n questions shown (r = n — the SP's random-subset display exists to vary
  // online probing, which doesn't apply when the receiver holds the file).
  Construction1::Challenge challenge;
  challenge.threshold = puzzle.threshold;
  challenge.puzzle_key = puzzle.puzzle_key;
  for (std::size_t i = 0; i < puzzle.n(); ++i) {
    challenge.indices.push_back(i);
    challenge.questions.push_back(puzzle.entries[i].question);
  }
  const auto response = Construction1::answer_puzzle(challenge, knowledge);
  const auto reply = Construction1::verify(puzzle, challenge, response.hashes);
  if (!reply.granted) {
    std::fprintf(stderr, "denied: fewer than %zu correct answers among the asked questions\n",
                 puzzle.threshold);
    return 1;
  }
  const auto object = c1.access(puzzle, challenge, reply, knowledge, encrypted);
  if (!object) {
    std::fprintf(stderr, "decryption failed (inconsistent answers or corrupted object)\n");
    return 1;
  }
  write_file(out_path, *object);
  std::printf("unlocked %zu bytes -> %s\n", object->size(), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: sp_cli <share|inspect|solve> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "share") return cmd_share(argc - 2, argv + 2);
    if (cmd == "inspect") return cmd_inspect(argc - 2, argv + 2);
    if (cmd == "solve") return cmd_solve(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
