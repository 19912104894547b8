// What the hosts keep of a receiver's failed attempt: nothing. Paper §VI-A
// trusts the SP only to be honest-but-curious, so a wrong guess must not
// stay in its memory or on its disk, where a dictionary would invert it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "abe/access_tree.hpp"
#include "core/session.hpp"
#include "support/fixtures.hpp"
#include "support/temp_dir.hpp"

namespace sp::core {
namespace {

namespace fs = std::filesystem;
using crypto::Bytes;
using crypto::to_bytes;
using testsupport::TempDir;

/// True iff some file under `dir` holds `needle`.
bool any_file_contains(const std::string& dir, const Bytes& needle) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const Bytes contents{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    if (std::search(contents.begin(), contents.end(), needle.begin(), needle.end()) !=
        contents.end()) {
      return true;
    }
  }
  return false;
}

TEST(ServerState, WrongGuessLeavesNoTrace) {
  TempDir tmp;
  SessionConfig cfg = testsupport::toy_config("server-state");
  PersistenceConfig persist;
  persist.dir = tmp.str();
  persist.fsync = storage::WalWriter::Fsync::kNever;
  cfg.persistence = persist;
  Session session(cfg);
  const auto sharer = session.register_user("sharer");
  const auto guesser = session.register_user("guesser");
  session.befriend(sharer, guesser);

  const Context ctx = testsupport::party_context();
  const std::string c1_post =
      session.share_c1(sharer, to_bytes("c1 object"), ctx, 2, 4, net::pc_profile()).post_id;
  const std::string c2_post =
      session.share_c2(sharer, to_bytes("c2 object"), ctx, 2, net::pc_profile()).post_id;

  // One distinctive wrong guess for every question of both posts.
  const std::string guess = "GUESS-WRONG-4b7e";
  Knowledge guesses;
  for (const auto& p : ctx.pairs()) guesses.learn(p.question, guess);
  for (const std::string& post : {c1_post, c2_post}) {
    EXPECT_FALSE(session.access(guesser, post, guesses, net::pc_profile()).granted);
  }
  session.service_provider().checkpoint();
  session.service_provider().sync();
  session.storage_host().sync();

  // Every form the guess takes on its way to the SP.
  const std::string normalized = Context::normalize_answer(guess);
  const Puzzle c1_record = Puzzle::deserialize(session.service_provider().record(c1_post));
  const struct {
    const char* form;
    Bytes bytes;
  } forms[] = {
      {"raw guess", to_bytes(guess)},
      {"normalized guess", to_bytes(normalized)},
      {"C1 keyed hash", Construction1::answer_hash(guess, c1_record.puzzle_key)},
      {"C2 hex hash", to_bytes(abe::hash_answer(normalized))},
  };
  for (const auto& f : forms) {
    EXPECT_FALSE(session.service_provider().view_contains(f.bytes)) << f.form;
    EXPECT_FALSE(any_file_contains(tmp.str(), f.bytes)) << f.form;
  }
  // The question text is stored in both places, so both scans can see.
  const Bytes question = to_bytes(ctx.pairs()[0].question);
  EXPECT_TRUE(session.service_provider().view_contains(question));
  EXPECT_TRUE(any_file_contains(tmp.str(), question));
}

}  // namespace
}  // namespace sp::core
