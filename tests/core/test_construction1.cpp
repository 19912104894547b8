// Construction 1 protocol-level tests: every subroutine of paper §V-A, the
// happy path, below-threshold failure, wrong answers, and DoS detection.
#include "core/construction1.hpp"

#include <gtest/gtest.h>

#include "ec/params.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::Drbg;
using crypto::to_bytes;

Context party_context() {
  return Context({{"Where did we meet?", "Paris"},
                  {"What did we eat?", "pizza"},
                  {"Who hosted?", "Alice"},
                  {"Which month?", "June"},
                  {"What did we drink?", "mojito"}});
}

class Construction1Test : public ::testing::Test {
 protected:
  Construction1Test()
      : curve_(ec::preset_params(ec::ParamPreset::kToy)),
        c1_(curve_.fp(), curve_),
        schnorr_(curve_, curve_.hash_to_group(to_bytes("sp-schnorr-g"))),
        rng_("c1-tests"),
        keys_(schnorr_.keygen(rng_)),
        sharer_key_(curve_, keys_.public_key) {}

  /// Runs Upload and patches in a fake DH URL, as the session layer would.
  Construction1::UploadResult do_upload(const Context& ctx, std::size_t k, std::size_t n,
                                        std::span<const std::uint8_t> object) {
    auto result = c1_.upload(object, ctx, k, n, keys_, rng_);
    result.puzzle.url = "dh://objects/test";
    c1_.sign_puzzle(result.puzzle, keys_);
    return result;
  }

  /// Full receiver flow against the given knowledge; returns the plaintext.
  std::optional<Bytes> run_receiver(const Construction1::UploadResult& up,
                                    const Knowledge& knowledge) {
    const auto challenge = Construction1::display_puzzle(up.puzzle, rng_);
    const auto response = Construction1::answer_puzzle(challenge, knowledge);
    const auto reply = Construction1::verify(up.puzzle, challenge, response.hashes);
    return c1_.access(up.puzzle, challenge, reply, knowledge, up.encrypted_object);
  }

  ec::Curve curve_;
  Construction1 c1_;
  sig::Schnorr schnorr_;
  Drbg rng_;
  sig::KeyPair keys_;
  /// The receiver's table of the sharer's key, known from the social graph.
  ec::FixedBase sharer_key_;
};

TEST_F(Construction1Test, UploadBuildsWellFormedPuzzle) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("the secret photo");
  const auto up = do_upload(ctx, 2, 4, object);

  EXPECT_EQ(up.puzzle.n(), 4u);
  EXPECT_EQ(up.puzzle.threshold, 2u);
  EXPECT_EQ(up.puzzle.puzzle_key.size(), 16u);
  EXPECT_FALSE(up.encrypted_object.empty());
  EXPECT_NE(up.encrypted_object, object);
  for (const auto& e : up.puzzle.entries) {
    EXPECT_FALSE(e.question.empty());
    EXPECT_EQ(e.answer_hash.size(), 32u);
    EXPECT_FALSE(e.blinded_share.empty());
  }
  EXPECT_TRUE(c1_.verify_puzzle_signature(sharer_key_, up.puzzle, up.puzzle.url));
}

TEST_F(Construction1Test, UploadParameterValidation) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("x");
  EXPECT_THROW(c1_.upload(object, ctx, 0, 3, keys_, rng_), std::invalid_argument);
  EXPECT_THROW(c1_.upload(object, ctx, 4, 3, keys_, rng_), std::invalid_argument);
  EXPECT_THROW(c1_.upload(object, ctx, 2, 6, keys_, rng_), std::invalid_argument);  // n > N
  EXPECT_THROW(c1_.upload(object, ctx, 1, 0, keys_, rng_), std::invalid_argument);
}

TEST_F(Construction1Test, EndToEndWithFullKnowledge) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("a 100 character message body matching the paper's workload!");
  const auto up = do_upload(ctx, 3, 5, object);
  const auto got = run_receiver(up, Knowledge::full(ctx));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, object);
}

TEST_F(Construction1Test, EndToEndWithExactThresholdKnowledge) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("payload");
  const auto up = do_upload(ctx, 2, 5, object);
  Drbg krng("exact-k");
  for (int trial = 0; trial < 10; ++trial) {
    const Knowledge k = Knowledge::partial(ctx, 2, krng);
    const auto challenge = Construction1::display_puzzle(up.puzzle, rng_);
    const auto response = Construction1::answer_puzzle(challenge, k);
    const auto reply = Construction1::verify(up.puzzle, challenge, response.hashes);
    if (!reply.granted) {
      // The 2 known answers may not all be among the r displayed questions;
      // that is correct protocol behaviour, not a failure.
      continue;
    }
    const auto got = c1_.access(up.puzzle, challenge, reply, k, up.encrypted_object);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, object);
  }
}

TEST_F(Construction1Test, BelowThresholdDeniedByVerify) {
  const Context ctx = party_context();
  const auto up = do_upload(ctx, 3, 5, to_bytes("secret"));
  Drbg krng("below-k");
  for (int trial = 0; trial < 10; ++trial) {
    const Knowledge k = Knowledge::partial(ctx, 2, krng);  // 2 < 3
    const auto challenge = Construction1::display_puzzle(up.puzzle, rng_);
    const auto response = Construction1::answer_puzzle(challenge, k);
    const auto reply = Construction1::verify(up.puzzle, challenge, response.hashes);
    EXPECT_FALSE(reply.granted);
    EXPECT_TRUE(reply.shares.empty());  // SP "does not send anything"
    EXPECT_TRUE(reply.url.empty());
  }
}

TEST_F(Construction1Test, ZeroKnowledgeDenied) {
  const Context ctx = party_context();
  const auto up = do_upload(ctx, 1, 5, to_bytes("secret"));
  Drbg krng("zero-k");
  const Knowledge k = Knowledge::partial(ctx, 0, krng);  // all answers wrong
  const auto challenge = Construction1::display_puzzle(up.puzzle, rng_);
  const auto response = Construction1::answer_puzzle(challenge, k);
  const auto reply = Construction1::verify(up.puzzle, challenge, response.hashes);
  EXPECT_FALSE(reply.granted);
}

TEST_F(Construction1Test, DisplayPuzzleShowsBetweenKAndNQuestions) {
  const Context ctx = party_context();
  const auto up = do_upload(ctx, 2, 5, to_bytes("x"));
  std::set<std::size_t> sizes;
  for (int i = 0; i < 50; ++i) {
    const auto ch = Construction1::display_puzzle(up.puzzle, rng_);
    EXPECT_GE(ch.questions.size(), 2u);
    EXPECT_LE(ch.questions.size(), 5u);
    EXPECT_EQ(ch.questions.size(), ch.indices.size());
    sizes.insert(ch.questions.size());
    // Indices are distinct and in range.
    std::set<std::size_t> uniq(ch.indices.begin(), ch.indices.end());
    EXPECT_EQ(uniq.size(), ch.indices.size());
    for (std::size_t idx : ch.indices) EXPECT_LT(idx, 5u);
  }
  EXPECT_GT(sizes.size(), 1u);  // r actually varies
}

TEST_F(Construction1Test, AnswerPuzzleAlwaysFullLength) {
  const Context ctx = party_context();
  const auto up = do_upload(ctx, 2, 5, to_bytes("x"));
  const auto challenge = Construction1::display_puzzle(up.puzzle, rng_);
  Knowledge sparse;  // knows nothing
  const auto response = Construction1::answer_puzzle(challenge, sparse);
  EXPECT_EQ(response.hashes.size(), challenge.questions.size());
  for (const auto& h : response.hashes) EXPECT_EQ(h.size(), 32u);
}

TEST_F(Construction1Test, VerifyRejectsLengthMismatch) {
  const Context ctx = party_context();
  const auto up = do_upload(ctx, 2, 5, to_bytes("x"));
  const auto challenge = Construction1::display_puzzle(up.puzzle, rng_);
  std::vector<Bytes> short_response{Bytes(32, 0)};
  EXPECT_THROW(Construction1::verify(up.puzzle, challenge, short_response),
               std::invalid_argument);
}

TEST_F(Construction1Test, TamperedObjectDetected) {
  // Malicious DH (paper §VI-B): flipping ciphertext bits must not yield a
  // wrong plaintext silently.
  const Context ctx = party_context();
  auto up = do_upload(ctx, 2, 5, to_bytes("valuable object"));
  up.encrypted_object[up.encrypted_object.size() / 2] ^= 0x01;
  const auto got = run_receiver(up, Knowledge::full(ctx));
  EXPECT_FALSE(got.has_value());
}

TEST_F(Construction1Test, TamperedPuzzleKeyBreaksSignature) {
  // Malicious SP modifies K_Z (paper §VI-A): receivers detect it via the
  // sharer's signature.
  const Context ctx = party_context();
  auto up = do_upload(ctx, 2, 5, to_bytes("x"));
  EXPECT_TRUE(c1_.verify_puzzle_signature(sharer_key_, up.puzzle, up.puzzle.url));
  up.puzzle.puzzle_key[0] ^= 0x01;
  EXPECT_FALSE(c1_.verify_puzzle_signature(sharer_key_, up.puzzle, up.puzzle.url));
}

TEST_F(Construction1Test, TamperedUrlBreaksSignature) {
  const Context ctx = party_context();
  auto up = do_upload(ctx, 2, 5, to_bytes("x"));
  // The SP's Verify reply carries a URL the sharer did not sign.
  EXPECT_FALSE(c1_.verify_puzzle_signature(sharer_key_, up.puzzle, "dh://objects/evil"));
}

TEST_F(Construction1Test, SignatureFromWrongSharerRejected) {
  const Context ctx = party_context();
  // A malicious SP (Mallory) swaps URL_O and re-signs the puzzle under its
  // own key, which it also writes into the record (§VI-A).
  auto up = do_upload(ctx, 2, 5, to_bytes("x"));
  const sig::KeyPair mallory = schnorr_.keygen(rng_);
  up.puzzle.url = "dh://objects/mallory";
  c1_.sign_puzzle(up.puzzle, mallory);
  // The swapped record is self-consistent: it verifies against the key it
  // carries...
  const ec::FixedBase carried(curve_, schnorr_.deserialize_public(up.puzzle.sharer_public_key));
  EXPECT_TRUE(c1_.verify_puzzle_signature(carried, up.puzzle, up.puzzle.url));
  // ...but the receiver checks against the sharer's key it already knows.
  EXPECT_FALSE(c1_.verify_puzzle_signature(sharer_key_, up.puzzle, up.puzzle.url));
}

TEST_F(Construction1Test, PuzzleSerializationRoundTrip) {
  const Context ctx = party_context();
  const auto up = do_upload(ctx, 2, 4, to_bytes("x"));
  const Puzzle back = Puzzle::deserialize(up.puzzle.serialize());
  EXPECT_EQ(back, up.puzzle);
  EXPECT_TRUE(c1_.verify_puzzle_signature(sharer_key_, back, back.url));
}

TEST_F(Construction1Test, PuzzleDeserializeRejectsGarbage) {
  EXPECT_THROW(Puzzle::deserialize(Bytes{1, 2, 3}), std::invalid_argument);
  auto wire = do_upload(party_context(), 1, 2, to_bytes("x")).puzzle.serialize();
  wire.push_back(0);
  EXPECT_THROW(Puzzle::deserialize(wire), std::invalid_argument);
}

TEST_F(Construction1Test, AnswerHashDependsOnKeyAndAnswer) {
  const Bytes key1(16, 1), key2(16, 2);
  EXPECT_EQ(Construction1::answer_hash("pizza", key1), Construction1::answer_hash("Pizza ", key1));
  EXPECT_NE(Construction1::answer_hash("pizza", key1), Construction1::answer_hash("pasta", key1));
  EXPECT_NE(Construction1::answer_hash("pizza", key1), Construction1::answer_hash("pizza", key2));
}

TEST_F(Construction1Test, LargeBinaryObjectRoundTrips) {
  // Non-textual data support (paper future work): a 100 KB synthetic photo.
  const Context ctx = party_context();
  Drbg blob_rng("photo");
  const Bytes photo = blob_rng.bytes(100 * 1024);
  const auto up = do_upload(ctx, 2, 5, photo);
  const auto got = run_receiver(up, Knowledge::full(ctx));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, photo);
}

// Sweep (k, n) over the paper's operational range.
class Construction1Sweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Construction1Sweep, ThresholdBoundaryHolds) {
  const auto [k, n] = GetParam();
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  Construction1 c1(curve.fp(), curve);
  sig::Schnorr schnorr(curve, curve.hash_to_group(to_bytes("sp-schnorr-g")));
  Drbg rng("c1-sweep");
  const sig::KeyPair keys = schnorr.keygen(rng);

  Context ctx;
  for (std::size_t i = 0; i < n; ++i) {
    ctx.add("q" + std::to_string(i), "answer" + std::to_string(i));
  }
  const crypto::Bytes object = to_bytes("obj");
  auto up = c1.upload(object, ctx, k, n, keys, rng);
  up.puzzle.url = "dh://objects/sweep";
  c1.sign_puzzle(up.puzzle, keys);

  // Knowledge of exactly k answers: must succeed whenever Verify grants.
  const Knowledge enough = Knowledge::partial(ctx, k, rng);
  bool any_grant = false;
  for (int trial = 0; trial < 20 && !any_grant; ++trial) {
    const auto ch = Construction1::display_puzzle(up.puzzle, rng);
    const auto resp = Construction1::answer_puzzle(ch, enough);
    const auto reply = Construction1::verify(up.puzzle, ch, resp.hashes);
    if (reply.granted) {
      any_grant = true;
      const auto got = c1.access(up.puzzle, ch, reply, enough, up.encrypted_object);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, object);
    }
  }
  EXPECT_TRUE(any_grant) << "verify never granted across 20 display draws";

  // Knowledge of k-1: never granted.
  if (k > 1) {
    const Knowledge short_one = Knowledge::partial(ctx, k - 1, rng);
    for (int trial = 0; trial < 10; ++trial) {
      const auto ch = Construction1::display_puzzle(up.puzzle, rng);
      const auto resp = Construction1::answer_puzzle(ch, short_one);
      EXPECT_FALSE(Construction1::verify(up.puzzle, ch, resp.hashes).granted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KN, Construction1Sweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                                           std::pair<std::size_t, std::size_t>{1, 10},
                                           std::pair<std::size_t, std::size_t>{2, 4},
                                           std::pair<std::size_t, std::size_t>{3, 6},
                                           std::pair<std::size_t, std::size_t>{5, 5},
                                           std::pair<std::size_t, std::size_t>{4, 10},
                                           std::pair<std::size_t, std::size_t>{10, 10}));

}  // namespace
}  // namespace sp::core
