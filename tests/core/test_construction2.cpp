// Construction 2 protocol-level tests (paper §V-B): upload file set,
// DisplayPuzzle/Verify on the perturbed tree, receiver Reconstruct + KeyGen
// + Decrypt, and failure paths.
#include "core/construction2.hpp"

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
                  {"Which month?", "June"}});
}

class Construction2Test : public ::testing::Test {
 protected:
  Construction2Test()
      : curve_(ec::preset_params(ec::ParamPreset::kToy)), c2_(curve_), rng_("c2-tests") {}

  std::optional<Bytes> run_receiver(const Construction2::UploadResult& up,
                                    const Knowledge& knowledge, const std::string& url) {
    const auto challenge = Construction2::display_puzzle(up.perturbed_tree, up.threshold);
    const auto response = Construction2::answer_puzzle(challenge, knowledge);
    const auto reply =
        Construction2::verify(up.perturbed_tree, up.threshold, challenge, response, url);
    if (!reply.granted) return std::nullopt;
    return c2_.access(up.ciphertext, up.public_key, up.master_key, knowledge, rng_);
  }

  ec::Curve curve_;
  Construction2 c2_;
  Drbg rng_;
};

TEST_F(Construction2Test, UploadProducesFourArtifacts) {
  const auto up = c2_.upload(to_bytes("object"), party_context(), 2, rng_);
  EXPECT_FALSE(up.public_key.empty());
  EXPECT_FALSE(up.master_key.empty());
  EXPECT_FALSE(up.ciphertext.empty());
  EXPECT_EQ(up.threshold, 2u);
  EXPECT_EQ(up.perturbed_tree.leaf_count(), 4u);
  EXPECT_GT(up.sp_upload_size(), 0u);
  // Every leaf of the uploaded tree is perturbed — answers never leave the
  // sharer in the clear.
  for (const auto& [id, leaf] : up.perturbed_tree.leaves()) {
    EXPECT_TRUE(leaf->leaf->perturbed);
  }
}

TEST_F(Construction2Test, UploadParameterValidation) {
  EXPECT_THROW(c2_.upload(to_bytes("x"), party_context(), 0, rng_), std::invalid_argument);
  EXPECT_THROW(c2_.upload(to_bytes("x"), party_context(), 5, rng_), std::invalid_argument);
  // Paper: CP-ABE evaluation starts at N = 2.
  const Context single(std::vector<ContextPair>{{"q", "a"}});
  EXPECT_THROW(c2_.upload(to_bytes("x"), single, 1, rng_), std::invalid_argument);
}

TEST_F(Construction2Test, EndToEndWithFullKnowledge) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("a 100 character message body matching the paper's workload!");
  const auto up = c2_.upload(object, ctx, 2, rng_);
  const auto got = run_receiver(up, Knowledge::full(ctx), "dh://objects/c2");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, object);
}

TEST_F(Construction2Test, EndToEndWithExactThreshold) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("payload");
  const auto up = c2_.upload(object, ctx, 2, rng_);
  Drbg krng("c2-exact");
  const Knowledge k2 = Knowledge::partial(ctx, 2, krng);
  const auto got = run_receiver(up, k2, "dh://objects/c2");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, object);
}

TEST_F(Construction2Test, BelowThresholdDenied) {
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("secret"), ctx, 3, rng_);
  Drbg krng("c2-below");
  const Knowledge k2 = Knowledge::partial(ctx, 2, krng);
  EXPECT_FALSE(run_receiver(up, k2, "u").has_value());
}

TEST_F(Construction2Test, AccessAloneFailsBelowThresholdEvenBypassingVerify) {
  // Even if a malicious SP skipped Verify and handed over all files, the
  // CP-ABE layer itself enforces the threshold.
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("secret"), ctx, 3, rng_);
  Drbg krng("c2-bypass");
  const Knowledge k2 = Knowledge::partial(ctx, 2, krng);
  EXPECT_FALSE(c2_.access(up.ciphertext, up.public_key, up.master_key, k2, rng_).has_value());
}

TEST_F(Construction2Test, DisplayPuzzleListsAllQuestions) {
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("x"), ctx, 2, rng_);
  const auto ch = Construction2::display_puzzle(up.perturbed_tree, up.threshold);
  EXPECT_EQ(ch.questions.size(), 4u);
  EXPECT_EQ(ch.threshold, 2u);
  for (const auto& p : ctx.pairs()) {
    EXPECT_NE(std::find(ch.questions.begin(), ch.questions.end(), p.question),
              ch.questions.end());
  }
}

TEST_F(Construction2Test, VerifyCountsOnlyCorrectHashes) {
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("x"), ctx, 2, rng_);
  const auto ch = Construction2::display_puzzle(up.perturbed_tree, up.threshold);

  Knowledge one_right;
  one_right.learn("Where did we meet?", "paris");
  one_right.learn("What did we eat?", "sushi");  // wrong
  const auto resp = Construction2::answer_puzzle(ch, one_right);
  const auto reply = Construction2::verify(up.perturbed_tree, up.threshold, ch, resp, "u");
  EXPECT_FALSE(reply.granted);
  EXPECT_TRUE(reply.url.empty());
}

TEST_F(Construction2Test, VerifyRejectsLengthMismatch) {
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("x"), ctx, 2, rng_);
  const auto ch = Construction2::display_puzzle(up.perturbed_tree, up.threshold);
  Construction2::Response bad;
  bad.answer_hashes = {"deadbeef"};
  EXPECT_THROW(Construction2::verify(up.perturbed_tree, up.threshold, ch, bad, "u"),
               std::invalid_argument);
}

TEST_F(Construction2Test, AnswerNormalizationMatches) {
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("obj"), ctx, 2, rng_);
  Knowledge sloppy;
  sloppy.learn("Where did we meet?", "  PARIS ");
  sloppy.learn("What did we eat?", "Pizza");
  const auto got = run_receiver(up, sloppy, "u");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, to_bytes("obj"));
}

TEST_F(Construction2Test, CorruptedFilesRejectedGracefully) {
  const Context ctx = party_context();
  const auto up = c2_.upload(to_bytes("obj"), ctx, 2, rng_);
  const Knowledge know = Knowledge::full(ctx);

  Bytes bad_ct = up.ciphertext;
  bad_ct.resize(bad_ct.size() / 2);
  EXPECT_FALSE(c2_.access(bad_ct, up.public_key, up.master_key, know, rng_).has_value());

  Bytes bad_pk = up.public_key;
  bad_pk.pop_back();
  EXPECT_FALSE(c2_.access(up.ciphertext, bad_pk, up.master_key, know, rng_).has_value());

  Bytes bad_mk = up.master_key;
  bad_mk.push_back(0);
  EXPECT_FALSE(c2_.access(up.ciphertext, up.public_key, bad_mk, know, rng_).has_value());
}

TEST_F(Construction2Test, TamperedCiphertextPayloadDetected) {
  const Context ctx = party_context();
  auto up = c2_.upload(to_bytes("obj"), ctx, 2, rng_);
  // Flip a byte in the sealed-object tail (the DEM envelope).
  up.ciphertext[up.ciphertext.size() - 5] ^= 1;
  EXPECT_FALSE(
      c2_.access(up.ciphertext, up.public_key, up.master_key, Knowledge::full(ctx), rng_)
          .has_value());
}

TEST_F(Construction2Test, SpFilesHoldNoPlaintextOrAnswers) {
  // τ', PK and MK are what the SP keeps for a C2 post. Distinctive mixed-case
  // answers with padding make the raw and normalized forms differ, so each
  // scan is meaningful.
  const std::string plaintext = "C2-OBJECT-PLAINTEXT-3d9a";
  const Context ctx({{"Where did we meet?", "  ANSWER-Paris-91c2 "},
                     {"What did we eat?", "ANSWER-Pizza-55e1"},
                     {"Who hosted?", "ANSWER-Alice-c0de"}});
  const auto up = c2_.upload(to_bytes(plaintext), ctx, 2, rng_);
  const auto contains = [](const Bytes& haystack, const Bytes& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
           haystack.end();
  };
  const Bytes tau_prime = up.perturbed_tree.serialize();
  for (const Bytes* file : {&tau_prime, &up.public_key, &up.master_key}) {
    EXPECT_FALSE(contains(*file, to_bytes(plaintext)));
    for (const auto& p : ctx.pairs()) {
      EXPECT_FALSE(contains(*file, to_bytes(p.answer))) << p.answer;
      EXPECT_FALSE(contains(*file, to_bytes(Context::normalize_answer(p.answer)))) << p.answer;
    }
  }
  // Questions are public: τ' carries them, so the scan sees.
  EXPECT_TRUE(contains(tau_prime, to_bytes("Where did we meet?")));
}

TEST_F(Construction2Test, SpUploadSizeGrowsWithN) {
  std::size_t prev = 0;
  for (std::size_t n = 2; n <= 8; n += 2) {
    Context ctx;
    for (std::size_t i = 0; i < n; ++i) ctx.add("q" + std::to_string(i), "a" + std::to_string(i));
    const auto up = c2_.upload(to_bytes("x"), ctx, 1, rng_);
    const std::size_t total = up.sp_upload_size() + up.ciphertext.size();
    EXPECT_GT(total, prev);
    prev = total;
  }
}

// Threshold boundary sweep, mirroring the C1 sweep.
class Construction2Sweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Construction2Sweep, ThresholdBoundaryHolds) {
  const std::size_t k = GetParam();
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const Construction2 c2(curve);
  Drbg rng("c2-sweep-" + std::to_string(k));
  Context ctx;
  for (std::size_t i = 0; i < 5; ++i) ctx.add("q" + std::to_string(i), "a" + std::to_string(i));
  const Bytes object = to_bytes("obj");
  const auto up = c2.upload(object, ctx, k, rng);

  const Knowledge enough = Knowledge::partial(ctx, k, rng);
  const auto got = c2.access(up.ciphertext, up.public_key, up.master_key, enough, rng);
  ASSERT_TRUE(got.has_value()) << "k=" << k;
  EXPECT_EQ(*got, object);

  if (k > 1) {
    const Knowledge short_one = Knowledge::partial(ctx, k - 1, rng);
    EXPECT_FALSE(
        c2.access(up.ciphertext, up.public_key, up.master_key, short_one, rng).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(K, Construction2Sweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sp::core
