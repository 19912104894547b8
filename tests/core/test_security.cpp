// Executable renditions of the paper's §VI security analysis:
//  - semi-honest SP never sees the object plaintext or context answers
//  - semi-honest DH never sees the object plaintext or context answers
//  - collusion among below-threshold users fails without SP help
//  - the documented weakness (malicious SP leaking per-answer verification
//    bits to colluding users) is reproduced as a regression test
//  - C2's perturbed tree hides answers from both hosts
//  - a second documented weakness: C2's master key, which the SP holds,
//    opens every C2 post without any answer
//
// The SP keeps no log of its traffic, so each SP-view test scans what the
// SP stores (view_contains) and, separately, the receiver's response
// rebuilt here from the stored record.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "abe/access_tree.hpp"
#include "abe/cpabe.hpp"
#include "core/construction2.hpp"
#include "core/session.hpp"
#include "crypto/modes.hpp"
#include "crypto/sha256.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

// Deliberately distinctive strings so a substring scan over host views is
// meaningful.
const char* kSecretObject = "OBJECT-PLAINTEXT-7f3a-THE-PARTY-PHOTO";

Context secret_context() {
  return Context({{"Where did we meet?", "ANSWER-PARIS-91c2"},
                  {"What did we eat?", "ANSWER-PIZZA-55e1"},
                  {"Who hosted?", "ANSWER-ALICE-c0de"},
                  {"Which month?", "ANSWER-JUNE-b00b"}});
}

SessionConfig toy_config(const std::string& seed) {
  SessionConfig cfg;
  cfg.pairing_preset = ec::ParamPreset::kToy;
  cfg.seed = seed;
  return cfg;
}

/// Normalized answer bytes as they'd appear in any leaked buffer.
Bytes norm(const std::string& answer) {
  return to_bytes(Context::normalize_answer(answer));
}

bool bytes_contain(std::span<const std::uint8_t> haystack, std::span<const std::uint8_t> needle) {
  return !needle.empty() && needle.size() <= haystack.size() &&
         std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
             haystack.end();
}

/// One message the SP receives holds neither the object nor any answer,
/// raw or normalized.
void expect_no_secret(std::span<const std::uint8_t> message, const Context& ctx) {
  EXPECT_FALSE(bytes_contain(message, to_bytes(kSecretObject)));
  for (const auto& p : ctx.pairs()) {
    EXPECT_FALSE(bytes_contain(message, to_bytes(p.answer))) << p.answer;
    EXPECT_FALSE(bytes_contain(message, norm(p.answer))) << p.answer;
  }
}

class SurveillanceTest : public ::testing::Test {
 protected:
  SurveillanceTest() : session_(toy_config("security-tests")) {
    sharer_ = session_.register_user("sharer");
    friend_ = session_.register_user("friend");
    session_.befriend(sharer_, friend_);
  }

  /// Scans the DH's complete view for a needle.
  bool dh_sees(std::span<const std::uint8_t> needle) {
    for (const auto& [url, blob] : session_.storage_host().observed_blobs()) {
      if (needle.size() <= blob.size() &&
          std::search(blob.begin(), blob.end(), needle.begin(), needle.end()) != blob.end()) {
        return true;
      }
    }
    return false;
  }

  Session session_;
  osn::UserId sharer_ = 0, friend_ = 0;
};

TEST_F(SurveillanceTest, C1SpViewContainsNoPlaintextOrAnswers) {
  const Context ctx = secret_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes(kSecretObject), ctx, 2, 4, net::pc_profile());
  // Run a full successful access so the SP also observes receiver traffic.
  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());

  auto& sp = session_.service_provider();
  EXPECT_FALSE(sp.view_contains(to_bytes(kSecretObject)));
  for (const auto& p : ctx.pairs()) {
    EXPECT_FALSE(sp.view_contains(to_bytes(p.answer))) << p.answer;
    EXPECT_FALSE(sp.view_contains(norm(p.answer))) << p.answer;
    // Questions ARE visible to the SP by design (it displays them).
    EXPECT_TRUE(sp.view_contains(to_bytes(p.question))) << p.question;
  }

  // The receiver's response, for a challenge that shows all N questions of
  // the stored record.
  const Puzzle stored = Puzzle::deserialize(sp.record(receipt.post_id));
  Construction1::Challenge every_question;
  every_question.threshold = stored.threshold;
  every_question.puzzle_key = stored.puzzle_key;
  for (std::size_t i = 0; i < stored.n(); ++i) {
    every_question.indices.push_back(i);
    every_question.questions.push_back(stored.entries[i].question);
  }
  const auto response = Construction1::answer_puzzle(every_question, Knowledge::full(ctx));
  ASSERT_EQ(response.hashes.size(), ctx.size());
  for (const Bytes& h : response.hashes) expect_no_secret(h, ctx);
}

TEST_F(SurveillanceTest, C1DhViewContainsNoPlaintextOrAnswers) {
  const Context ctx = secret_context();
  session_.share_c1(sharer_, to_bytes(kSecretObject), ctx, 2, 4, net::pc_profile());
  EXPECT_FALSE(dh_sees(to_bytes(kSecretObject)));
  for (const auto& p : ctx.pairs()) {
    EXPECT_FALSE(dh_sees(to_bytes(p.answer)));
    EXPECT_FALSE(dh_sees(norm(p.answer)));
    EXPECT_FALSE(dh_sees(to_bytes(p.question)));  // DH sees only ciphertext
  }
}

TEST_F(SurveillanceTest, C2SpViewContainsNoPlaintextOrAnswers) {
  const Context ctx = secret_context();
  const auto receipt =
      session_.share_c2(sharer_, to_bytes(kSecretObject), ctx, 2, net::pc_profile());
  const auto result =
      session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());

  auto& sp = session_.service_provider();
  EXPECT_FALSE(sp.view_contains(to_bytes(kSecretObject)));
  for (const auto& p : ctx.pairs()) {
    EXPECT_FALSE(sp.view_contains(to_bytes(p.answer)));
    EXPECT_FALSE(sp.view_contains(norm(p.answer)));
    EXPECT_TRUE(sp.view_contains(to_bytes(p.question)));
  }

  // The receiver's response to every question of the stored τ'.
  const auto tau_prime = abe::AccessTree::deserialize(sp.record(receipt.post_id));
  const auto challenge = Construction2::display_puzzle(tau_prime, /*threshold=*/2);
  const auto response = Construction2::answer_puzzle(challenge, Knowledge::full(ctx));
  ASSERT_EQ(response.answer_hashes.size(), ctx.size());
  for (const std::string& h : response.answer_hashes) expect_no_secret(to_bytes(h), ctx);
}

TEST_F(SurveillanceTest, C2DhViewContainsNoPlaintextOrAnswers) {
  const Context ctx = secret_context();
  session_.share_c2(sharer_, to_bytes(kSecretObject), ctx, 2, net::pc_profile());
  EXPECT_FALSE(dh_sees(to_bytes(kSecretObject)));
  for (const auto& p : ctx.pairs()) {
    EXPECT_FALSE(dh_sees(norm(p.answer)));
  }
  // In C2 the DH stores CT' whose perturbed tree includes questions — the
  // paper accepts this (questions are public); answers stay hidden.
}

TEST_F(SurveillanceTest, SpCannotDecryptFromItsView) {
  // The strongest semi-honest SP: it holds the puzzle record AND the DH blob
  // (co-located deployment). Without context answers, Shamir's
  // information-theoretic guarantee keeps M_O unreachable; operationally,
  // an SP replaying the protocol with empty knowledge gets nothing.
  const Context ctx = secret_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes(kSecretObject), ctx, 2, 4, net::pc_profile());

  // SP "becomes a receiver" with no knowledge (it knows all hashes, but
  // hashes don't answer the puzzle).
  session_.befriend(session_.register_user("sp-as-user"), sharer_);
  const auto sp_user = session_.graph().user_count();  // last registered id
  const auto result =
      session_.access(sp_user, receipt.post_id, Knowledge{}, net::pc_profile());
  EXPECT_FALSE(result.granted);
}

TEST_F(SurveillanceTest, BelowThresholdUsersCannotCombineWithoutSp) {
  // §VI-C: users in S_T − R_O colluding among themselves. Two friends each
  // knowing 1 answer (k = 2). Verify tells them nothing (no grant), so
  // pooling their knowledge *through the protocol* still fails unless they
  // literally merge knowledge — which the model forbids for distinct
  // partial-context users colluding via the SP's responses alone.
  const Context ctx = secret_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes(kSecretObject), ctx, 2, 4, net::pc_profile());

  Knowledge only_first;
  only_first.learn(ctx.pairs()[0].question, ctx.pairs()[0].answer);
  Knowledge only_second;
  only_second.learn(ctx.pairs()[1].question, ctx.pairs()[1].answer);

  const auto r1 = session_.access(friend_, receipt.post_id, only_first, net::pc_profile());
  EXPECT_FALSE(r1.granted);  // each alone is denied — and learns nothing

  const auto u2 = session_.register_user("friend2");
  session_.befriend(sharer_, u2);
  const auto r2 = session_.access(u2, receipt.post_id, only_second, net::pc_profile());
  EXPECT_FALSE(r2.granted);

  // The documented weakness (§VI-C): if a MALICIOUS SP leaks which
  // individual hashes verified, the two colluders can pool correct answers
  // and then satisfy the threshold. We reproduce that explicitly:
  Knowledge pooled;
  pooled.learn(ctx.pairs()[0].question, ctx.pairs()[0].answer);
  pooled.learn(ctx.pairs()[1].question, ctx.pairs()[1].answer);
  // DisplayPuzzle shows a random r-subset of questions; retry until a draw
  // includes both known questions (each access is a fresh draw).
  bool pooled_succeeded = false;
  for (int attempt = 0; attempt < 30 && !pooled_succeeded; ++attempt) {
    pooled_succeeded =
        session_.access(friend_, receipt.post_id, pooled, net::pc_profile()).success();
  }
  EXPECT_TRUE(pooled_succeeded);  // the scheme is NOT secure against this — by design
}

TEST_F(SurveillanceTest, C2MasterKeyOpensEveryPostWithoutAnswers) {
  // The documented weakness of paper §V-B: the SP stores MK = (β, g^α) for
  // each C2 post and hands it to granted receivers, and MK alone opens the
  // post. (g^α)^(1/β) = g^(α/β), and e(C, g^(α/β)) = e(g^(βs), g^(α/β)) =
  // e(g,g)^(αs), which unmasks C̃ with no answer at all. This test uses only
  // the upload's MK and PK (the SP's files) and its ciphertext file (the
  // DH's blob). Taking MK off the server will flip it.
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const Construction2 c2(curve);
  const ec::Pairing pairing(curve);
  crypto::Drbg rng("c2-master-key-weakness");
  for (std::size_t k = 1; k <= 3; ++k) {
    const Bytes object = to_bytes(std::string(kSecretObject) + "-" + std::to_string(k));
    const auto up = c2.upload(object, secret_context(), k, rng);

    const abe::PublicKey pk = c2.scheme().deserialize_public_key(up.public_key);
    const abe::MasterKey mk = c2.scheme().deserialize_master_key(up.master_key);
    std::size_t off = 0;
    const abe::Ciphertext ct =
        c2.scheme().deserialize_ciphertext(crypto::get_blob(up.ciphertext, off));
    const Bytes sealed = crypto::get_blob(up.ciphertext, off);

    const ec::Point g_alpha_over_beta =
        curve.mul(mk.g_alpha, crypto::BigInt::mod_inv(mk.beta, curve.order()));
    // The unmasking element is the PK's own e(g,g)^α, paired out of h = g^β.
    EXPECT_EQ(pairing(pk.h, g_alpha_over_beta), pk.e_gg_alpha);
    const field::Fp2 m = ct.c_tilde * pairing(ct.c, g_alpha_over_beta).inv();
    EXPECT_EQ(crypto::open(crypto::Sha256::hash(m.to_bytes()), sealed), object) << "k = " << k;
  }
}

// Regression for the unblinded-share leak: Construction 1 blinds each Shamir
// share by XOR-cycling it with the normalized answer, and xor_cycle with an
// empty key is the identity. Before the fix, an answer of "   " normalized
// to "" and the SP's public puzzle record carried that share in cleartext —
// handing the semi-honest SP one free share toward M_O.
TEST_F(SurveillanceTest, WhitespaceAnswerIsRejectedBeforeItCanLeakAShare) {
  // Pre-fix both of these constructed successfully (the test fails there).
  EXPECT_THROW(Context({{"Where did we meet?", "ANSWER-PARIS-91c2"}, {"Trick question?", "   "}}),
               std::invalid_argument);
  Context ctx;
  ctx.add("Where did we meet?", "ANSWER-PARIS-91c2");
  EXPECT_THROW(ctx.add("Trick question?", " \t\n "), std::invalid_argument);

  // Nothing reached the hosts while the poisoned context was being rejected.
  EXPECT_EQ(session_.service_provider().record_count(), 0u);
  EXPECT_EQ(session_.storage_host().object_count(), 0u);
}

TEST_F(SurveillanceTest, SpViewContainsSharesOnlyInBlindedForm) {
  // For a valid share, reconstruct each entry's UNBLINDED share wire the way
  // a knowledgeable receiver does (blinded ⊕ normalized answer) and scan the
  // SP's complete view for it: it must appear nowhere — the record holds
  // only the blinded form. Pre-fix, an empty-normalized answer made blinded
  // == unblinded and this scan would find the raw share.
  const Context ctx = secret_context();
  const auto receipt =
      session_.share_c1(sharer_, to_bytes(kSecretObject), ctx, 2, 4, net::pc_profile());

  const Puzzle stored = Puzzle::deserialize(session_.service_provider().record(receipt.post_id));
  ASSERT_EQ(stored.entries.size(), ctx.size());
  for (std::size_t i = 0; i < stored.entries.size(); ++i) {
    const auto answer = ctx.answer_of(stored.entries[i].question);
    ASSERT_TRUE(answer.has_value());
    const Bytes raw_share = crypto::xor_cycle(stored.entries[i].blinded_share, norm(*answer));
    EXPECT_NE(raw_share, stored.entries[i].blinded_share) << "entry " << i << " is unblinded";
    EXPECT_FALSE(session_.service_provider().view_contains(raw_share))
        << "unblinded share of entry " << i << " visible to the SP";
  }
}

TEST_F(SurveillanceTest, EncryptedObjectIsHighEntropy) {
  // Sanity: a highly redundant plaintext leaves no statistical fingerprint
  // in the stored ciphertext (quick chi-square-ish check on byte counts).
  const Context ctx = secret_context();
  const Bytes redundant(32 * 1024, 0x41);  // 32 KB of 'A'
  session_.share_c1(sharer_, redundant, ctx, 2, 4, net::pc_profile());
  ASSERT_EQ(session_.storage_host().object_count(), 1u);
  // observed_blobs() is a point-in-time snapshot — copy the blob out.
  const Bytes blob = session_.storage_host().observed_blobs().begin()->second;
  std::array<std::size_t, 256> counts{};
  for (std::uint8_t b : blob) ++counts[b];
  const double expect = static_cast<double>(blob.size()) / 256.0;
  for (std::size_t v = 0; v < 256; ++v) {
    EXPECT_LT(counts[v], expect * 2.0) << "byte value " << v << " over-represented";
  }
}

}  // namespace
}  // namespace sp::core
