// Construction 1 (paper §V-A): Shamir-secret-sharing social puzzles.
//
// Roles and subroutines map 1:1 to the paper:
//   Sharer    — Upload(O, k, n)
//   SP        — DisplayPuzzle(Z_O), Verify(u, h_σ(1..r))
//   Receiver  — AnswerPuzzle(q_σ(1..r), K_Z), Access(...)
//
// Every message is a plain struct with a wire size, so the session layer can
// charge the network model with the exact bytes the protocol moves.
#pragma once

#include <optional>
#include <string_view>

#include "core/context.hpp"
#include "core/puzzle.hpp"
#include "crypto/secret.hpp"
#include "ec/curve.hpp"
#include "sig/schnorr.hpp"
#include "sss/shamir.hpp"

namespace sp::core {

class Construction1 {
 public:
  /// `field` hosts the Shamir arithmetic; `sig_curve` hosts the sharer
  /// signatures (the DoS countermeasure). Both outlive this object.
  Construction1(field::FpCtxPtr field, const ec::Curve& sig_curve);

  // ---------------------------------------------------------------- sharer
  struct UploadResult {
    Puzzle puzzle;            ///< Z_O, destined for the SP
    Bytes encrypted_object;   ///< O_{K_O}, destined for the DH (url unset yet)
  };

  /// Upload: derives M_O, K_O = H(M_O), encrypts O, splits M_O into n
  /// shares, blinds each with its answer, and assembles Z_O (unsigned). The
  /// caller stores `encrypted_object` at the DH, patches `puzzle.url` with
  /// the returned URL_O, then calls sign_puzzle — the signature binds the
  /// URL, which only exists after the DH store (paper's upload-then-link
  /// flow). `sharer_keys` is accepted here for interface stability but the
  /// signing happens in sign_puzzle.
  [[nodiscard]] UploadResult upload(std::span<const std::uint8_t> object, const Context& ctx,
                                    std::size_t k, std::size_t n, const sig::KeyPair& sharer_keys,
                                    crypto::Drbg& rng) const;

  /// (Re)signs a puzzle after its URL is known.
  void sign_puzzle(Puzzle& puzzle, const sig::KeyPair& sharer_keys) const;
  /// Receiver-side check of the sharer's signature over (URL_O, k, K_Z)
  /// (§VI-A: detects an SP that rewrites them). `url` is URL_O exactly as
  /// the SP's Verify reply carried it; k, K_Z and the signature are the
  /// puzzle's. `sharer_key` is the table of the key the receiver already
  /// knows the sharer by, from the social graph. The puzzle's own
  /// sharer_public_key is never read: an SP that swaps URL_O and re-signs
  /// under its own key fails here.
  [[nodiscard]] bool verify_puzzle_signature(const ec::FixedBase& sharer_key,
                                             const Puzzle& puzzle, std::string_view url) const;

  // -------------------------------------------------------------------- SP
  /// What DisplayPuzzle shows a user: r questions (k <= r <= n) in a random
  /// permutation σ, plus K_Z.
  struct Challenge {
    std::vector<std::size_t> indices;  ///< σ: positions into puzzle.entries
    std::vector<std::string> questions;
    std::size_t threshold = 0;  ///< k (displayed so users know the bar)
    Bytes puzzle_key;           ///< K_Z

    [[nodiscard]] std::size_t wire_size() const;
  };
  [[nodiscard]] static Challenge display_puzzle(const Puzzle& puzzle, crypto::Drbg& rng);

  /// Verify: SP matches the response hashes against the stored H(a_i, K_Z).
  /// On >= k matches it releases, per matched question, the blinded share
  /// and index, plus URL_O; otherwise it "does not send anything".
  struct GrantedShare {
    std::size_t index = 0;  ///< position into puzzle.entries (σ(j))
    Bytes blinded_share;
  };
  struct VerifyReply {
    bool granted = false;
    std::vector<GrantedShare> shares;
    std::string url;

    [[nodiscard]] std::size_t wire_size() const;
  };
  [[nodiscard]] static VerifyReply verify(const Puzzle& puzzle, const Challenge& challenge,
                                          std::span<const Bytes> response_hashes);

  // -------------------------------------------------------------- receiver
  /// H(a, K_Z): keyed answer hash. SHA3-256(a_norm || 0x1f || K_Z), matching
  /// the paper's CryptoJS-SHA3-over-concatenation.
  [[nodiscard]] static Bytes answer_hash(std::string_view answer, const Bytes& puzzle_key);

  /// AnswerPuzzle: hash of the receiver's (normalized) answer for every
  /// displayed question; unknown questions get a fixed "no idea" hash so the
  /// response length never leaks which questions the user can answer.
  struct Response {
    std::vector<Bytes> hashes;  ///< one per challenge question

    [[nodiscard]] std::size_t wire_size() const;
  };
  [[nodiscard]] static Response answer_puzzle(const Challenge& challenge,
                                              const Knowledge& knowledge);

  /// Access: unblind the granted shares with the receiver's answers,
  /// Lagrange-reconstruct M_O, derive K_O, decrypt. Returns nullopt when the
  /// grant is too small or the decryption authenticator rejects (wrong
  /// answers / tampered object).
  [[nodiscard]] std::optional<Bytes> access(const Puzzle& puzzle, const Challenge& challenge,
                                            const VerifyReply& reply, const Knowledge& knowledge,
                                            std::span<const std::uint8_t> encrypted_object) const;

  [[nodiscard]] field::FpCtxPtr field() const { return field_; }
  /// The sharer-signature scheme; its generator's table is built once here,
  /// and Session keys every user with it.
  [[nodiscard]] const sig::Schnorr& schnorr() const { return schnorr_; }

 private:
  /// K_O = H(M_O). Wipes the fixed-width encoding of M_O it hashes; the
  /// caller owns wiping m_o itself (BigInt::wipe) once done with it.
  [[nodiscard]] static crypto::SecretBytes derive_object_key(const crypto::BigInt& m_o,
                                                             field::FpCtxPtr field);

  field::FpCtxPtr field_;
  sss::Shamir shamir_;
  sig::Schnorr schnorr_;
};

}  // namespace sp::core
