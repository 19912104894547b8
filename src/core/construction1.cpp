#include "core/construction1.hpp"

#include <array>
#include <stdexcept>

#include "crypto/modes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha3.hpp"

namespace sp::core {

using crypto::BigInt;
using crypto::Drbg;

Construction1::Construction1(field::FpCtxPtr field, const ec::Curve& sig_curve)
    : field_(field),
      shamir_(field_),
      schnorr_(sig_curve, sig_curve.hash_to_group(crypto::to_bytes("sp-schnorr-g"))) {}

crypto::SecretBytes Construction1::derive_object_key(const BigInt& m_o,
                                                     field::FpCtxPtr field) {
  // K_O = H(M_O) (paper); fixed-width encoding so leading zeros don't alias.
  Bytes m_bytes = m_o.to_bytes(field->byte_length());
  crypto::SecretBytes k_o{crypto::Sha256::hash(m_bytes)};
  crypto::secure_wipe(m_bytes);
  return k_o;
}

Bytes Construction1::answer_hash(std::string_view answer, const Bytes& puzzle_key) {
  std::string normalized = Context::normalize_answer(answer);
  constexpr std::uint8_t kSeparator = 0x1f;
  crypto::Sha3_256 h;
  h.update(std::span(reinterpret_cast<const std::uint8_t*>(normalized.data()), normalized.size()));
  h.update(std::span(&kSeparator, 1));
  h.update(puzzle_key);
  const std::array<std::uint8_t, crypto::Sha3_256::kDigestSize> digest = h.finish();
  // The sponge's buffer still holds the cleartext answer and K_Z.
  crypto::secure_wipe(&h, sizeof(h));
  crypto::secure_wipe(normalized);
  return Bytes(digest.begin(), digest.end());
}

Construction1::UploadResult Construction1::upload(std::span<const std::uint8_t> object,
                                                  const Context& ctx, std::size_t k,
                                                  std::size_t n, const sig::KeyPair& sharer_keys,
                                                  Drbg& rng) const {
  if (n == 0 || n > ctx.size()) {
    throw std::invalid_argument("Construction1::upload: need 0 < n <= N context pairs");
  }
  if (k == 0 || k > n) throw std::invalid_argument("Construction1::upload: need 0 < k <= n");

  // Object-specific secret M_O = P(0), chosen uniformly at random.
  auto rb = [&rng](std::size_t len) { return rng.bytes(len); };
  BigInt m_o = BigInt::random_below(field_->p(), rb);
  const crypto::SecretBytes k_o = derive_object_key(m_o, field_);

  // O_{K_O} = E(O, K_O): authenticated AES envelope (the paper uses raw
  // AES-CBC; authentication lets wrong keys fail loudly instead of
  // producing garbage).
  const Bytes iv = rng.bytes(16);
  Bytes encrypted = crypto::seal(k_o.span(), iv, object);

  // n shares of M_O. The sharer is done with the secret itself after this.
  const auto shares = shamir_.split(m_o, k, n, rng);
  m_o.wipe();

  Puzzle puzzle;
  puzzle.threshold = k;
  puzzle.puzzle_key = rng.bytes(16);  // K_Z
  for (std::size_t i = 0; i < n; ++i) {
    const ContextPair& pair = ctx.pairs()[i];
    PuzzleEntry entry;
    entry.question = pair.question;
    entry.answer_hash = answer_hash(pair.answer, puzzle.puzzle_key);
    Bytes share_wire = shamir_.serialize(shares[i]);
    Bytes answer_bytes = crypto::to_bytes(Context::normalize_answer(pair.answer));
    // Context already rejects empty normalized answers, but this layer is
    // reachable with a hand-built Context object too — and an empty blinding
    // key makes xor_cycle the identity, publishing the share in cleartext.
    if (answer_bytes.empty()) {
      crypto::secure_wipe(share_wire);
      throw std::invalid_argument(
          "Construction1::upload: answer normalizes to empty; share would be unblinded");
    }
    entry.blinded_share = crypto::xor_cycle(share_wire, answer_bytes);
    // The unblinded share and cleartext answer must not outlive the loop.
    crypto::secure_wipe(share_wire);
    crypto::secure_wipe(answer_bytes);
    puzzle.entries.push_back(std::move(entry));
  }
  // The signature binds URL_O, which the caller only learns after storing
  // the object at the DH — so signing is the caller's last step
  // (sign_puzzle), not ours. Returning unsigned keeps the signing scalar
  // multiplication out of Upload's measured cost exactly once.
  (void)sharer_keys;
  return UploadResult{std::move(puzzle), std::move(encrypted)};
}

void Construction1::sign_puzzle(Puzzle& puzzle, const sig::KeyPair& sharer_keys) const {
  puzzle.sharer_public_key = schnorr_.serialize_public(sharer_keys.public_key);
  puzzle.signature =
      schnorr_.serialize(schnorr_.sign(sharer_keys, puzzle.signed_payload(puzzle.url)));
}

bool Construction1::verify_puzzle_signature(const ec::FixedBase& sharer_key, const Puzzle& puzzle,
                                            std::string_view url) const {
  try {
    const sig::Signature sig = schnorr_.deserialize(puzzle.signature);
    return schnorr_.verify(sharer_key, puzzle.signed_payload(url), sig);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

std::size_t Construction1::Challenge::wire_size() const {
  std::size_t size = 8 + puzzle_key.size();
  for (const auto& q : questions) size += 4 + q.size();
  size += 8 * indices.size();
  return size;
}

Construction1::Challenge Construction1::display_puzzle(const Puzzle& puzzle, Drbg& rng) {
  const std::size_t n = puzzle.n();
  const std::size_t k = puzzle.threshold;
  if (k == 0 || k > n) throw std::invalid_argument("display_puzzle: malformed puzzle");
  // Random r with k <= r <= n, then a random permutation prefix of length r.
  const std::size_t r = k + rng.uniform(n - k + 1);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
  Challenge ch;
  ch.threshold = k;
  ch.puzzle_key = puzzle.puzzle_key;
  ch.indices.reserve(r);
  ch.questions.reserve(r);
  for (std::size_t i = 0; i < r; ++i) {
    ch.indices.push_back(order[i]);
    ch.questions.push_back(puzzle.entries[order[i]].question);
  }
  return ch;
}

std::size_t Construction1::Response::wire_size() const {
  std::size_t size = 4;
  for (const auto& h : hashes) size += 4 + h.size();
  return size;
}

Construction1::Response Construction1::answer_puzzle(const Challenge& challenge,
                                                     const Knowledge& knowledge) {
  Response resp;
  resp.hashes.reserve(challenge.questions.size());
  for (const std::string& q : challenge.questions) {
    const auto answer = knowledge.recall(q);
    if (answer) {
      resp.hashes.push_back(answer_hash(*answer, challenge.puzzle_key));
    } else {
      // Fixed-size dummy so the response shape doesn't leak which questions
      // the receiver recognizes. The control characters keep it outside any
      // plausible real answer space.
      resp.hashes.push_back(answer_hash("\x01\x02sp-unknown-answer\x03", challenge.puzzle_key));
    }
  }
  return resp;
}

std::size_t Construction1::VerifyReply::wire_size() const {
  std::size_t size = 5 + url.size();
  for (const auto& s : shares) size += 8 + 4 + s.blinded_share.size();
  return size;
}

Construction1::VerifyReply Construction1::verify(const Puzzle& puzzle, const Challenge& challenge,
                                                 std::span<const Bytes> response_hashes) {
  if (response_hashes.size() != challenge.questions.size()) {
    throw std::invalid_argument("Construction1::verify: response/challenge length mismatch");
  }
  // Count the matches first: below k "the SP does not send anything", so
  // a denial copies no share.
  const auto matches = [&](std::size_t j) {
    return crypto::ct_equal(puzzle.entries.at(challenge.indices[j]).answer_hash,
                            response_hashes[j]);
  };
  std::size_t matched = 0;
  for (std::size_t j = 0; j < challenge.indices.size(); ++j) matched += matches(j) ? 1 : 0;
  VerifyReply reply;
  if (matched < puzzle.threshold) return reply;
  reply.granted = true;
  reply.shares.reserve(matched);
  for (std::size_t j = 0; j < challenge.indices.size(); ++j) {
    if (!matches(j)) continue;
    const std::size_t idx = challenge.indices[j];
    reply.shares.push_back(GrantedShare{idx, puzzle.entries[idx].blinded_share});
  }
  reply.url = puzzle.url;
  return reply;
}

std::optional<Bytes> Construction1::access(const Puzzle& puzzle, const Challenge& challenge,
                                           const VerifyReply& reply, const Knowledge& knowledge,
                                           std::span<const std::uint8_t> encrypted_object) const {
  if (!reply.granted || reply.shares.size() < puzzle.threshold) return std::nullopt;
  std::vector<sss::Share> shares;
  for (const GrantedShare& granted : reply.shares) {
    if (shares.size() == puzzle.threshold) break;
    // Find the question this index was displayed under.
    std::string question;
    for (std::size_t j = 0; j < challenge.indices.size(); ++j) {
      if (challenge.indices[j] == granted.index) {
        question = challenge.questions[j];
        break;
      }
    }
    const auto answer = knowledge.recall(question);
    if (!answer) return std::nullopt;  // SP granted an index we can't unblind
    Bytes answer_bytes = crypto::to_bytes(Context::normalize_answer(*answer));
    Bytes share_wire = crypto::xor_cycle(granted.blinded_share, answer_bytes);
    crypto::secure_wipe(answer_bytes);
    try {
      shares.push_back(shamir_.deserialize(share_wire));
    } catch (const std::invalid_argument&) {
      crypto::secure_wipe(share_wire);
      return std::nullopt;
    }
    crypto::secure_wipe(share_wire);
  }
  if (shares.size() < puzzle.threshold) return std::nullopt;
  BigInt m_o;
  try {
    m_o = shamir_.reconstruct(shares);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  const crypto::SecretBytes k_o = derive_object_key(m_o, field_);
  m_o.wipe();
  for (sss::Share& s : shares) {
    s.x.wipe();
    s.y.wipe();
  }
  try {
    return crypto::open(k_o.span(), encrypted_object);
  } catch (const std::runtime_error&) {
    return std::nullopt;  // wrong key (bad answers) or tampered object
  }
}

}  // namespace sp::core
