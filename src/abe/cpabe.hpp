// Ciphertext-Policy Attribute-Based Encryption (Bethencourt–Sahai–Waters,
// IEEE S&P 2007) — the scheme behind the paper's Construction 2, rebuilt
// from scratch on our own pairing (paper §III-C).
//
//   Setup      → PK = (g, h = g^β, f = g^(1/β), e(g,g)^α),  MK = (β, g^α)
//   Encrypt    → CT = (τ, C̃ = M·e(g,g)^(αs), C = h^s,
//                      ∀ leaf y: C_y = g^(q_y(0)), C_y' = H(att(y))^(q_y(0)))
//   KeyGen(S)  → SK = (D = g^((α+r)/β), ∀ j ∈ S: D_j = g^r·H(j)^(r_j),
//                      D_j' = g^(r_j))
//   Decrypt    → DecryptNode recursion + Lagrange combination at gates,
//                then M = C̃ / (e(C, D) / e(g,g)^(rs)).
//
// Used as a KEM: Encrypt draws a random target-group element M and returns
// SHA-256(M) as the data-encapsulation key; Decrypt re-derives it. The
// paper's Perturb/Reconstruct tweak operates on the access tree embedded in
// the ciphertext (swap_policy), hiding answers from SP and DH.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "abe/access_tree.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::abe {

using crypto::BigInt;
using field::Fp2;

struct PublicKey {
  ec::Point g;
  ec::Point h;        ///< g^β
  ec::Point f;        ///< g^(1/β) (delegation; carried for fidelity to BSW07)
  Fp2 e_gg_alpha;     ///< e(g,g)^α
};

struct MasterKey {
  BigInt beta;
  ec::Point g_alpha;  ///< g^α
};

struct PrivateKey {
  ec::Point d;  ///< g^((α+r)/β)
  struct AttrKey {
    ec::Point dj;        ///< g^r · H(j)^(r_j)
    ec::Point dj_prime;  ///< g^(r_j)
  };
  std::map<std::string, AttrKey> attrs;  ///< keyed by canonical attribute
};

struct Ciphertext {
  AccessTree policy;  ///< τ (or τ' after swap_policy(perturb))
  Fp2 c_tilde;        ///< M · e(g,g)^(αs)
  ec::Point c;        ///< h^s
  struct LeafCt {
    ec::Point cy;        ///< g^(q_y(0))
    ec::Point cy_prime;  ///< H(att(y))^(q_y(0))
  };
  std::map<std::size_t, LeafCt> leaves;  ///< keyed by DFS leaf node id
};

class CpAbe {
 public:
  explicit CpAbe(const ec::Curve& curve);

  /// Setup: samples α, β and produces the key pair. (The paper's sharer
  /// runs cpabe-setup per shared object.) h and f are one-use bases, so
  /// Setup builds no table for them: C = h^s is Encrypt's one generic
  /// multiplication, and f is never multiplied or paired.
  [[nodiscard]] std::pair<PublicKey, MasterKey> setup(crypto::Drbg& rng) const;

  /// Optional executor for independent scalar multiplications and Miller
  /// loops: keygen's D and (D_j, D'_j) jobs, and decrypt_key's per-term
  /// Miller loops (each building its Miller-line table when missing).
  /// Session passes sp::core's ThreadPool::run_all; empty = inline. The
  /// alias keeps sp::abe free of core dependencies.
  using ParallelRunner = ec::Pairing::Runner;

  /// KeyGen(MK, S): private key for canonical attribute strings S. r and
  /// every r_j are drawn on the calling thread in attribute order, then D
  /// and each (D_j, D'_j) run as one job apiece through `runner`, so one
  /// rng yields the same key bytes inline or forked.
  [[nodiscard]] PrivateKey keygen(const MasterKey& mk, const std::vector<std::string>& attributes,
                                  crypto::Drbg& rng, const ParallelRunner& runner = {}) const;

  /// Encrypt-as-KEM under policy τ (leaves must be unperturbed). Returns the
  /// ciphertext and the 32-byte DEM key SHA-256(M).
  [[nodiscard]] std::pair<Ciphertext, Bytes> encrypt_key(const PublicKey& pk,
                                                         const AccessTree& policy,
                                                         crypto::Drbg& rng) const;

  /// The canonical attributes of the leaves decrypt_key() uses under a key
  /// that covers every reconstructed (unperturbed) leaf of `ct`'s policy:
  /// per gate the first `threshold` satisfiable children, in index order.
  /// decrypt_key() runs the same selection, so a key over exactly these
  /// decrypts `ct` with the same leaves; a receiver need not KeyGen the
  /// rest. nullopt when the reconstructed leaves do not satisfy the policy.
  [[nodiscard]] std::optional<std::vector<std::string>> decrypt_attributes(
      const Ciphertext& ct) const;

  /// Decrypt: re-derives the DEM key, or nullopt when the key's attributes
  /// do not satisfy the ciphertext policy. A policy that *structurally*
  /// matches but was built from different answers yields a wrong key (the
  /// authenticated DEM layer then rejects) — mirroring the paper's flow.
  ///
  /// Batched (PR 7): a pairing-free satisfiability pass picks the same
  /// leaf subset as the BSW07 recursion, each chosen leaf's gate-path
  /// Lagrange coefficients are collapsed into one cumulative exponent mod
  /// q, and all leaf pairs plus e(C, D)^{-1} are folded into a single
  /// Pairing::product() — one final exponentiation instead of 2k+1.
  /// Byte-identical to decrypt_key_reference() (equivalence suite).
  [[nodiscard]] std::optional<Bytes> decrypt_key(const PublicKey& pk, const PrivateKey& sk,
                                                 const Ciphertext& ct,
                                                 const ParallelRunner& runner = {}) const;

  /// The original per-leaf DecryptNode recursion (two full pairings per
  /// satisfied leaf, Lagrange pows post-exponentiation), kept as the
  /// equivalence oracle for the batched decrypt_key().
  [[nodiscard]] std::optional<Bytes> decrypt_key_reference(const PublicKey& pk,
                                                           const PrivateKey& sk,
                                                           const Ciphertext& ct) const;

  /// Paper §V-B Perturb/Reconstruct: replace the embedded access tree
  /// (crypto components are untouched; only the metadata tree changes).
  static Ciphertext swap_policy(Ciphertext ct, AccessTree new_policy);

  /// Wire encodings — the bench harness charges these byte counts to the
  /// network model (the paper measured ~600 KB of CP-ABE files per share).
  [[nodiscard]] Bytes serialize(const PublicKey& pk) const;
  [[nodiscard]] Bytes serialize(const MasterKey& mk) const;
  [[nodiscard]] Bytes serialize(const PrivateKey& sk) const;
  [[nodiscard]] Bytes serialize(const Ciphertext& ct) const;
  [[nodiscard]] PublicKey deserialize_public_key(std::span<const std::uint8_t> data) const;
  [[nodiscard]] MasterKey deserialize_master_key(std::span<const std::uint8_t> data) const;
  [[nodiscard]] PrivateKey deserialize_private_key(std::span<const std::uint8_t> data) const;
  [[nodiscard]] Ciphertext deserialize_ciphertext(std::span<const std::uint8_t> data) const;

  [[nodiscard]] const ec::Curve& curve() const { return *curve_; }

 private:
  [[nodiscard]] BigInt rand_scalar(crypto::Drbg& rng) const;
  /// H(attribute) via hash_to_group, memoized — a group hash costs a
  /// cofactor-sized scalar multiplication, and KeyGen re-hashes the same
  /// canonical attributes on every access request. FIFO-capped; counted by
  /// abe_attr_hash_{hits,builds}_total.
  [[nodiscard]] ec::Point hash_attr(const std::string& attribute) const;
  /// The fixed public generator g (hash-to-group of a domain tag), its
  /// FixedBase table and e(g, g), built together on first use, so a C1-only
  /// session never pays the ~5 ms build at kFull. Setup, KeyGen's g^r and
  /// g^(r_j), and Encrypt's leaf g^(q_y(0)) multiply through it; after the
  /// first call, reading it takes no lock.
  [[nodiscard]] const ec::FixedBase& generator() const;
  /// e(g, g) of generator(): Setup raises it to α, and Encrypt draws the
  /// KEM element M = e(g, g)^z from it.
  [[nodiscard]] const Fp2& e_gg() const;

  /// Recursive share assignment for Encrypt.
  void share_secret(const AccessTree::Node& node, const BigInt& value, std::size_t& next_id,
                    Ciphertext& ct, crypto::Drbg& rng) const;
  /// DecryptNode: e(g,g)^(r·q_x(0)) or nullopt (reference path).
  [[nodiscard]] std::optional<Fp2> decrypt_node(const PrivateKey& sk, const Ciphertext& ct,
                                                const AccessTree::Node& node,
                                                std::size_t& next_id) const;

  /// Pairing-free satisfiability pass: sat[id] records, per DFS node id,
  /// whether that subtree is satisfied — the same verdict the BSW07
  /// recursion reaches by pairing, so the batched path selects the same
  /// leaves. A leaf is usable when it is reconstructed, has a ciphertext
  /// component and — unless `sk` is null — an attribute key in `sk`.
  /// Returns sat[root].
  bool mark_satisfiable(const PrivateKey* sk, const Ciphertext& ct,
                        const AccessTree::Node& node, std::size_t& next_id,
                        std::vector<char>& sat) const;

  /// One chosen leaf of the flattened decryption: its ciphertext
  /// components are paired with the attribute key and raised to `coeff`,
  /// the product of the Lagrange coefficients along its gate path (mod q).
  struct LeafUse {
    std::size_t id;
    std::string attr;
    BigInt coeff;
  };
  /// Collects the chosen leaves (first `threshold` satisfiable children
  /// per gate, in index order — exactly the reference selection) with
  /// their cumulative exponents.
  void flatten_node(const AccessTree::Node& node, std::size_t& next_id, const BigInt& coeff,
                    const std::vector<char>& sat, std::vector<LeafUse>& out) const;
  /// mark_satisfiable then flatten_node over `ct`'s policy: the leaves
  /// decrypt_key() pairs (`sk` given) or decrypt_attributes() names (null
  /// `sk`). nullopt when the root is unsatisfied.
  [[nodiscard]] std::optional<std::vector<LeafUse>> select_leaves(const PrivateKey* sk,
                                                                  const Ciphertext& ct) const;

  const ec::Curve* curve_;
  ec::Pairing pairing_;
  /// Written once, under generator_once_; immutable after.
  mutable std::once_flag generator_once_;
  mutable std::unique_ptr<const ec::FixedBase> generator_;
  mutable Fp2 e_gg_;
  /// Guards the H(attr) memo: CpAbe is const-shared across serving threads
  /// (Construction 2 calls keygen/encrypt/decrypt concurrently). No lock is
  /// held across a scalar multiplication.
  mutable sp::Mutex cache_mutex_;
  /// H(attr) memo; FIFO-capped (kMaxAttrCache).
  mutable std::unordered_map<std::string, ec::Point> attr_cache_ SP_GUARDED_BY(cache_mutex_);
  mutable std::deque<std::string> attr_fifo_ SP_GUARDED_BY(cache_mutex_);
};

}  // namespace sp::abe
