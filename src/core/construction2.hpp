// Construction 2 (paper §V-B): CP-ABE social puzzles.
//
// Sharer: builds the height-1 access tree τ (root threshold k over N
// question/answer leaves), runs CP-ABE Setup + Encrypt, perturbs τ into τ'
// (answers → hashes) and swaps it into the ciphertext, then uploads
// {details = τ' + metadata, PK, MK} to the SP and CT' to the DH. The paper's
// Implementation 2 moves these as four separate files over cURL — the wire
// structs below preserve that decomposition because it dominates Fig. 10's
// I2 network delay.
//
// SP: displays the questions of τ'; Verify matches the receiver's hashed
// answers against the leaf hashes; on >= k matches releases URL_O (CT' at
// the DH) plus PK and MK.
//
// Receiver: downloads CT', Reconstructs τ̂ by substituting her answers for
// matching hashes, runs KeyGen(MK, S) over the answer attributes Decrypt
// uses (k of them), Decrypts.
#pragma once

#include <optional>

#include "abe/cpabe.hpp"
#include "core/context.hpp"

namespace sp::core {

class Construction2 {
 public:
  explicit Construction2(const ec::Curve& curve);

  // ---------------------------------------------------------------- sharer
  /// The four uploads of the paper's Implementation 2 (plus the sealed
  /// object, which rides inside the ciphertext file as a hybrid payload).
  struct UploadResult {
    abe::AccessTree perturbed_tree;  ///< τ' — "details.txt" body
    Bytes public_key;                ///< PK file
    Bytes master_key;                ///< MK file (paper: SP shares with all users)
    Bytes ciphertext;                ///< CT' + sealed object, destined for DH
    std::size_t threshold = 0;       ///< k, displayed with the puzzle

    /// Bytes moved sharer -> SP (details + PK + MK).
    [[nodiscard]] std::size_t sp_upload_size() const;
  };
  [[nodiscard]] UploadResult upload(std::span<const std::uint8_t> object, const Context& ctx,
                                    std::size_t k, crypto::Drbg& rng) const;

  // -------------------------------------------------------------------- SP
  struct Challenge {
    std::vector<std::string> questions;
    std::size_t threshold = 0;

    [[nodiscard]] std::size_t wire_size() const;
  };
  [[nodiscard]] static Challenge display_puzzle(const abe::AccessTree& perturbed_tree,
                                                std::size_t threshold);

  /// The receiver's response: unkeyed answer hashes, one per question (the
  /// paper's Implementation 2 hashes with SHA-1; we use the same SHA-256
  /// hash that Perturb used so SP-side matching is a string compare).
  struct Response {
    std::vector<std::string> answer_hashes;  ///< hex, aligned with questions

    [[nodiscard]] std::size_t wire_size() const;
  };
  [[nodiscard]] static Response answer_puzzle(const Challenge& challenge,
                                              const Knowledge& knowledge);

  /// Verify: count matches against τ' leaf hashes; on >= k release URL + PK
  /// + MK (the receiver needs both to run KeyGen/Decrypt locally).
  struct VerifyReply {
    bool granted = false;
    std::string url;

    [[nodiscard]] std::size_t wire_size(const UploadResult& stored) const;
  };
  [[nodiscard]] static VerifyReply verify(const abe::AccessTree& perturbed_tree,
                                          std::size_t threshold, const Challenge& challenge,
                                          const Response& response, const std::string& url);

  // -------------------------------------------------------------- receiver
  /// Reconstruct + KeyGen + Decrypt. Returns the object plaintext, or
  /// nullopt when fewer than k answers match / decryption fails. KeyGen
  /// covers only the k recovered leaves Decrypt uses
  /// (CpAbe::decrypt_attributes). `runner` (optional) executes KeyGen's D
  /// and (D_j, D'_j) jobs, then the batched decrypt's per-term Miller loops
  /// and table builds — Session passes a fork-join over its ThreadPool
  /// (run_all); empty runs them inline.
  [[nodiscard]] std::optional<Bytes> access(const Bytes& ciphertext_file,
                                            const Bytes& public_key_file,
                                            const Bytes& master_key_file,
                                            const Knowledge& knowledge, crypto::Drbg& rng,
                                            const abe::CpAbe::ParallelRunner& runner = {}) const;

  [[nodiscard]] const abe::CpAbe& scheme() const { return scheme_; }

 private:
  abe::CpAbe scheme_;
};

}  // namespace sp::core
