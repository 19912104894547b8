// Construction 1 puzzle wire format (paper §V-A):
//
//   Z_O = { <q_1, H(a_1, K_Z), a_1 ⊕ d_1>, ..., <q_n, H(a_n, K_Z), a_n ⊕ d_n>,
//           n, k, K_Z, URL_O }
//
// plus the sharer's signature over URL_O, k and K_Z — the §VI-A
// countermeasure against a malicious SP mounting DoS by rewriting them.
// docs/WIRE_FORMAT.md has the byte layout.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.hpp"

namespace sp::core {

using crypto::Bytes;

struct PuzzleEntry {
  std::string question;  ///< q_i — visible to everyone
  Bytes answer_hash;     ///< H(a_i, K_Z) — lets SP verify without learning a_i
  Bytes blinded_share;   ///< a_i ⊕ d_i — share unblinds only with the answer

  friend bool operator==(const PuzzleEntry&, const PuzzleEntry&) = default;
};

struct Puzzle {
  std::vector<PuzzleEntry> entries;  ///< n entries
  std::size_t threshold = 0;         ///< k = ζ_O
  Bytes puzzle_key;                  ///< K_Z
  std::string url;                   ///< URL_O at the storage host
  Bytes sharer_public_key;           ///< serialized Schnorr public key
  Bytes signature;                   ///< over signed_payload(url)

  [[nodiscard]] std::size_t n() const { return entries.size(); }

  /// The byte string the sharer signs: URL_O, k and K_Z, with `url_o` as
  /// URL_O. The sharer passes `url`; a receiver passes the URL the SP's
  /// Verify reply carried.
  [[nodiscard]] Bytes signed_payload(std::string_view url_o) const;

  /// Wire format; its size is what the Fig. 10 sharer network model charges.
  [[nodiscard]] Bytes serialize() const;
  static Puzzle deserialize(std::span<const std::uint8_t> data);

  friend bool operator==(const Puzzle&, const Puzzle&) = default;
};

}  // namespace sp::core
