#include "core/puzzle.hpp"

#include <stdexcept>

namespace sp::core {

Bytes Puzzle::signed_payload(std::string_view url_o) const {
  // Only the fields a receiver eventually holds (URL_O, k, K_Z) — the
  // paper's countermeasure signs exactly the components whose tampering
  // causes silent DoS. Blinded-share tampering is detected downstream by
  // the authenticated decryption failing.
  Bytes out;
  crypto::put_str(out, url_o);
  crypto::put_u32(out, static_cast<std::uint32_t>(threshold));
  crypto::put_blob(out, puzzle_key);
  return out;
}

Bytes Puzzle::serialize() const {
  Bytes out;
  crypto::put_str(out, url);
  crypto::put_u32(out, static_cast<std::uint32_t>(threshold));
  crypto::put_blob(out, puzzle_key);
  crypto::put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const PuzzleEntry& e : entries) {
    crypto::put_str(out, e.question);
    crypto::put_blob(out, e.answer_hash);
    crypto::put_blob(out, e.blinded_share);
  }
  crypto::put_blob(out, sharer_public_key);
  crypto::put_blob(out, signature);
  return out;
}

Puzzle Puzzle::deserialize(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  Puzzle p;
  p.url = crypto::get_str(data, off);
  p.threshold = crypto::get_u32(data, off);
  p.puzzle_key = crypto::get_blob(data, off);
  const std::uint32_t n = crypto::get_u32(data, off);
  for (std::uint32_t i = 0; i < n; ++i) {
    PuzzleEntry e;
    e.question = crypto::get_str(data, off);
    e.answer_hash = crypto::get_blob(data, off);
    e.blinded_share = crypto::get_blob(data, off);
    p.entries.push_back(std::move(e));
  }
  p.sharer_public_key = crypto::get_blob(data, off);
  p.signature = crypto::get_blob(data, off);
  if (off != data.size()) throw std::invalid_argument("Puzzle: trailing bytes");
  return p;
}

}  // namespace sp::core
