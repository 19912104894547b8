// Schnorr signatures over the pairing curve's order-q subgroup.
//
// Paper §VI: a malicious SP can mount denial-of-service by tampering with
// URL_O, the puzzle questions, or K_Z; the proposed countermeasure is for
// the sharer to sign those fields so receivers detect modification. This
// module provides that signature scheme. Nonces are derived
// deterministically (RFC 6979 style, via HMAC) so signing needs no RNG.
#pragma once

#include "ec/curve.hpp"

namespace sp::sig {

using crypto::BigInt;
using crypto::Bytes;

struct KeyPair {
  BigInt secret;          ///< x ∈ Z_q
  ec::Point public_key;   ///< g^x
};

struct Signature {
  ec::Point r;  ///< commitment g^k
  BigInt s;     ///< response k + e·x (mod q)
};

/// Holds its generator's FixedBase table, built once in the constructor
/// (2–4 ms at kFull): keygen, sign and verify take g^x from it. Build one
/// Schnorr per generator and share it; Construction1 holds the one every
/// Session user is keyed with. A verifier brings the signer's key as a
/// table too (FixedBase over the public key), built once per signer it
/// checks.
class Schnorr {
 public:
  /// `generator` must be a fixed public generator of the order-q subgroup
  /// (conventionally Curve::hash_to_group("sp-schnorr-g")); infinity or an
  /// off-curve point throws std::invalid_argument.
  Schnorr(const ec::Curve& curve, ec::Point generator);

  [[nodiscard]] KeyPair keygen(crypto::Drbg& rng) const;
  [[nodiscard]] Signature sign(const KeyPair& kp, std::span<const std::uint8_t> msg) const;
  /// Checks R on the curve and not infinity, 0 <= s < q, and then
  /// g^s = R + e·pk as one combination of two table multiplications with no
  /// field inversion (FixedBase::mul_sub_equals). `public_key` is the
  /// signer's table; its constructor already rejected an infinity or
  /// off-curve key.
  [[nodiscard]] bool verify(const ec::FixedBase& public_key, std::span<const std::uint8_t> msg,
                            const Signature& sig) const;

  /// Wire encodings (signature travels inside puzzle records).
  [[nodiscard]] Bytes serialize(const Signature& sig) const;
  [[nodiscard]] Signature deserialize(std::span<const std::uint8_t> data) const;
  [[nodiscard]] Bytes serialize_public(const ec::Point& pk) const;
  [[nodiscard]] ec::Point deserialize_public(std::span<const std::uint8_t> data) const;

  [[nodiscard]] const ec::Point& generator() const { return g_.base(); }

 private:
  [[nodiscard]] BigInt challenge(const ec::Point& r, const ec::Point& pk,
                                 std::span<const std::uint8_t> msg) const;

  const ec::Curve* curve_;
  ec::FixedBase g_;
};

}  // namespace sp::sig
