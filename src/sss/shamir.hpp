// Shamir (k, n) threshold secret sharing over F_p (paper §III-B).
//
// Construction 1 turns the object secret M_O = P(0) into n shares
// d_i = (s_i, P(s_i)) at random abscissae s_i; a receiver holding any k
// shares reconstructs P(0) by Lagrange interpolation, re-derives
// K_O = H(M_O), and decrypts the object. Fewer than k shares reveal
// nothing (information-theoretic security — exercised by an exhaustive
// small-field test).
#pragma once

#include <memory>
#include <vector>

#include "field/fp.hpp"
#include "sss/lagrange.hpp"

namespace sp::sss {

using crypto::BigInt;
using crypto::Bytes;
using field::Fp;
using field::FpCtxPtr;

/// One share (s_i, P(s_i)). Abscissae are never 0 (that would leak the
/// secret outright).
struct Share {
  BigInt x;
  BigInt y;

  friend bool operator==(const Share&, const Share&) = default;

  /// Zeroises both coordinates — a share is a secret fragment of M_O.
  void wipe() noexcept {
    x.wipe();
    y.wipe();
  }
};

class Shamir {
 public:
  /// `field` is the prime field F_p; p bounds both the secret and n.
  explicit Shamir(FpCtxPtr field);

  /// Splits `secret` (reduced mod p) into n shares with threshold k.
  /// Requires 0 < k <= n < p. Abscissae are random, distinct and non-zero —
  /// per the paper, "each s_i is chosen at random".
  [[nodiscard]] std::vector<Share> split(const BigInt& secret, std::size_t k, std::size_t n,
                                         crypto::Drbg& rng) const;

  /// Reconstructs P(0) from >= k shares via Lagrange interpolation. Throws
  /// std::invalid_argument on duplicate abscissae or empty input. Passing
  /// shares from a different polynomial yields an unrelated value (garbage),
  /// never an error — exactly the behaviour the access-control argument
  /// needs.
  [[nodiscard]] BigInt reconstruct(std::span<const Share> shares) const;

  /// Evaluates the implied polynomial at x (general interpolation); used by
  /// tests and by share-refresh extensions.
  ///
  /// PR 7: the Lagrange basis ℓ_j(x) — which depends only on the abscissae
  /// and x, not the secret ordinates — comes from a per-instance
  /// LagrangeCache, so repeated reconstructions of the same post (same
  /// share set, x = 0) cost k multiply-adds instead of an O(k²) loop with
  /// k inversions. Cache misses still batch: one Montgomery batch
  /// inversion replaces the per-share Fp::inv().
  [[nodiscard]] BigInt interpolate_at(std::span<const Share> shares, const BigInt& x) const;

  /// The original O(k²)-with-k-inversions double loop, kept as the
  /// equivalence oracle for the cached/batched interpolate_at().
  [[nodiscard]] BigInt interpolate_at_reference(std::span<const Share> shares,
                                                const BigInt& x) const;

  /// The per-instance basis cache (tests assert hit/cap behaviour).
  [[nodiscard]] const LagrangeCache& lagrange_cache() const { return *lagrange_; }

  /// Fixed-width wire encoding of one share: x || y (2 × field width).
  [[nodiscard]] Bytes serialize(const Share& share) const;
  [[nodiscard]] Share deserialize(std::span<const std::uint8_t> data) const;
  [[nodiscard]] std::size_t serialized_size() const { return 2 * field_->byte_length(); }

  [[nodiscard]] FpCtxPtr field() const { return field_; }

 private:
  /// Shared duplicate-abscissa validation for both interpolation paths.
  void check_shares(std::span<const Share> shares) const;

  FpCtxPtr field_;
  /// Behind unique_ptr so Shamir stays movable (the cache holds a mutex).
  std::unique_ptr<LagrangeCache> lagrange_;
};

}  // namespace sp::sss
