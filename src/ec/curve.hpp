// Supersingular elliptic curve E: y² = x³ + x over F_p with p ≡ 3 (mod 4).
//
// This is the same curve family as PBC's "Type A" parameters used by the
// cpabe toolkit the paper builds Implementation 2 on. The curve has
// #E(F_p) = p + 1 = h·q points; the pairing groups are the order-q subgroup
// G together with the distortion map φ(x, y) = (−x, i·y) into E(F_{p²}).
#pragma once

#include <optional>
#include <vector>

#include "field/fp2.hpp"

namespace sp::ec {

using crypto::BigInt;
using crypto::Bytes;
using field::Fp;
using field::FpCtxPtr;

/// Pairing-friendly curve parameters: p + 1 = h · q, p ≡ 3 (mod 4), q prime.
struct CurveParams {
  FpCtxPtr fp;  ///< base field F_p
  BigInt q;     ///< prime order of the pairing subgroup G
  BigInt h;     ///< cofactor
};

/// Affine point on E(F_p); the point at infinity has `infinity == true` and
/// unspecified coordinates.
class Point {
 public:
  Point() : infinity_(true) {}
  Point(Fp x, Fp y) : x_(std::move(x)), y_(std::move(y)), infinity_(false) {}

  [[nodiscard]] bool is_infinity() const { return infinity_; }
  [[nodiscard]] const Fp& x() const { return x_; }
  [[nodiscard]] const Fp& y() const { return y_; }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.infinity_ != b.infinity_) return false;
    if (a.infinity_) return true;
    return a.x_ == b.x_ && a.y_ == b.y_;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

 private:
  Fp x_;
  Fp y_;
  bool infinity_;
};

class Curve {
 public:
  explicit Curve(CurveParams params);

  [[nodiscard]] const CurveParams& params() const { return params_; }
  [[nodiscard]] FpCtxPtr fp() const { return params_.fp; }
  /// Group order q of the pairing subgroup.
  [[nodiscard]] const BigInt& order() const { return params_.q; }

  [[nodiscard]] bool on_curve(const Point& pt) const;
  [[nodiscard]] Point negate(const Point& pt) const;
  [[nodiscard]] Point add(const Point& a, const Point& b) const;
  [[nodiscard]] Point dbl(const Point& a) const;
  /// Scalar multiplication: width-4 wNAF over Jacobian coordinates, for any
  /// point. A long-lived base is faster through the FixedBase its owner
  /// holds. Not constant-time — this is a research reproduction, not a
  /// hardened implementation. Counted as
  /// ec_scalar_muls_total{path="generic"}.
  [[nodiscard]] Point mul(const Point& pt, const BigInt& k) const;
  /// Plain binary double-and-add — the pre-wNAF algorithm, kept as the
  /// randomized-equivalence oracle (tests/ec/test_scalar_mul.cpp). Not
  /// counted.
  [[nodiscard]] Point mul_binary(const Point& pt, const BigInt& k) const;

  /// Deterministically maps bytes to a point in the order-q subgroup
  /// (try-and-increment x, then cofactor clearing). Never returns infinity.
  [[nodiscard]] Point hash_to_group(std::span<const std::uint8_t> data) const;
  /// Random generator of the order-q subgroup.
  [[nodiscard]] Point random_group_element(crypto::Drbg& rng) const;

  /// Uncompressed encoding: 0x04 || x || y, or single 0x00 for infinity.
  [[nodiscard]] Bytes serialize(const Point& pt) const;
  [[nodiscard]] Point deserialize(std::span<const std::uint8_t> data) const;

 private:
  [[nodiscard]] Fp rhs(const Fp& x) const;  // x³ + x

  CurveParams params_;
};

/// Immutable fixed-base window table for one long-lived base point B: row j
/// holds d·16^j·B for d = 1..15, so k·B costs one mixed addition per
/// non-zero nibble of k and no doublings. The party that multiplies B
/// builds the table once and holds it: sig::Schnorr and abe::CpAbe for
/// their generators, and a C1 receiver for each sharer whose signature it
/// checks. There is no shared registry, so nothing evicts a table and a
/// multiplication takes no lock. One build costs 2–4 ms at kFull
/// (BM_FixedBaseBuild) and the table holds 40 × 15 affine points (~91 KB),
/// so a base multiplied only a few times is cheaper through Curve::mul.
/// `curve` must outlive the table.
class FixedBase {
 public:
  /// `base` must lie in the order-q subgroup; infinity or an off-curve
  /// point throws std::invalid_argument.
  FixedBase(const Curve& curve, Point base);

  [[nodiscard]] const Point& base() const { return base_; }

  /// k·B for 0 <= k < 16^rows (every scalar mod q fits); a negative or
  /// wider k takes Curve::mul's wNAF. Counted as
  /// ec_scalar_muls_total{path="fixed_base"}.
  [[nodiscard]] Point mul(const BigInt& k) const;

  /// s·B − e·P == R for the base P of `p`, a table on the same curve,
  /// decided without a field inversion: the mixed additions of s·B from this
  /// table and of −e·P from `p` run into one Jacobian accumulator, and the
  /// result (X, Y, Z) is compared with the affine R as X = x_R·Z²,
  /// Y = y_R·Z³. The same verdict as mul(s) == R + p.mul(e) for every
  /// input. This is Schnorr Verify's equation; it counts two fixed_base
  /// multiplications.
  [[nodiscard]] bool mul_sub_equals(const BigInt& s, const FixedBase& p, const BigInt& e,
                                    const Point& r) const;

 private:
  /// 0 <= k < 16^rows_: k's nibbles all index table rows.
  [[nodiscard]] bool in_table(const BigInt& k) const;

  const Curve* curve_;
  Point base_;
  std::size_t rows_;
  std::vector<Point> entries_;  // rows_ × 15, never infinity
};

}  // namespace sp::ec
