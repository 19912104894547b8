// Prime field F_p arithmetic.
//
// Construction 1 runs Shamir secret sharing over F_p; Construction 2's
// pairing groups live on an elliptic curve over F_p. An element is a
// fixed-width value kept in Montgomery form — inline limbs, no heap — plus
// a non-owning pointer to its field's context. Contexts are interned per
// modulus and never freed, so no element can outlive its context and
// same-modulus contexts compare by pointer; mixed-field operations are
// caught early. Conversion to the canonical residue happens only at the
// edges: value(), to_bytes()/from_bytes() and construction from a BigInt.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/drbg.hpp"

namespace sp::field {

using crypto::BigInt;
using crypto::Bytes;

class FpCtx;
using FpCtxPtr = const FpCtx*;

/// Returns the process-wide context for modulus p, creating it on first use
/// (mutex-guarded, never evicted). Validates p > 2, p odd and p at most
/// FpCtx::kMaxLimbs limbs wide; throws std::invalid_argument otherwise.
FpCtxPtr make_fp(const BigInt& p);

/// Immutable modulus context shared by all elements of one field instance.
class FpCtx {
 public:
  /// Widest supported modulus in 64-bit limbs: 512 bits, the kFull preset.
  static constexpr std::size_t kMaxLimbs = 8;

  FpCtx(const FpCtx&) = delete;
  FpCtx& operator=(const FpCtx&) = delete;

  [[nodiscard]] const BigInt& p() const { return p_; }
  [[nodiscard]] std::size_t byte_length() const { return byte_len_; }
  /// True when p ≡ 3 (mod 4) — enables the fast square-root path and the
  /// i² = −1 representation of F_{p²}.
  [[nodiscard]] bool p_is_3_mod_4() const { return p3mod4_; }

  /// base^exp mod p on canonical values (exp >= 0).
  [[nodiscard]] BigInt pow_mod(const BigInt& base, const BigInt& exp) const;

 private:
  friend class Fp;
  friend FpCtxPtr make_fp(const BigInt& p);
  /// p must be an odd prime (primality is the caller's responsibility; use
  /// BigInt::is_probable_prime when constructing parameters).
  explicit FpCtx(const BigInt& p);

  BigInt p_;
  crypto::MontCtx mont_;
  std::array<std::uint64_t, kMaxLimbs> p_limbs_{};  ///< p, zero-padded
  std::array<std::uint64_t, kMaxLimbs> one_{};      ///< R mod p, the Montgomery 1
  std::size_t byte_len_;
  bool p3mod4_;
};

class Fp {
 public:
  Fp() = default;  // "null" element; usable only after assignment
  Fp(FpCtxPtr ctx, const BigInt& value);

  /// Additive / multiplicative identities.
  static Fp zero(FpCtxPtr ctx);
  static Fp one(FpCtxPtr ctx);
  /// Uniform random element.
  static Fp random(FpCtxPtr ctx, crypto::Drbg& rng);
  /// Uniform random non-zero element (for polynomial leading coefficients
  /// and blinding factors).
  static Fp random_nonzero(FpCtxPtr ctx, crypto::Drbg& rng);
  /// Maps arbitrary bytes into the field (mod p).
  static Fp from_bytes(FpCtxPtr ctx, std::span<const std::uint8_t> data);

  /// Canonical representative in [0, p) (0 for the null element).
  [[nodiscard]] BigInt value() const;
  [[nodiscard]] FpCtxPtr ctx() const { return ctx_; }
  [[nodiscard]] bool is_zero() const { return v_ == Limbs{}; }
  /// Fixed-width big-endian encoding (ctx byte length).
  [[nodiscard]] Bytes to_bytes() const;
  [[nodiscard]] std::string to_string() const { return value().to_dec(); }

  friend Fp operator+(const Fp& a, const Fp& b);
  friend Fp operator-(const Fp& a, const Fp& b);
  friend Fp operator*(const Fp& a, const Fp& b);
  Fp operator-() const;
  friend bool operator==(const Fp& a, const Fp& b) { return a.ctx_ == b.ctx_ && a.v_ == b.v_; }
  friend bool operator!=(const Fp& a, const Fp& b) { return !(a == b); }

  /// Multiplicative inverse (binary extended Euclid); throws
  /// std::domain_error on zero.
  [[nodiscard]] Fp inv() const;
  /// Exponentiation by a BigInt (negative exponents invert first).
  [[nodiscard]] Fp pow(const BigInt& e) const;
  /// Legendre symbol: +1 quadratic residue, -1 non-residue, 0 for zero.
  [[nodiscard]] int legendre() const;
  /// Square root (Tonelli–Shanks; fast path when p ≡ 3 mod 4). Throws
  /// std::domain_error if no root exists. Returns the canonical choice:
  /// the root with the smaller residue of r, p−r.
  [[nodiscard]] Fp sqrt() const;

  /// Zeroises the element's limbs (for secret polynomial coefficients and
  /// share ordinates). The element becomes 0 in-field, residue-free.
  void wipe() noexcept;

 private:
  using Limbs = std::array<std::uint64_t, FpCtx::kMaxLimbs>;

  /// Zero element of `ctx` (no validation; callers hold a checked context).
  explicit Fp(FpCtxPtr ctx) : ctx_(ctx) {}
  /// Throws std::logic_error unless both operands belong to one field.
  void require_same_field(const Fp& other) const;
  [[nodiscard]] const crypto::MontCtx& mont() const;
  [[nodiscard]] const std::uint64_t* p_limbs() const;

  FpCtxPtr ctx_ = nullptr;
  Limbs v_{};  // x·R mod p; limbs past the modulus width stay zero
};

/// Montgomery batch inversion: inverts every element for the cost of ONE
/// field inversion plus 3(n−1) multiplications (prefix products, invert the
/// total, back-substitute) — same trick as the Jacobian batch-normalization
/// in ec. Throws std::domain_error if any input is zero (nothing is
/// partially inverted). The prefix-product scratch is wiped before
/// returning, since callers feed it secret-derived values (Shamir share
/// abscissa differences). Returns {} for empty input.
std::vector<Fp> batch_inv(std::span<const Fp> xs);

}  // namespace sp::field
