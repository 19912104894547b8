#include "field/fp.hpp"

#include <map>
#include <memory>
#include <stdexcept>

#include "crypto/secret.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::field {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
constexpr std::size_t kLimbs = FpCtx::kMaxLimbs;

// Addition and subtraction run over all kLimbs limbs, branch-free: limbs
// past the modulus width are zero in both operands and in p, so the extra
// limbs only carry the (n+1)-th bit and otherwise stay zero.

/// out = a + b mod p for a, b < p.
void add_mod(const u64* a, const u64* b, const u64* p, u64* out) {
  u64 sum[kLimbs];
  u64 carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    sum[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  u64 reduced[kLimbs];
  u64 borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 d = static_cast<u128>(sum[i]) - p[i] - borrow;
    reduced[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // sum >= p iff the addition carried out or subtracting p did not borrow.
  const bool ge = carry != 0 || borrow == 0;
  for (std::size_t i = 0; i < kLimbs; ++i) out[i] = ge ? reduced[i] : sum[i];
}

/// out = a − b mod p for a, b < p.
void sub_mod(const u64* a, const u64* b, const u64* p, u64* out) {
  u64 diff[kLimbs];
  u64 borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    diff[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 mask = 0 - borrow;  // add p back iff a < b
  u64 carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 s = static_cast<u128>(diff[i]) + (p[i] & mask) + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
}

// Interned contexts, one per modulus, leaked on purpose: elements hold a
// raw pointer to their context, so a context must outlive every element.
struct FpCtxRegistry {
  sp::Mutex mutex;
  std::map<BigInt, std::unique_ptr<const FpCtx>> by_modulus SP_GUARDED_BY(mutex);

  static FpCtxRegistry& get() {
    static FpCtxRegistry* const instance = new FpCtxRegistry();  // leaked on purpose
    return *instance;
  }
};

}  // namespace

FpCtxPtr make_fp(const BigInt& p) {
  if (p <= BigInt{2} || !p.is_odd()) {
    throw std::invalid_argument("make_fp: modulus must be an odd prime > 2");
  }
  if (p.bit_length() > 64 * FpCtx::kMaxLimbs) {
    throw std::invalid_argument("make_fp: modulus wider than 512 bits");
  }
  FpCtxRegistry& reg = FpCtxRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  std::unique_ptr<const FpCtx>& slot = reg.by_modulus[p];
  if (!slot) slot.reset(new FpCtx(p));
  return slot.get();
}

FpCtx::FpCtx(const BigInt& p)
    : p_(p),
      mont_(p),
      byte_len_((p.bit_length() + 7) / 8),
      p3mod4_((p % BigInt{4}) == BigInt{3}) {
  const Bytes be = p.to_bytes(8 * kLimbs);
  for (std::size_t i = 0; i < be.size(); ++i) {
    p_limbs_[i / 8] |= static_cast<u64>(be[be.size() - 1 - i]) << (8 * (i % 8));
  }
  mont_.to_mont_raw(BigInt{1}, one_.data());
}

BigInt FpCtx::pow_mod(const BigInt& base, const BigInt& exp) const { return mont_.pow(base, exp); }

Fp::Fp(FpCtxPtr ctx, const BigInt& value) : ctx_(ctx) {
  if (!ctx_) throw std::invalid_argument("Fp: null field context");
  mont().to_mont_raw(value, v_.data());
}

const crypto::MontCtx& Fp::mont() const { return ctx_->mont_; }
const std::uint64_t* Fp::p_limbs() const { return ctx_->p_limbs_.data(); }

Fp Fp::zero(FpCtxPtr ctx) {
  if (!ctx) throw std::invalid_argument("Fp: null field context");
  return Fp(ctx);
}

Fp Fp::one(FpCtxPtr ctx) {
  Fp r = zero(ctx);
  r.v_ = ctx->one_;
  return r;
}

Fp Fp::random(FpCtxPtr ctx, crypto::Drbg& rng) {
  if (!ctx) throw std::invalid_argument("Fp: null field context");
  return Fp(ctx, BigInt::random_below(ctx->p(), [&rng](std::size_t n) { return rng.bytes(n); }));
}

Fp Fp::random_nonzero(FpCtxPtr ctx, crypto::Drbg& rng) {
  for (;;) {
    Fp v = random(ctx, rng);
    if (!v.is_zero()) return v;
  }
}

Fp Fp::from_bytes(FpCtxPtr ctx, std::span<const std::uint8_t> data) {
  return Fp(ctx, BigInt::from_bytes(data));
}

BigInt Fp::value() const {
  if (!ctx_) return BigInt{};
  return mont().from_mont_raw(v_.data());
}

Bytes Fp::to_bytes() const {
  if (!ctx_) throw std::logic_error("Fp::to_bytes: null element");
  return value().to_bytes(ctx_->byte_length());
}

void Fp::require_same_field(const Fp& other) const {
  if (ctx_ != nullptr && ctx_ == other.ctx_) return;
  if (!ctx_ || !other.ctx_) throw std::logic_error("Fp: operation on null element");
  throw std::logic_error("Fp: mixed-field operation");
}

Fp operator+(const Fp& a, const Fp& b) {
  a.require_same_field(b);
  Fp r(a.ctx_);
  add_mod(a.v_.data(), b.v_.data(), a.p_limbs(), r.v_.data());
  return r;
}

Fp operator-(const Fp& a, const Fp& b) {
  a.require_same_field(b);
  Fp r(a.ctx_);
  sub_mod(a.v_.data(), b.v_.data(), a.p_limbs(), r.v_.data());
  return r;
}

Fp operator*(const Fp& a, const Fp& b) {
  a.require_same_field(b);
  Fp r(a.ctx_);
  a.mont().mul_raw(a.v_.data(), b.v_.data(), r.v_.data());
  return r;
}

Fp Fp::operator-() const {
  if (!ctx_) throw std::logic_error("Fp: negate null element");
  Fp r(ctx_);
  sub_mod(r.v_.data(), v_.data(), p_limbs(), r.v_.data());  // 0 − x
  return r;
}

Fp Fp::inv() const {
  if (!ctx_) throw std::logic_error("Fp::inv: null element");
  if (is_zero()) throw std::domain_error("Fp::inv: zero has no inverse");
  Fp r(ctx_);
  mont().inv_raw(v_.data(), r.v_.data());
  return r;
}

Fp Fp::pow(const BigInt& e) const {
  if (!ctx_) throw std::logic_error("Fp::pow: null element");
  if (e.is_negative()) return inv().pow(-e);
  Fp r(ctx_);
  mont().pow_raw(v_.data(), e, r.v_.data());
  return r;
}

int Fp::legendre() const {
  if (!ctx_) throw std::logic_error("Fp::legendre: null element");
  if (is_zero()) return 0;
  return pow((ctx_->p() - BigInt{1}) >> 1) == one(ctx_) ? 1 : -1;
}

Fp Fp::sqrt() const {
  if (std::optional<Fp> root = sqrt_if_square()) return *root;
  throw std::domain_error("Fp::sqrt: not a quadratic residue");
}

std::optional<Fp> Fp::sqrt_if_square() const {
  if (!ctx_) throw std::logic_error("Fp::sqrt: null element");
  if (is_zero()) return *this;
  const BigInt& p = ctx_->p();
  Fp root;
  if (ctx_->p_is_3_mod_4()) {
    // r = y^((p+1)/4) squares to y · y^((p-1)/2) = y · (y/p) (Euler), so
    // r² = y exactly when y is a residue: one power decides and finds r.
    root = pow((p + BigInt{1}) >> 2);
    if (root * root != *this) return std::nullopt;
  } else {
    if (legendre() != 1) return std::nullopt;
    // Tonelli–Shanks. Write p-1 = q * 2^s with q odd.
    BigInt q = p - BigInt{1};
    std::size_t s = 0;
    while (!q.is_odd()) {
      q = q >> 1;
      ++s;
    }
    // Find a non-residue z deterministically.
    BigInt z{2};
    while (Fp(ctx_, z).legendre() != -1) z += BigInt{1};
    const Fp one = Fp::one(ctx_);
    std::size_t m = s;
    Fp c = Fp(ctx_, z).pow(q);
    Fp t = pow(q);
    root = pow((q + BigInt{1}) >> 1);
    while (t != one) {
      // Find least i with t^(2^i) = 1.
      std::size_t i = 0;
      for (Fp tt = t; tt != one; tt = tt * tt) ++i;
      Fp b = c;
      for (std::size_t j = 0; j + i + 1 < m; ++j) b = b * b;
      m = i;
      c = b * b;
      t = t * c;
      root = root * b;
    }
  }
  // Canonical: the smaller of the two roots.
  const Fp other = -root;
  return other.value() < root.value() ? other : root;
}

void Fp::wipe() noexcept { crypto::secure_wipe(v_.data(), sizeof(v_)); }

std::vector<Fp> batch_inv(std::span<const Fp> xs) {
  std::vector<Fp> out;
  if (xs.empty()) return out;
  for (const Fp& x : xs) {
    if (x.is_zero()) throw std::domain_error("batch_inv: zero element");
  }
  // prefix[i] = x_0 · … · x_i; one inversion of the total, then peel the
  // factors off back to front: x_i^{-1} = inv(x_0·…·x_i) · prefix[i-1].
  std::vector<Fp> prefix(xs.size());
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) prefix[i] = prefix[i - 1] * xs[i];
  Fp inv = prefix.back().inv();
  out.resize(xs.size());
  for (std::size_t i = xs.size(); i-- > 1;) {
    out[i] = inv * prefix[i - 1];
    inv = inv * xs[i];
  }
  out[0] = inv;
  for (Fp& x : prefix) x.wipe();
  return out;
}

}  // namespace sp::field
