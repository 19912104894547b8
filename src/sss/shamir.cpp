#include "sss/shamir.hpp"

#include <set>
#include <stdexcept>

#include "crypto/secret.hpp"

namespace sp::sss {

Shamir::Shamir(FpCtxPtr field) : field_(field), lagrange_(std::make_unique<LagrangeCache>()) {
  if (!field_) throw std::invalid_argument("Shamir: null field");
}

std::vector<Share> Shamir::split(const BigInt& secret, std::size_t k, std::size_t n,
                                 crypto::Drbg& rng) const {
  if (k == 0 || k > n) throw std::invalid_argument("Shamir::split: need 0 < k <= n");
  if (BigInt::from_u64(n) >= field_->p()) {
    throw std::invalid_argument("Shamir::split: n must be < p");
  }

  // Random polynomial P of degree k-1 with P(0) = secret.
  std::vector<Fp> coeffs;
  coeffs.reserve(k);
  coeffs.emplace_back(field_, secret);
  for (std::size_t i = 1; i < k; ++i) coeffs.push_back(Fp::random(field_, rng));

  // Random, distinct, non-zero abscissae.
  std::set<BigInt> used;
  std::vector<Share> shares;
  shares.reserve(n);
  while (shares.size() < n) {
    const Fp x = Fp::random_nonzero(field_, rng);
    if (!used.insert(x.value()).second) continue;
    // Horner evaluation.
    Fp y = coeffs.back();
    for (std::size_t i = coeffs.size() - 1; i-- > 0;) y = y * x + coeffs[i];
    shares.push_back(Share{x.value(), y.value()});
    y.wipe();
  }
  // The polynomial IS the secret (coeff 0 = M_O; the rest determine it given
  // k shares) — zeroise it before the vector's storage is freed.
  for (Fp& c : coeffs) c.wipe();
  return shares;
}

void Shamir::check_shares(std::span<const Share> shares) const {
  if (shares.empty()) throw std::invalid_argument("Shamir: no shares");
  std::set<BigInt> seen;
  for (const Share& s : shares) {
    if (!seen.insert(s.x.mod(field_->p())).second) {
      throw std::invalid_argument("Shamir: duplicate share abscissa");
    }
  }
}

BigInt Shamir::interpolate_at(std::span<const Share> shares, const BigInt& x) const {
  check_shares(shares);
  const Fp target(field_, x);
  std::vector<Fp> xs;
  xs.reserve(shares.size());
  for (const Share& s : shares) xs.emplace_back(field_, s.x);
  const std::vector<Fp> basis = lagrange_->basis(field_, xs, target);
  Fp acc = Fp::zero(field_);
  for (std::size_t j = 0; j < shares.size(); ++j) {
    Fp term = Fp(field_, shares[j].y) * basis[j];
    acc = acc + term;
    term.wipe();
  }
  return acc.value();
}

BigInt Shamir::interpolate_at_reference(std::span<const Share> shares, const BigInt& x) const {
  check_shares(shares);
  const Fp target(field_, x);
  Fp acc = Fp::zero(field_);
  for (std::size_t j = 0; j < shares.size(); ++j) {
    const Fp xj(field_, shares[j].x);
    Fp num = Fp::one(field_);
    Fp den = Fp::one(field_);
    for (std::size_t m = 0; m < shares.size(); ++m) {
      if (m == j) continue;
      const Fp xm(field_, shares[m].x);
      num = num * (target - xm);
      den = den * (xj - xm);
    }
    acc = acc + Fp(field_, shares[j].y) * num * den.inv();
  }
  return acc.value();
}

BigInt Shamir::reconstruct(std::span<const Share> shares) const {
  return interpolate_at(shares, BigInt{0});
}

Bytes Shamir::serialize(const Share& share) const {
  const std::size_t w = field_->byte_length();
  Bytes out = share.x.mod(field_->p()).to_bytes(w);
  Bytes y = share.y.mod(field_->p()).to_bytes(w);
  out.insert(out.end(), y.begin(), y.end());
  crypto::secure_wipe(y);
  return out;
}

Share Shamir::deserialize(std::span<const std::uint8_t> data) const {
  const std::size_t w = field_->byte_length();
  if (data.size() != 2 * w) throw std::invalid_argument("Shamir::deserialize: bad length");
  return Share{BigInt::from_bytes(data.first(w)), BigInt::from_bytes(data.subspan(w))};
}

}  // namespace sp::sss
