#include "sig/schnorr.hpp"

#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"

namespace sp::sig {

// FixedBase rejects an infinity or off-curve generator.
Schnorr::Schnorr(const ec::Curve& curve, ec::Point generator)
    : curve_(&curve), g_(curve, std::move(generator)) {}

KeyPair Schnorr::keygen(crypto::Drbg& rng) const {
  auto rb = [&rng](std::size_t n) { return rng.bytes(n); };
  BigInt x = BigInt::random_below(curve_->order() - BigInt{1}, rb) + BigInt{1};
  return KeyPair{x, g_.mul(x)};
}

BigInt Schnorr::challenge(const ec::Point& r, const ec::Point& pk,
                          std::span<const std::uint8_t> msg) const {
  crypto::Sha256 h;
  h.update(curve_->serialize(r));
  h.update(curve_->serialize(pk));
  h.update(msg);
  auto digest = h.finish();
  return BigInt::from_bytes(digest).mod(curve_->order());
}

Signature Schnorr::sign(const KeyPair& kp, std::span<const std::uint8_t> msg) const {
  // Deterministic nonce: k = HMAC(sk, msg) expanded until < q (never reuse a
  // nonce across distinct messages — the classic Schnorr key-recovery trap).
  const crypto::SecretBytes sk_bytes{kp.secret.to_bytes(curve_->fp()->byte_length())};
  Bytes stretch = crypto::hmac_sha256(sk_bytes.span(), msg);
  BigInt k;
  for (std::uint8_t ctr = 0;; ++ctr) {
    Bytes salted = stretch;
    salted.push_back(ctr);
    Bytes wide = crypto::hmac_sha256(sk_bytes.span(), salted);
    Bytes wide2 = crypto::hmac_sha256(sk_bytes.span(), wide);
    wide.insert(wide.end(), wide2.begin(), wide2.end());
    k = BigInt::from_bytes(wide).mod(curve_->order());
    crypto::secure_wipe(salted);
    crypto::secure_wipe(wide);
    crypto::secure_wipe(wide2);
    if (!k.is_zero()) break;
  }
  crypto::secure_wipe(stretch);
  const ec::Point r = g_.mul(k);
  const BigInt e = challenge(r, kp.public_key, msg);
  const BigInt s = (k + e * kp.secret).mod(curve_->order());
  // A recovered nonce recovers the signing key: wipe it the moment s exists.
  k.wipe();
  return Signature{r, s};
}

bool Schnorr::verify(const ec::FixedBase& public_key, std::span<const std::uint8_t> msg,
                     const Signature& sig) const {
  if (sig.r.is_infinity() || !curve_->on_curve(sig.r)) return false;
  if (sig.s.is_negative() || sig.s >= curve_->order()) return false;
  const BigInt e = challenge(sig.r, public_key.base(), msg);
  // g^s == R + e·pk, checked as g^s − e·pk == R.
  return g_.mul_sub_equals(sig.s, public_key, e, sig.r);
}

Bytes Schnorr::serialize(const Signature& sig) const {
  Bytes out = curve_->serialize(sig.r);
  Bytes s = sig.s.to_bytes(curve_->fp()->byte_length());
  out.insert(out.end(), s.begin(), s.end());
  return out;
}

Bytes Schnorr::serialize_public(const ec::Point& pk) const { return curve_->serialize(pk); }

ec::Point Schnorr::deserialize_public(std::span<const std::uint8_t> data) const {
  return curve_->deserialize(data);
}

Signature Schnorr::deserialize(std::span<const std::uint8_t> data) const {
  const std::size_t flen = curve_->fp()->byte_length();
  const std::size_t point_len = 1 + 2 * flen;
  if (data.size() != point_len + flen) {
    throw std::invalid_argument("Schnorr::deserialize: bad length");
  }
  Signature sig;
  sig.r = curve_->deserialize(data.first(point_len));
  sig.s = BigInt::from_bytes(data.subspan(point_len));
  return sig;
}

}  // namespace sp::sig
