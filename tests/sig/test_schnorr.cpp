#include "sig/schnorr.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "ec/params.hpp"

namespace sp::sig {
namespace {

using crypto::Drbg;
using crypto::to_bytes;

class SchnorrTest : public ::testing::Test {
 protected:
  SchnorrTest()
      : curve_(ec::preset_params(ec::ParamPreset::kToy)),
        scheme_(curve_, curve_.hash_to_group(to_bytes("sp-schnorr-g"))),
        rng_("schnorr-tests") {}

  /// The verifier's table of a signer's public key.
  [[nodiscard]] ec::FixedBase table_of(const ec::Point& pk) const {
    return ec::FixedBase(curve_, pk);
  }

  ec::Curve curve_;
  Schnorr scheme_;
  Drbg rng_;
};

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  const KeyPair kp = scheme_.keygen(rng_);
  const auto msg = to_bytes("https://dh.example/objects/42 | K_Z=abcdef");
  const Signature sig = scheme_.sign(kp, msg);
  EXPECT_TRUE(scheme_.verify(table_of(kp.public_key), msg, sig));
}

TEST_F(SchnorrTest, RejectsWrongMessage) {
  const KeyPair kp = scheme_.keygen(rng_);
  const Signature sig = scheme_.sign(kp, to_bytes("original URL"));
  EXPECT_FALSE(scheme_.verify(table_of(kp.public_key), to_bytes("tampered URL"), sig));
}

TEST_F(SchnorrTest, RejectsWrongKey) {
  const KeyPair kp = scheme_.keygen(rng_);
  const KeyPair other = scheme_.keygen(rng_);
  const auto msg = to_bytes("message");
  const Signature sig = scheme_.sign(kp, msg);
  EXPECT_FALSE(scheme_.verify(table_of(other.public_key), msg, sig));
}

TEST_F(SchnorrTest, RejectsMalleatedSignature) {
  const KeyPair kp = scheme_.keygen(rng_);
  const auto msg = to_bytes("message");
  Signature sig = scheme_.sign(kp, msg);
  sig.s = (sig.s + crypto::BigInt{1}).mod(curve_.order());
  EXPECT_FALSE(scheme_.verify(table_of(kp.public_key), msg, sig));
}

TEST_F(SchnorrTest, RejectsOutOfRangeS) {
  const KeyPair kp = scheme_.keygen(rng_);
  const auto msg = to_bytes("message");
  Signature sig = scheme_.sign(kp, msg);
  sig.s = sig.s + curve_.order();  // same residue, non-canonical encoding
  EXPECT_FALSE(scheme_.verify(table_of(kp.public_key), msg, sig));
}

TEST_F(SchnorrTest, DeterministicNonces) {
  // Same key + message → identical signature (RFC 6979 style); different
  // messages → different commitments (nonce reuse would leak the key).
  const KeyPair kp = scheme_.keygen(rng_);
  const Signature s1 = scheme_.sign(kp, to_bytes("m1"));
  const Signature s2 = scheme_.sign(kp, to_bytes("m1"));
  const Signature s3 = scheme_.sign(kp, to_bytes("m2"));
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
  EXPECT_NE(s1.r, s3.r);
}

TEST_F(SchnorrTest, SerializeRoundTrip) {
  const KeyPair kp = scheme_.keygen(rng_);
  const auto msg = to_bytes("message");
  const Signature sig = scheme_.sign(kp, msg);
  const Signature back = scheme_.deserialize(scheme_.serialize(sig));
  EXPECT_EQ(back.r, sig.r);
  EXPECT_EQ(back.s, sig.s);
  EXPECT_TRUE(scheme_.verify(table_of(kp.public_key), msg, back));
}

TEST_F(SchnorrTest, DeserializeRejectsBadLength) {
  EXPECT_THROW(scheme_.deserialize(crypto::Bytes(7, 0)), std::invalid_argument);
}

TEST_F(SchnorrTest, RejectsInfinityGenerator) {
  EXPECT_THROW(Schnorr(curve_, ec::Point{}), std::invalid_argument);
}

TEST_F(SchnorrTest, EmptyMessageSignable) {
  const KeyPair kp = scheme_.keygen(rng_);
  const Signature sig = scheme_.sign(kp, {});
  EXPECT_TRUE(scheme_.verify(table_of(kp.public_key), {}, sig));
}

// Verify decides g^s = R + e·pk as one inversion-free combination of the
// generator's table and the key's table. The oracle is the affine equation
// behind the same range check, computed with mul_binary and add.
class SchnorrVerifyOracle : public SchnorrTest {
 protected:
  [[nodiscard]] bool affine_verify(const ec::Point& pk, const crypto::Bytes& msg,
                                   const Signature& sig) const {
    if (sig.s.is_negative() || sig.s >= curve_.order()) return false;
    crypto::Sha256 h;
    h.update(curve_.serialize(sig.r));
    h.update(curve_.serialize(pk));
    h.update(msg);
    const crypto::BigInt e = crypto::BigInt::from_bytes(h.finish()).mod(curve_.order());
    return curve_.mul_binary(scheme_.generator(), sig.s) ==
           curve_.add(sig.r, curve_.mul_binary(pk, e));
  }
};

TEST_F(SchnorrVerifyOracle, AgreesWithTheAffineEquationOnRandomDraws) {
  for (int i = 0; i < 128; ++i) {
    const KeyPair kp = scheme_.keygen(rng_);
    const KeyPair other = scheme_.keygen(rng_);
    const crypto::Bytes msg = rng_.bytes(1 + i % 40);
    crypto::Bytes other_msg = msg;
    other_msg.back() ^= 0x01;
    const Signature sig = scheme_.sign(kp, msg);
    Signature bumped = sig;
    bumped.s = (sig.s + crypto::BigInt{1}).mod(curve_.order());
    Signature negated = sig;
    negated.r = curve_.negate(sig.r);
    struct Case {
      const char* name;
      const ec::FixedBase& key;
      const crypto::Bytes& msg;
      const Signature& sig;
      bool valid;
    };
    const ec::FixedBase key = table_of(kp.public_key);
    const ec::FixedBase other_key = table_of(other.public_key);
    const Case cases[] = {
        {"valid", key, msg, sig, true},
        {"s+1", key, msg, bumped, false},
        {"other message", key, other_msg, sig, false},
        {"other key", other_key, msg, sig, false},
        {"-R", key, msg, negated, false},
    };
    for (const Case& c : cases) {
      const bool verdict = scheme_.verify(c.key, c.msg, c.sig);
      EXPECT_EQ(verdict, c.valid) << c.name << " i=" << i;
      EXPECT_EQ(verdict, affine_verify(c.key.base(), c.msg, c.sig)) << c.name << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace sp::sig
