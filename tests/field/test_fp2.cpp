#include "field/fp2.hpp"

#include <gtest/gtest.h>

namespace sp::field {
namespace {

using crypto::BigInt;
using crypto::Drbg;

FpCtxPtr f() { return make_fp(BigInt{23}); }

FpCtxPtr big() {
  return make_fp(BigInt::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
}

TEST(Fp2, ConstructionAndIdentity) {
  auto ctx = f();
  EXPECT_TRUE(Fp2::zero(ctx).is_zero());
  EXPECT_TRUE(Fp2::one(ctx).is_one());
  EXPECT_FALSE(Fp2::one(ctx).is_zero());
  EXPECT_FALSE(Fp2::zero(ctx).is_one());
}

TEST(Fp2, ISquaredIsMinusOne) {
  auto ctx = f();
  const Fp2 i(Fp::zero(ctx), Fp::one(ctx));
  EXPECT_EQ(i * i, Fp2(-Fp::one(ctx), Fp::zero(ctx)));
}

TEST(Fp2, KnownProduct) {
  auto ctx = f();
  // (2 + 3i)(4 + 5i) = 8 + 10i + 12i + 15i² = −7 + 22i = 16 + 22i (mod 23)
  const Fp2 a(Fp(ctx, BigInt{2}), Fp(ctx, BigInt{3}));
  const Fp2 b(Fp(ctx, BigInt{4}), Fp(ctx, BigInt{5}));
  const Fp2 prod = a * b;
  EXPECT_EQ(prod.re().value(), BigInt{16});
  EXPECT_EQ(prod.im().value(), BigInt{22});
}

TEST(Fp2, ConjAndNorm) {
  auto ctx = f();
  const Fp2 a(Fp(ctx, BigInt{2}), Fp(ctx, BigInt{3}));
  EXPECT_EQ(a.conj(), Fp2(Fp(ctx, BigInt{2}), Fp(ctx, BigInt{20})));
  EXPECT_EQ(a.norm().value(), BigInt{13});  // 4 + 9
  // a · conj(a) = norm(a) embedded in Fp2.
  EXPECT_EQ(a * a.conj(), Fp2(a.norm()));
}

TEST(Fp2, InverseRoundTrip) {
  auto ctx = big();
  Drbg rng("fp2-inv");
  for (int i = 0; i < 20; ++i) {
    Fp2 a = Fp2::random(ctx, rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inv(), Fp2::one(ctx));
  }
  EXPECT_THROW((void)Fp2::zero(ctx).inv(), std::domain_error);
}

TEST(Fp2, PowMatchesRepeatedMul) {
  auto ctx = f();
  Drbg rng("fp2-pow");
  const Fp2 a = Fp2::random(ctx, rng);
  Fp2 acc = Fp2::one(ctx);
  for (int e = 0; e < 16; ++e) {
    EXPECT_EQ(a.pow(BigInt{e}), acc) << "e=" << e;
    acc = acc * a;
  }
}

TEST(Fp2, MultiplicativeGroupOrder) {
  // |F_{p²}*| = p² − 1; every nonzero element to that power is 1.
  auto ctx = big();
  Drbg rng("fp2-order");
  const BigInt p = ctx->p();
  const BigInt order = p * p - BigInt{1};
  for (int i = 0; i < 5; ++i) {
    Fp2 a = Fp2::random(ctx, rng);
    if (a.is_zero()) continue;
    EXPECT_TRUE(a.pow(order).is_one());
  }
}

TEST(Fp2, FrobeniusIsConjugation) {
  // For p ≡ 3 (mod 4): (a + bi)^p = a − bi. This identity is what the
  // pairing's final exponentiation relies on.
  auto ctx = big();
  Drbg rng("fp2-frob");
  for (int i = 0; i < 5; ++i) {
    const Fp2 a = Fp2::random(ctx, rng);
    EXPECT_EQ(a.pow(ctx->p()), a.conj());
  }
}

TEST(Fp2, BytesRoundTrip) {
  auto ctx = big();
  Drbg rng("fp2-bytes");
  const Fp2 a = Fp2::random(ctx, rng);
  const auto enc = a.to_bytes();
  EXPECT_EQ(enc.size(), 64u);
  EXPECT_EQ(Fp2::from_bytes(ctx, enc), a);
  EXPECT_THROW(Fp2::from_bytes(ctx, crypto::Bytes(63, 0)), std::invalid_argument);
}

TEST(Fp2, FieldAxioms) {
  auto ctx = big();
  Drbg rng("fp2-axioms");
  const Fp2 a = Fp2::random(ctx, rng), b = Fp2::random(ctx, rng), c = Fp2::random(ctx, rng);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a + (-a), Fp2::zero(ctx));
}

}  // namespace
}  // namespace sp::field
