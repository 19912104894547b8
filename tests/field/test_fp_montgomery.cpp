#include "field/fp.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace sp::field {
namespace {

using crypto::BigInt;
using crypto::Drbg;

// Fp keeps its elements in Montgomery form on inline limbs: CIOS multiply,
// fixed-window pow, binary-Euclid inversion. These suites pin each against
// plain BigInt arithmetic (schoolbook multiply + Knuth-D mod, extended
// Euclid). Mersenne primes give odd prime moduli at several widths without
// pulling in the ec parameter search.
FpCtxPtr field_127() { return make_fp((BigInt{1} << 127) - BigInt{1}); }
// 2^512 − 569, the largest prime below 2^512: the widest modulus an element
// can hold, like the kFull preset.
FpCtxPtr field_512() { return make_fp((BigInt{1} << 512) - BigInt{569}); }

TEST(FpMontgomery, RejectsModuliWiderThan512Bits) {
  EXPECT_EQ(field_512()->byte_length(), 64u);
  EXPECT_THROW(make_fp((BigInt{1} << 521) - BigInt{1}), std::invalid_argument);
  EXPECT_THROW(make_fp((BigInt{1} << 1279) - BigInt{1}), std::invalid_argument);
}

TEST(FpMontgomery, ContextsAreInternedPerModulus) {
  EXPECT_EQ(field_127(), field_127());
  EXPECT_NE(field_127(), field_512());
}

TEST(FpMontgomery, MulMatchesModMul1k) {
  for (const FpCtxPtr ctx : {field_127(), field_512()}) {
    Drbg rng("fp-mont-mul");
    for (int i = 0; i < 500; ++i) {
      const Fp a = Fp::random(ctx, rng);
      const Fp b = Fp::random(ctx, rng);
      EXPECT_EQ((a * b).value(), BigInt::mod_mul(a.value(), b.value(), ctx->p()))
          << "i=" << i << " a=" << a.value().to_hex() << " b=" << b.value().to_hex();
    }
  }
}

TEST(FpMontgomery, AddSubNegMatchBigInt) {
  const FpCtxPtr ctx = field_512();
  const BigInt& p = ctx->p();
  Drbg rng("fp-mont-add");
  for (int i = 0; i < 200; ++i) {
    const Fp a = Fp::random(ctx, rng);
    const Fp b = Fp::random(ctx, rng);
    EXPECT_EQ((a + b).value(), (a.value() + b.value()).mod(p)) << "i=" << i;
    EXPECT_EQ((a - b).value(), (a.value() - b.value()).mod(p)) << "i=" << i;
    EXPECT_EQ((-a).value(), (-a.value()).mod(p)) << "i=" << i;
  }
  const Fp top(ctx, p - BigInt{1});
  EXPECT_TRUE((top + Fp::one(ctx)).is_zero());
  EXPECT_EQ((Fp::zero(ctx) - Fp::one(ctx)), top);
}

TEST(FpMontgomery, PowMatchesModPow) {
  const FpCtxPtr ctx = field_127();
  Drbg rng("fp-mont-pow");
  for (int i = 0; i < 100; ++i) {
    const Fp base = Fp::random(ctx, rng);
    const BigInt exp = BigInt::from_bytes(rng.bytes(1 + i % 48));
    EXPECT_EQ(base.pow(exp).value(), BigInt::mod_pow(base.value(), exp, ctx->p()))
        << "i=" << i;
    EXPECT_EQ(ctx->pow_mod(base.value(), exp), base.pow(exp).value()) << "i=" << i;
  }
}

TEST(FpMontgomery, PowModWideFieldSpotChecks) {
  const FpCtxPtr ctx = field_512();
  Drbg rng("fp-mont-pow-512");
  for (int i = 0; i < 10; ++i) {
    const Fp base = Fp::random(ctx, rng);
    const BigInt exp = BigInt::from_bytes(rng.bytes(20));
    EXPECT_EQ(base.pow(exp).value(), BigInt::mod_pow(base.value(), exp, ctx->p()))
        << "i=" << i;
  }
}

TEST(FpMontgomery, BinaryInversionMatchesModInv) {
  for (const FpCtxPtr ctx : {field_127(), field_512()}) {
    Drbg rng("fp-mont-inv");
    for (int i = 0; i < 200; ++i) {
      const Fp a = Fp::random_nonzero(ctx, rng);
      const Fp inv = a.inv();
      EXPECT_EQ(inv.value(), BigInt::mod_inv(a.value(), ctx->p())) << "i=" << i;
      EXPECT_EQ(a * inv, Fp::one(ctx));
    }
    // Edge residues: 1, 2 and p − 1 are their own or trivially checked inverses.
    EXPECT_EQ(Fp::one(ctx).inv(), Fp::one(ctx));
    const Fp minus_one(ctx, ctx->p() - BigInt{1});
    EXPECT_EQ(minus_one.inv(), minus_one);
    const Fp two(ctx, BigInt{2});
    EXPECT_EQ(two * two.inv(), Fp::one(ctx));
    EXPECT_THROW((void)Fp::zero(ctx).inv(), std::domain_error);
    EXPECT_THROW((void)Fp(ctx, ctx->p()).inv(), std::domain_error);  // ≡ 0 mod p
  }
}

TEST(FpMontgomery, FpInvRoundTrips) {
  const FpCtxPtr ctx = field_127();
  Drbg rng("fp-inv-consistency");
  for (int i = 0; i < 100; ++i) {
    const Fp a = Fp::random_nonzero(ctx, rng);
    EXPECT_EQ((a * a.inv()).value(), BigInt{1});
  }
}

TEST(FpMontgomery, WipeZeroisesTheElement) {
  Drbg rng("fp-wipe");
  Fp a = Fp::random_nonzero(field_512(), rng);
  a.wipe();
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(a, Fp::zero(field_512()));
}

}  // namespace
}  // namespace sp::field
