#include "field/fp.hpp"

#include <gtest/gtest.h>

namespace sp::field {
namespace {

using crypto::BigInt;
using crypto::Drbg;

FpCtxPtr small_field() { return make_fp(BigInt{23}); }  // 23 ≡ 3 (mod 4)

FpCtxPtr big_field() {
  // secp256k1 field prime, ≡ 3 (mod 4).
  return make_fp(BigInt::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
}

TEST(FpCtx, RejectsBadModulus) {
  EXPECT_THROW(make_fp(BigInt{4}), std::invalid_argument);   // even
  EXPECT_THROW(make_fp(BigInt{1}), std::invalid_argument);   // too small
  EXPECT_THROW(make_fp(BigInt{-7}), std::invalid_argument);  // negative
}

TEST(FpCtx, Properties) {
  auto f = small_field();
  EXPECT_EQ(f->p(), BigInt{23});
  EXPECT_EQ(f->byte_length(), 1u);
  EXPECT_TRUE(f->p_is_3_mod_4());
  EXPECT_FALSE(make_fp(BigInt{13})->p_is_3_mod_4());
}

TEST(Fp, CanonicalReduction) {
  auto f = small_field();
  EXPECT_EQ(Fp(f, BigInt{25}).value(), BigInt{2});
  EXPECT_EQ(Fp(f, BigInt{-1}).value(), BigInt{22});
  EXPECT_EQ(Fp(f, BigInt{23}).value(), BigInt{0});
}

TEST(Fp, ArithmeticSmall) {
  auto f = small_field();
  const Fp a(f, BigInt{17}), b(f, BigInt{9});
  EXPECT_EQ((a + b).value(), BigInt{3});
  EXPECT_EQ((a - b).value(), BigInt{8});
  EXPECT_EQ((b - a).value(), BigInt{15});
  EXPECT_EQ((a * b).value(), BigInt{153 % 23});
  EXPECT_EQ((-a).value(), BigInt{6});
  EXPECT_EQ((-Fp::zero(f)).value(), BigInt{0});
}

TEST(Fp, InverseAndPow) {
  auto f = big_field();
  Drbg rng("fp-inv");
  for (int i = 0; i < 20; ++i) {
    const Fp a = Fp::random_nonzero(f, rng);
    EXPECT_EQ(a * a.inv(), Fp::one(f));
    EXPECT_EQ(a.pow(f->p() - BigInt{1}), Fp::one(f));  // Fermat
    EXPECT_EQ(a.pow(BigInt{0}), Fp::one(f));
    EXPECT_EQ(a.pow(BigInt{-1}), a.inv());
  }
  EXPECT_THROW((void)Fp::zero(f).inv(), std::domain_error);
}

TEST(Fp, LegendreAndSqrt3Mod4) {
  auto f = big_field();
  Drbg rng("fp-sqrt");
  for (int i = 0; i < 20; ++i) {
    const Fp a = Fp::random_nonzero(f, rng);
    const Fp sq = a * a;
    EXPECT_EQ(sq.legendre(), 1);
    const Fp r = sq.sqrt();
    EXPECT_TRUE(r == a || r == -a);
    EXPECT_EQ(r * r, sq);
  }
}

TEST(Fp, SqrtNonResidueThrows) {
  auto f = small_field();
  // 5 is a non-residue mod 23 (residues: 1,2,3,4,6,8,9,12,13,16,18).
  EXPECT_EQ(Fp(f, BigInt{5}).legendre(), -1);
  EXPECT_THROW((void)Fp(f, BigInt{5}).sqrt(), std::domain_error);
}

TEST(Fp, TonelliShanksGeneralPrime) {
  // p = 13 ≡ 1 (mod 4) exercises the general Tonelli–Shanks path.
  auto f = make_fp(BigInt{13});
  for (int v = 1; v < 13; ++v) {
    const Fp a(f, BigInt{v});
    const Fp sq = a * a;
    const Fp r = sq.sqrt();
    EXPECT_EQ(r * r, sq) << "v=" << v;
  }
}

TEST(Fp, BytesRoundTrip) {
  auto f = big_field();
  Drbg rng("fp-bytes");
  const Fp a = Fp::random(f, rng);
  EXPECT_EQ(a.to_bytes().size(), 32u);
  EXPECT_EQ(Fp::from_bytes(f, a.to_bytes()), a);
}

TEST(Fp, MixedFieldOperationThrows) {
  const Fp a(small_field(), BigInt{1});
  const Fp b(big_field(), BigInt{1});
  EXPECT_THROW(a + b, std::logic_error);
  EXPECT_THROW(a * b, std::logic_error);
}

TEST(Fp, SameModulusDifferentCtxInstancesInterop) {
  // Two separately created contexts with equal p must interoperate.
  const Fp a(make_fp(BigInt{23}), BigInt{5});
  const Fp b(make_fp(BigInt{23}), BigInt{7});
  EXPECT_EQ((a + b).value(), BigInt{12});
}

TEST(Fp, RandomIsWellDistributed) {
  auto f = small_field();
  Drbg rng("fp-dist");
  bool seen[23] = {};
  for (int i = 0; i < 1000; ++i) seen[Fp::random(f, rng).value().low_u64()] = true;
  for (int v = 0; v < 23; ++v) EXPECT_TRUE(seen[v]) << v;
}

// Field axioms over random elements for each preset modulus size.
class FpAxioms : public ::testing::TestWithParam<const char*> {};

TEST_P(FpAxioms, Hold) {
  auto f = make_fp(BigInt::from_dec(GetParam()));
  Drbg rng(std::string("fp-axioms-") + GetParam());
  const Fp a = Fp::random(f, rng), b = Fp::random(f, rng), c = Fp::random(f, rng);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a + (-a), Fp::zero(f));
  EXPECT_EQ(a * Fp::one(f), a);
}

INSTANTIATE_TEST_SUITE_P(Moduli, FpAxioms,
                         ::testing::Values("23", "1000000007", "998244353",
                                           "170141183460469231731687303715884105727"));

}  // namespace
}  // namespace sp::field
