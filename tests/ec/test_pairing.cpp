// Pairing correctness: bilinearity, non-degeneracy, and the BSW07 identities
// CP-ABE depends on, across toy and test parameter sizes.
#include "ec/pairing.hpp"

#include <gtest/gtest.h>

#include "ec/params.hpp"
#include "support/presets.hpp"

namespace sp::ec {
namespace {

using crypto::BigInt;
using crypto::Drbg;
using field::Fp2;

class PairingTest : public ::testing::TestWithParam<ParamPreset> {
 protected:
  PairingTest() : curve_(preset_params(GetParam())), pairing_(curve_), rng_("pairing-tests") {}

  BigInt rand_scalar() {
    return BigInt::random_below(curve_.order(), [this](std::size_t n) { return rng_.bytes(n); });
  }

  Curve curve_;
  Pairing pairing_;
  Drbg rng_;
};

TEST_P(PairingTest, NonDegenerateSelfPairing) {
  const Point g = curve_.random_group_element(rng_);
  const Fp2 e = pairing_(g, g);
  EXPECT_FALSE(e.is_one());
  EXPECT_FALSE(e.is_zero());
  // Target group element has order dividing q.
  EXPECT_TRUE(e.pow(curve_.order()).is_one());
}

TEST_P(PairingTest, InfinityMapsToOne) {
  const Point g = curve_.random_group_element(rng_);
  EXPECT_TRUE(pairing_(g, Point{}).is_one());
  EXPECT_TRUE(pairing_(Point{}, g).is_one());
}

TEST_P(PairingTest, BilinearInFirstArgument) {
  const Point g = curve_.random_group_element(rng_);
  const Point h = curve_.random_group_element(rng_);
  const BigInt a = rand_scalar();
  EXPECT_EQ(pairing_(curve_.mul(g, a), h), pairing_(g, h).pow(a));
}

TEST_P(PairingTest, BilinearInSecondArgument) {
  const Point g = curve_.random_group_element(rng_);
  const Point h = curve_.random_group_element(rng_);
  const BigInt b = rand_scalar();
  EXPECT_EQ(pairing_(g, curve_.mul(h, b)), pairing_(g, h).pow(b));
}

TEST_P(PairingTest, FullBilinearity) {
  // e(g^a, g^b) = e(g, g)^(ab) — the identity every CP-ABE step uses.
  const Point g = curve_.random_group_element(rng_);
  const BigInt a = rand_scalar();
  const BigInt b = rand_scalar();
  const Fp2 lhs = pairing_(curve_.mul(g, a), curve_.mul(g, b));
  const Fp2 rhs = pairing_(g, g).pow(BigInt::mod_mul(a, b, curve_.order()));
  EXPECT_EQ(lhs, rhs);
}

TEST_P(PairingTest, AdditiveInFirstArgument) {
  // e(P + Q, R) = e(P, R) · e(Q, R).
  const Point p = curve_.random_group_element(rng_);
  const Point q = curve_.random_group_element(rng_);
  const Point r = curve_.random_group_element(rng_);
  EXPECT_EQ(pairing_(curve_.add(p, q), r), pairing_(p, r) * pairing_(q, r));
}

TEST_P(PairingTest, NegationInvertsPairing) {
  const Point g = curve_.random_group_element(rng_);
  const Point h = curve_.random_group_element(rng_);
  const Fp2 e = pairing_(g, h);
  EXPECT_EQ(pairing_(curve_.negate(g), h), e.inv());
}

TEST_P(PairingTest, DecryptNodeIdentity) {
  // The CP-ABE DecryptNode step computes e(D_j, C_x) / e(D_j', C_x') and
  // relies on e(g^r · H(j)^{r_j}, g^{q_x}) / e(g^{r_j}, H(j)^{q_x})
  //         = e(g, g)^{r · q_x}.
  const Point g = curve_.random_group_element(rng_);
  const Point hj = curve_.hash_to_group(crypto::to_bytes("attr"));
  const BigInt r = rand_scalar();
  const BigInt rj = rand_scalar();
  const BigInt qx = rand_scalar();

  const Point d = curve_.add(curve_.mul(g, r), curve_.mul(hj, rj));  // g^r · H(j)^{rj}
  const Point dp = curve_.mul(g, rj);                                // g^{rj}
  const Point cx = curve_.mul(g, qx);                                // g^{qx}
  const Point cxp = curve_.mul(hj, qx);                              // H(j)^{qx}

  const Fp2 num = pairing_(d, cx);
  const Fp2 den = pairing_(dp, cxp);
  const Fp2 expected = pairing_(g, g).pow(BigInt::mod_mul(r, qx, curve_.order()));
  EXPECT_EQ(num * den.inv(), expected);
}

TEST_P(PairingTest, RejectsOffCurveInput) {
  const Point g = curve_.random_group_element(rng_);
  const Point bogus(g.x(), g.y() + field::Fp::one(curve_.fp()));
  EXPECT_THROW((void)pairing_(bogus, g), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Presets, PairingTest,
                         ::testing::Values(ParamPreset::kToy, ParamPreset::kTest));

}  // namespace
}  // namespace sp::ec
