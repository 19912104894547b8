// Multi-pairing products (PR 7): ∏ e(P_i, Q_i)^{±e_i} with one Miller loop
// per pair and ONE shared final exponentiation must be byte-identical to the
// reference per-pairing products, including inverse terms (conjugation
// pre-FE) and exponents; plus the Miller-line table registry's hit path and
// FIFO cap.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "ec/pairing.hpp"
#include "ec/params.hpp"
#include "support/presets.hpp"

namespace sp::ec {
namespace {

using crypto::BigInt;
using crypto::Drbg;
using field::Fp2;

class MultiPairingTest : public ::testing::TestWithParam<ParamPreset> {
 protected:
  MultiPairingTest() : curve_(preset_params(GetParam())), pairing_(curve_), rng_("multi-pairing") {}

  BigInt rand_scalar() {
    return BigInt::random_below(curve_.order(), [this](std::size_t n) { return rng_.bytes(n); });
  }

  Point rand_point() { return curve_.random_group_element(rng_); }

  Curve curve_;
  Pairing pairing_;
  Drbg rng_;
};

TEST_P(MultiPairingTest, SinglePairMatchesReference) {
  const Point p = rand_point();
  const Point q = rand_point();
  const std::vector<Pairing::Term> terms = {{p, q}};
  EXPECT_EQ(pairing_.product(terms), pairing_.reference(p, q));
}

TEST_P(MultiPairingTest, ProductOfThreeMatchesReferenceProduct) {
  std::vector<Pairing::Term> terms;
  Fp2 expected = pairing_.one();
  for (int i = 0; i < 3; ++i) {
    const Point p = rand_point();
    const Point q = rand_point();
    terms.push_back({p, q});
    expected = expected * pairing_.reference(p, q);
  }
  EXPECT_EQ(pairing_.product(terms), expected);
}

TEST_P(MultiPairingTest, InverseTermsUseConjugationNotExtraFinalExp) {
  const Point a = rand_point();
  const Point b = rand_point();
  const Point c = rand_point();
  const Point d = rand_point();
  const std::vector<Pairing::Term> terms = {{a, b, /*inverse=*/false},
                                            {c, d, /*inverse=*/true}};
  const Fp2 expected = pairing_.reference(a, b) * pairing_.reference(c, d).inv();
  EXPECT_EQ(pairing_.product(terms), expected);
}

TEST_P(MultiPairingTest, PairAndItsInverseCancelToOne) {
  const Point p = rand_point();
  const Point q = rand_point();
  const std::vector<Pairing::Term> terms = {{p, q, false}, {p, q, true}};
  EXPECT_EQ(pairing_.product(terms), pairing_.one());
}

TEST_P(MultiPairingTest, ExponentsApplyPreFinalExp) {
  const Point p = rand_point();
  const Point q = rand_point();
  const BigInt e = rand_scalar();
  const std::vector<Pairing::Term> terms = {{p, q, false, e}};
  EXPECT_EQ(pairing_.product(terms), pairing_.reference(p, q).pow(e));
  const std::vector<Pairing::Term> inv_terms = {{p, q, true, e}};
  EXPECT_EQ(pairing_.product(inv_terms), pairing_.reference(p, q).pow(e).inv());
}

TEST_P(MultiPairingTest, BatchedDecryptShapeMatchesUnbatched) {
  // The exact shape decrypt_key builds: k leaf (num, den) pairs sharing a
  // Lagrange exponent each, plus e(C, D)^{-1}.
  std::vector<Pairing::Term> terms;
  Fp2 expected = pairing_.one();
  for (int leaf = 0; leaf < 3; ++leaf) {
    const Point cy = rand_point();
    const Point dj = rand_point();
    const Point cyp = rand_point();
    const Point djp = rand_point();
    const BigInt lambda = rand_scalar();
    terms.push_back({cy, dj, false, lambda});
    terms.push_back({cyp, djp, true, lambda});
    expected = expected * pairing_.reference(cy, dj).pow(lambda) *
               pairing_.reference(cyp, djp).pow(lambda).inv();
  }
  const Point c = rand_point();
  const Point d = rand_point();
  terms.push_back({c, d, true});
  expected = expected * pairing_.reference(c, d).inv();
  EXPECT_EQ(pairing_.product(terms), expected);
}

TEST_P(MultiPairingTest, InfinityTermContributesIdentity) {
  const Point p = rand_point();
  const Point q = rand_point();
  const std::vector<Pairing::Term> terms = {{Point{}, q}, {p, q}};
  EXPECT_EQ(pairing_.product(terms), pairing_.reference(p, q));
}

TEST_P(MultiPairingTest, EmptyProductIsOne) {
  EXPECT_EQ(pairing_.product({}), pairing_.one());
}

TEST_P(MultiPairingTest, PrecomputedTableReplayMatchesColdMiller) {
  const Point p = rand_point();
  const Point q = rand_point();
  const Fp2 cold = pairing_(p, q);  // plain Jacobian Miller loop
  pairing_.precompute(p);
  ASSERT_TRUE(pairing_.has_precomputed(p));
  const Fp2 warm = pairing_(p, q);  // table-replay path
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, pairing_.reference(p, q));
}

TEST_P(MultiPairingTest, RunnerExecutesJobsAndProductStaysIdentical) {
  std::vector<Pairing::Term> terms;
  Fp2 expected = pairing_.one();
  for (int i = 0; i < 4; ++i) {
    const Point p = rand_point();
    const Point q = rand_point();
    const bool inverse = (i % 2) == 1;
    terms.push_back({p, q, inverse});
    const Fp2 e = pairing_.reference(p, q);
    expected = expected * (inverse ? e.inv() : e);
  }
  std::size_t jobs_seen = 0;
  // A runner that really runs the closures on another thread, one by one.
  const Pairing::Runner runner = [&jobs_seen](std::span<const std::function<void()>> jobs) {
    jobs_seen = jobs.size();
    for (const auto& job : jobs) {
      std::thread t(job);
      t.join();
    }
  };
  EXPECT_EQ(pairing_.product(terms, runner), expected);
  EXPECT_EQ(jobs_seen, terms.size());
}

TEST_P(MultiPairingTest, TableRegistryHonorsFifoCap) {
  // The registry caps at 64 tables process-wide; registering far more than
  // that must evict oldest-first rather than grow without bound. We can't
  // read the cap directly, but the oldest of a 100-point burst must be gone
  // while the newest survives.
  std::vector<Point> points;
  for (int i = 0; i < 100; ++i) points.push_back(rand_point());
  for (const Point& p : points) pairing_.precompute(p);
  EXPECT_FALSE(pairing_.has_precomputed(points.front()));
  EXPECT_TRUE(pairing_.has_precomputed(points.back()));
}

INSTANTIATE_TEST_SUITE_P(Presets, MultiPairingTest,
                         ::testing::Values(ParamPreset::kToy, ParamPreset::kTest));

}  // namespace
}  // namespace sp::ec
