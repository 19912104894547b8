#include "sss/shamir.hpp"

#include <gtest/gtest.h>

#include <set>

namespace sp::sss {
namespace {

using crypto::BigInt;
using crypto::Drbg;
using field::make_fp;

Shamir small() { return Shamir(make_fp(BigInt{251})); }

Shamir big() {
  return Shamir(make_fp(BigInt::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")));
}

TEST(Shamir, SplitProducesDistinctNonzeroAbscissae) {
  Drbg rng("split");
  const auto shares = small().split(BigInt{42}, 3, 10, rng);
  ASSERT_EQ(shares.size(), 10u);
  std::set<BigInt> xs;
  for (const auto& s : shares) {
    EXPECT_FALSE(s.x.is_zero());
    EXPECT_TRUE(xs.insert(s.x).second) << "duplicate abscissa";
  }
}

TEST(Shamir, ReconstructFromExactlyK) {
  Drbg rng("recon-k");
  const Shamir sss = big();
  const BigInt secret = BigInt::from_dec("123456789123456789123456789");
  const auto shares = sss.split(secret, 4, 9, rng);
  const std::vector<Share> subset(shares.begin(), shares.begin() + 4);
  EXPECT_EQ(sss.reconstruct(subset), secret);
}

TEST(Shamir, ReconstructFromMoreThanK) {
  Drbg rng("recon-more");
  const Shamir sss = big();
  const BigInt secret{777};
  const auto shares = sss.split(secret, 2, 6, rng);
  EXPECT_EQ(sss.reconstruct(shares), secret);  // all 6
}

TEST(Shamir, AnyKSubsetReconstructs) {
  Drbg rng("recon-any");
  const Shamir sss = small();
  const BigInt secret{99};
  const auto shares = sss.split(secret, 3, 6, rng);
  // All C(6,3) = 20 subsets.
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      for (std::size_t c = b + 1; c < 6; ++c) {
        const std::vector<Share> subset{shares[a], shares[b], shares[c]};
        EXPECT_EQ(sss.reconstruct(subset), secret) << a << "," << b << "," << c;
      }
    }
  }
}

TEST(Shamir, FewerThanKSharesGiveNoInformation) {
  // Information-theoretic check on a small field: fixing k-1 = 2 shares,
  // every candidate secret remains consistent with some polynomial, so the
  // adversary's posterior equals the prior.
  Drbg rng("infotheo");
  const auto field = make_fp(BigInt{31});
  const Shamir sss(field);
  const BigInt secret{17};
  const auto shares = sss.split(secret, 3, 3, rng);
  const std::vector<Share> two(shares.begin(), shares.begin() + 2);
  // For each candidate secret value, the pair (0, candidate) + the two known
  // shares determine a unique degree-2 polynomial — always consistent.
  for (int candidate = 0; candidate < 31; ++candidate) {
    std::vector<Share> probe = two;
    probe.push_back(Share{BigInt{0}, BigInt{candidate}});
    EXPECT_EQ(sss.reconstruct(probe), BigInt{candidate});
  }
}

TEST(Shamir, KEquals1BroadcastsSecret) {
  // k = 1: the paper's default evaluation setting. Every share alone
  // reconstructs (constant polynomial).
  Drbg rng("k1");
  const Shamir sss = big();
  const BigInt secret{31337};
  const auto shares = sss.split(secret, 1, 5, rng);
  for (const auto& s : shares) {
    EXPECT_EQ(sss.reconstruct(std::vector<Share>{s}), secret);
  }
}

TEST(Shamir, KEqualsN) {
  Drbg rng("k-eq-n");
  const Shamir sss = big();
  const BigInt secret{5};
  const auto shares = sss.split(secret, 7, 7, rng);
  EXPECT_EQ(sss.reconstruct(shares), secret);
  const std::vector<Share> fewer(shares.begin(), shares.end() - 1);
  EXPECT_NE(sss.reconstruct(fewer), secret);  // 6 of 7: wrong value
}

TEST(Shamir, WrongShareYieldsWrongSecret) {
  Drbg rng("wrong");
  const Shamir sss = big();
  const BigInt secret{1234};
  auto shares = sss.split(secret, 3, 3, rng);
  shares[1].y = (shares[1].y + BigInt{1}).mod(sss.field()->p());
  EXPECT_NE(sss.reconstruct(shares), secret);
}

TEST(Shamir, SecretReducedModP) {
  Drbg rng("modp");
  const Shamir sss = small();
  const auto shares = sss.split(BigInt{251 + 42}, 2, 3, rng);
  EXPECT_EQ(sss.reconstruct(shares), BigInt{42});
}

TEST(Shamir, InvalidParametersThrow) {
  Drbg rng("invalid");
  const Shamir sss = small();
  EXPECT_THROW(sss.split(BigInt{1}, 0, 3, rng), std::invalid_argument);
  EXPECT_THROW(sss.split(BigInt{1}, 4, 3, rng), std::invalid_argument);
  EXPECT_THROW(sss.split(BigInt{1}, 2, 251, rng), std::invalid_argument);
  EXPECT_THROW(sss.reconstruct({}), std::invalid_argument);
}

TEST(Shamir, DuplicateAbscissaRejected) {
  const Shamir sss = small();
  const std::vector<Share> dup{Share{BigInt{1}, BigInt{2}}, Share{BigInt{1}, BigInt{3}}};
  EXPECT_THROW(sss.reconstruct(dup), std::invalid_argument);
}

TEST(Shamir, InterpolateAtRecoversSharePoints) {
  Drbg rng("interp");
  const Shamir sss = big();
  const auto shares = sss.split(BigInt{555}, 3, 5, rng);
  const std::vector<Share> basis(shares.begin(), shares.begin() + 3);
  for (const auto& s : shares) {
    EXPECT_EQ(sss.interpolate_at(basis, s.x), s.y);
  }
}

TEST(Shamir, SerializeRoundTrip) {
  Drbg rng("ser");
  const Shamir sss = big();
  const auto shares = sss.split(BigInt{4242}, 2, 4, rng);
  for (const auto& s : shares) {
    const auto wire = sss.serialize(s);
    EXPECT_EQ(wire.size(), sss.serialized_size());
    EXPECT_EQ(sss.deserialize(wire), s);
  }
  EXPECT_THROW(sss.deserialize(crypto::Bytes(5, 0)), std::invalid_argument);
}

// Property sweep over (k, n) combinations.
class ShamirSweep : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ShamirSweep, SplitReconstruct) {
  const auto [k, n] = GetParam();
  Drbg rng("sweep");
  const Shamir sss = big();
  const BigInt secret = BigInt::from_bytes(rng.bytes(24));
  const auto shares = sss.split(secret, k, n, rng);
  // First k shares.
  EXPECT_EQ(sss.reconstruct(std::vector<Share>(shares.begin(), shares.begin() + k)),
            secret.mod(sss.field()->p()));
  // Last k shares.
  EXPECT_EQ(sss.reconstruct(std::vector<Share>(shares.end() - static_cast<std::ptrdiff_t>(k),
                                               shares.end())),
            secret.mod(sss.field()->p()));
}

INSTANTIATE_TEST_SUITE_P(KN, ShamirSweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 10},
                                           std::pair<std::size_t, std::size_t>{2, 2},
                                           std::pair<std::size_t, std::size_t>{2, 10},
                                           std::pair<std::size_t, std::size_t>{3, 10},
                                           std::pair<std::size_t, std::size_t>{5, 10},
                                           std::pair<std::size_t, std::size_t>{10, 10},
                                           std::pair<std::size_t, std::size_t>{8, 20},
                                           std::pair<std::size_t, std::size_t>{16, 16}));

// ---- batched Lagrange basis + Montgomery batch inversion ---------------

/// The batched interpolate_at must agree with the naive per-inversion
/// reference on every (k, n) shape, and repeat calls must agree.
TEST_P(ShamirSweep, CachedInterpolationMatchesReference) {
  const auto [k, n] = GetParam();
  Drbg rng("lagrange-sweep");
  const Shamir sss = big();
  const BigInt secret = BigInt::from_bytes(rng.bytes(24));
  const auto shares = sss.split(secret, k, n, rng);
  const std::vector<Share> sub(shares.begin(), shares.begin() + k);
  for (const BigInt& at : {BigInt{0}, BigInt{1}, BigInt{987654321}}) {
    const BigInt cold = sss.interpolate_at(sub, at);
    EXPECT_EQ(cold, sss.interpolate_at_reference(sub, at));
    // A repeat call must be byte-identical.
    EXPECT_EQ(sss.interpolate_at(sub, at), cold);
  }
}

TEST(Lagrange, ComputeMatchesNaiveBasisDefinition) {
  Drbg rng("lagrange-direct");
  const auto field = make_fp(BigInt{251});
  std::vector<field::Fp> xs;
  for (const int v : {3, 17, 42, 99, 120}) xs.emplace_back(field, BigInt{v});
  const field::Fp at(field, BigInt{7});
  const auto basis = lagrange_basis(field, xs, at);
  ASSERT_EQ(basis.size(), xs.size());
  for (std::size_t j = 0; j < xs.size(); ++j) {
    field::Fp expected = field::Fp::one(field);
    for (std::size_t m = 0; m < xs.size(); ++m) {
      if (m == j) continue;
      expected = expected * (at - xs[m]) * (xs[j] - xs[m]).inv();
    }
    EXPECT_EQ(basis[j], expected);
  }
  // Partition of unity: Σ ℓ_j(at) = 1 for any at.
  field::Fp sum = field::Fp::zero(field);
  for (const auto& l : basis) sum = sum + l;
  EXPECT_EQ(sum, field::Fp::one(field));
}

TEST(BatchInv, MatchesElementwiseInversionAndRejectsZero) {
  const auto field = make_fp(BigInt{251});
  std::vector<field::Fp> xs;
  for (const int v : {1, 2, 3, 100, 250, 7}) xs.emplace_back(field, BigInt{v});
  const auto invs = field::batch_inv(xs);
  ASSERT_EQ(invs.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(invs[i], xs[i].inv());
  EXPECT_TRUE(field::batch_inv({}).empty());
  xs.emplace_back(field, BigInt{0});
  EXPECT_THROW(field::batch_inv(xs), std::domain_error);
}

}  // namespace
}  // namespace sp::sss
