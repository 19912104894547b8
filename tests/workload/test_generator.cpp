// Property suite for the Zipf popularity sampler that perfbench draws its
// post picks from: head-rank frequencies and tail mass against theory, and
// the single-rank and steep-skew edges.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/generator.hpp"

namespace sp::workload {
namespace {

TEST(WorkloadGenerator, ZipfFrequenciesWithinTolerance) {
  constexpr std::uint64_t kRanks = 1000;
  constexpr double kS = 1.2;
  constexpr std::size_t kSamples = 200000;
  ZipfSampler zipf(kRanks, kS);
  crypto::Drbg rng("zipf-freq");
  std::vector<std::size_t> counts(kRanks, 0);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const std::uint64_t rank = zipf.sample(rng);
    ASSERT_LT(rank, kRanks);
    ++counts[rank];
  }
  double harmonic = 0;
  for (std::uint64_t r = 1; r <= kRanks; ++r) harmonic += std::pow(static_cast<double>(r), -kS);
  // Head ranks: empirical frequency within 5% relative of 1/(r^s H_n(s)).
  for (std::uint64_t r = 1; r <= 5; ++r) {
    const double expected = std::pow(static_cast<double>(r), -kS) / harmonic;
    const double actual = static_cast<double>(counts[r - 1]) / kSamples;
    EXPECT_NEAR(actual, expected, 0.05 * expected) << "rank " << r;
  }
  // Tail mass (beyond rank 100) within +/-0.01 absolute of theory.
  double tail_expected = 0;
  for (std::uint64_t r = 101; r <= kRanks; ++r) {
    tail_expected += std::pow(static_cast<double>(r), -kS) / harmonic;
  }
  std::size_t tail_count = 0;
  for (std::uint64_t r = 100; r < kRanks; ++r) tail_count += counts[r];
  EXPECT_NEAR(static_cast<double>(tail_count) / kSamples, tail_expected, 0.01);
}

TEST(WorkloadGenerator, ZipfSingleRankAndSteepSkewEdges) {
  crypto::Drbg rng("zipf-edge");
  ZipfSampler one(1, 1.1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(one.sample(rng), 0u);
  ZipfSampler steep(100, 3.0);
  std::size_t head = 0;
  for (int i = 0; i < 2000; ++i) head += steep.sample(rng) == 0 ? 1 : 0;
  // At s = 3, rank 0 holds ~83% of the mass.
  EXPECT_GT(head, 1500u);
}

}  // namespace
}  // namespace sp::workload
