#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"

namespace sp::ec {
namespace {

using crypto::BigInt;
using crypto::Drbg;

const Curve& toy_curve() {
  static const Curve curve(preset_params(ParamPreset::kToy));
  return curve;
}

TEST(ScalarMul, WnafMatchesBinaryRandomized) {
  const Curve& curve = toy_curve();
  Drbg rng("wnaf-vs-binary");
  for (int i = 0; i < 50; ++i) {
    const Point p = curve.random_group_element(rng);
    const BigInt k = BigInt::from_bytes(rng.bytes(1 + (i * 7) % 20));
    EXPECT_EQ(curve.mul(p, k), curve.mul_binary(p, k)) << "i=" << i << " k=" << k.to_hex();
  }
}

TEST(ScalarMul, WnafEdgeScalars) {
  const Curve& curve = toy_curve();
  Drbg rng("wnaf-edges");
  const Point p = curve.random_group_element(rng);
  for (const auto& k : {BigInt{0}, BigInt{1}, BigInt{2}, BigInt{3}, BigInt{15}, BigInt{16},
                        BigInt{17}, curve.order() - BigInt{1}, curve.order(),
                        curve.order() + BigInt{1}}) {
    EXPECT_EQ(curve.mul(p, k), curve.mul_binary(p, k)) << "k=" << k.to_dec();
  }
  // Negative scalars negate the point.
  EXPECT_EQ(curve.mul(p, BigInt{-5}), curve.mul_binary(p, BigInt{-5}));
  EXPECT_EQ(curve.mul(Point{}, BigInt{7}), Point{});
}

TEST(ScalarMul, FixedBaseMatchesGeneric) {
  const Curve& curve = toy_curve();
  Drbg rng("fixed-base-equiv");
  const Point base = curve.random_group_element(rng);
  const FixedBase table(curve, base);
  EXPECT_EQ(table.base(), base);
  for (int i = 0; i < 50; ++i) {
    const BigInt k = BigInt::from_bytes(rng.bytes(1 + (i * 5) % 12)).mod(curve.order());
    EXPECT_EQ(table.mul(k), curve.mul_binary(base, k)) << "i=" << i;
  }
  // Edge scalars through the table path too.
  for (const auto& k : {BigInt{0}, BigInt{1}, BigInt{15}, BigInt{16}, curve.order() - BigInt{1}}) {
    EXPECT_EQ(table.mul(k), curve.mul_binary(base, k)) << "k=" << k.to_dec();
  }
  // q·B = O exercises the cancellation inside the table accumulation.
  EXPECT_TRUE(table.mul(curve.order()).is_infinity());
  EXPECT_THROW(FixedBase(curve, Point{}), std::invalid_argument);
}

TEST(ScalarMul, MulSubEqualsMatchesTheAffineEquation) {
  const Curve& curve = toy_curve();
  Drbg rng("mul-sub-equals");
  const Point base = curve.random_group_element(rng);
  const FixedBase table(curve, base);
  const BigInt& q = curve.order();
  auto oracle = [&](const BigInt& s, const Point& p, const BigInt& e, const Point& r) {
    return curve.mul_binary(base, s) == curve.add(r, curve.mul_binary(p, e));
  };
  for (int i = 0; i < 50; ++i) {
    const Point p = curve.random_group_element(rng);
    const FixedBase key(curve, p);
    const BigInt s = BigInt::from_bytes(rng.bytes(8)).mod(q);
    const BigInt e = BigInt::from_bytes(rng.bytes(8)).mod(q);
    const Point r = curve.add(curve.mul_binary(base, s), curve.negate(curve.mul_binary(p, e)));
    EXPECT_TRUE(table.mul_sub_equals(s, key, e, r)) << "i=" << i;
    // −R shares R's x, so this pins the Y comparison.
    EXPECT_FALSE(table.mul_sub_equals(s, key, e, curve.negate(r))) << "i=" << i;
    const Point wrong = curve.add(r, base);
    EXPECT_FALSE(table.mul_sub_equals(s, key, e, wrong)) << "i=" << i;
    EXPECT_EQ(table.mul_sub_equals(s, key, e, wrong), oracle(s, p, e, wrong)) << "i=" << i;
  }
  // Edges: e = 0 and s = 0 (one side infinity), a difference that is
  // infinity (P = B, e = s), and s·B = −e·P, which doubles inside the sum.
  const Point p = curve.random_group_element(rng);
  const FixedBase key(curve, p);
  const BigInt s = BigInt::from_bytes(rng.bytes(8)).mod(q);
  EXPECT_TRUE(table.mul_sub_equals(s, key, BigInt{0}, curve.mul_binary(base, s)));
  EXPECT_TRUE(table.mul_sub_equals(BigInt{0}, key, s, curve.negate(curve.mul_binary(p, s))));
  EXPECT_TRUE(table.mul_sub_equals(s, table, s, Point{}));
  EXPECT_FALSE(table.mul_sub_equals(s, table, s, base));
  EXPECT_FALSE(table.mul_sub_equals(s, table, s + BigInt{1}, Point{}));
  EXPECT_TRUE(table.mul_sub_equals(s, table, q - s, curve.mul_binary(base, s + s)));
}

TEST(ScalarMul, JacobianPairingMatchesAffineReference) {
  const Curve& curve = toy_curve();
  const Pairing pairing(curve);
  Drbg rng("pairing-vs-reference");
  for (int i = 0; i < 10; ++i) {
    const Point p = curve.random_group_element(rng);
    const Point q = curve.random_group_element(rng);
    EXPECT_EQ(pairing(p, q), pairing.reference(p, q)) << "i=" << i;
  }
  const Point p = curve.random_group_element(rng);
  EXPECT_EQ(pairing(p, p), pairing.reference(p, p));  // self-pairing (T=P branch)
  EXPECT_EQ(pairing(p, Point{}), pairing.one());
}

TEST(ScalarMul, PresetParamsConcurrentFirstUse) {
  // preset_params is a magic static; hammer it from several threads and
  // check every caller agrees.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<const CurveParams*> seen(kThreads, nullptr);
  std::vector<Point> products(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &products] {
      const CurveParams& params = preset_params(ParamPreset::kToy);
      seen[t] = &params;
      const Curve curve(params);
      Drbg rng("preset-concurrency");  // same seed in every thread
      const Point base = curve.random_group_element(rng);
      products[t] = curve.mul(base, BigInt{123456789});
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "preset cache returned distinct objects";
    EXPECT_EQ(products[t], products[0]);
  }
}

}  // namespace
}  // namespace sp::ec
