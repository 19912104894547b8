// Golden-value pins for the Montgomery/wNAF substrate rewrite: the seeded
// DRBG streams below were run against the original Barrett/double-and-add
// code and the SHA-256 digests of every wire artifact recorded. The
// optimized substrate must keep each byte identical — the algorithms
// changed, the values must not. A failure here means the rewrite altered
// semantics (or consumed DRBG bytes differently), not just performance.
#include <gtest/gtest.h>

#include <ostream>

#include "core/construction1.hpp"
#include "core/construction2.hpp"
#include "crypto/sha256.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"
#include "sig/schnorr.hpp"

namespace sp::core {
namespace {

using crypto::BigInt;
using crypto::Bytes;

std::string hex_hash(const Bytes& b) {
  const Bytes d = crypto::Sha256::hash(b);
  std::string out;
  constexpr char digits[] = "0123456789abcdef";
  for (auto c : d) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 15]);
  }
  return out;
}

TEST(SubstrateFixtures, Construction2ToyUploadBitIdentical) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  Construction2 c2(curve);
  crypto::Drbg rng("sp-fixture-c2-v1");
  const Context ctx({{"Where did we meet?", "Paris"},
                     {"What did we eat?", "pizza"},
                     {"Who hosted?", "Alice"},
                     {"Which month?", "June"}});
  const auto up = c2.upload(crypto::to_bytes("fixture object payload"), ctx, 2, rng);
  EXPECT_EQ(hex_hash(up.public_key),
            "d8be39e91990e0b32ed48c7fb56be68f38409fb99f3a0f8a8db1e0752571d8a6");
  EXPECT_EQ(hex_hash(up.master_key),
            "ffe4776a1a1c974057ae7552a73c7f187c8ca514614c2fa97a203b9c4ea03193");
  EXPECT_EQ(hex_hash(up.ciphertext),
            "305a15d88888c2553ec48c30dca5cc7f4ed0da5fdb9517ee883daba49147fe87");
  EXPECT_EQ(hex_hash(up.perturbed_tree.serialize()),
            "80b4c7e4c3b849f3ab3c3dba29c82a0a06fa662004791e540fb85c0e72f854dc");
}

TEST(SubstrateFixtures, Construction2TestPresetUploadBitIdentical) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kTest));
  Construction2 c2(curve);
  crypto::Drbg rng("sp-fixture-c2-test-v1");
  const Context ctx({{"q0", "a0"}, {"q1", "a1"}, {"q2", "a2"}});
  const auto up = c2.upload(crypto::to_bytes("second fixture"), ctx, 1, rng);
  EXPECT_EQ(hex_hash(up.ciphertext),
            "9c61ea1a851def00a4bb1169f37215af8a49bc453e5153af297b78ea3ab4b991");
}

TEST(SubstrateFixtures, Construction1ToyPuzzleBitIdentical) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  Construction1 c1(curve.fp(), curve);
  crypto::Drbg rng("sp-fixture-c1-v1");
  crypto::Drbg krng("sp-fixture-c1-keys-v1");
  const sig::Schnorr schnorr(curve, curve.hash_to_group(crypto::to_bytes("sp-fixture-gen")));
  const auto keys = schnorr.keygen(krng);
  const Context ctx({{"q0", "a0"}, {"q1", "a1"}, {"q2", "a2"}, {"q3", "a3"}});
  auto up = c1.upload(crypto::to_bytes("c1 fixture object"), ctx, 2, 4, keys, rng);
  up.puzzle.url = "dh://fixture/c1";
  c1.sign_puzzle(up.puzzle, keys);
  EXPECT_EQ(hex_hash(up.puzzle.serialize()),
            "7ceac7db36651d930959075a935667d74f2ce4b8a6e2583a4a770a34cef02807");
  EXPECT_EQ(hex_hash(up.encrypted_object),
            "a6bb55ef5942d9ffae1649c1973100c9a3a1a119afafe243c470c21f11a34465");
}

struct PresetGolden {
  ec::ParamPreset preset;
  const char* name;
  const char* pairing;
  const char* scalarmul;
  const char* powmod;
};

/// Prints the preset's name, which gtest_discover_tests puts in the ctest
/// name (…/toy) in place of the struct's bytes, pointers included.
void PrintTo(const PresetGolden& golden, std::ostream* os) { *os << golden.name; }

class SubstrateFixturesPreset : public ::testing::TestWithParam<PresetGolden> {};

TEST_P(SubstrateFixturesPreset, PrimitiveOutputsBitIdentical) {
  const auto& golden = GetParam();
  const ec::Curve curve(ec::preset_params(golden.preset));
  const ec::Pairing pairing(curve);
  crypto::Drbg rng(std::string("sp-fixture-pairing-") + golden.name);
  const auto g = curve.random_group_element(rng);
  const auto h = curve.random_group_element(rng);
  EXPECT_EQ(hex_hash(pairing(g, h).to_bytes()), golden.pairing);
  const auto k = BigInt::from_bytes(rng.bytes(20));
  EXPECT_EQ(hex_hash(curve.serialize(curve.mul(g, k))), golden.scalarmul);
  const auto base = BigInt::from_bytes(rng.bytes(40)).mod(curve.fp()->p());
  const auto e = BigInt::from_bytes(rng.bytes(32));
  EXPECT_EQ(hex_hash(curve.fp()->pow_mod(base, e).to_bytes(curve.fp()->byte_length())),
            golden.powmod);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, SubstrateFixturesPreset,
    ::testing::Values(
        PresetGolden{ec::ParamPreset::kToy, "toy",
                     "4eeeae9e2c70351893ee48d875ca5a4513f27cf9d71806b6a583eea74d2cc090",
                     "cfd21261d3229834855d62c6649938c03c3588dfb6759cd8d09fcb29b27d55cc",
                     "28bcf7369701d934af53944c25537c19bb0be33c60c27ab0f2e04464f3c5ddd7"},
        PresetGolden{ec::ParamPreset::kTest, "test",
                     "e3863dac9df9ef136e6346b0046c3947ba36b3151d4aeca9116862deaa986d57",
                     "8dc39a4d7c030c92beecdf1ec1de72d8a462d1e004254938e0c1eb4f1fa9f822",
                     "168d8d1e730f09403139e022e188107c83512b11e375b2630f90b72a73f954d4"},
        PresetGolden{ec::ParamPreset::kFull, "full",
                     "2b097bee38408279ce52fda21a306cbd4c8a209d2040d3dd2b8a1abc28c15764",
                     "2f8abbc55b0c3bb0979b165b111f6b758baa9f0350a79bd29afb3a1be68f7bb3",
                     "d71615d79d67ca86ded87751068b052af514ea31e0cd33eaceecaeb18d7294ed"}));

}  // namespace
}  // namespace sp::core
