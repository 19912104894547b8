// Wire-format robustness: deserializers face attacker-controlled bytes (the
// SP relays them, a malicious SP can rewrite them). DRBG-driven mutation and
// truncation sweeps must never crash — every malformed input either throws
// std::invalid_argument or yields a value that fails downstream checks.
#include <gtest/gtest.h>

#include "abe/cpabe.hpp"
#include "core/construction1.hpp"
#include "core/construction2.hpp"
#include "core/puzzle.hpp"
#include "ec/params.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::Drbg;
using crypto::to_bytes;

Bytes sample_puzzle_wire() {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  Construction1 c1(curve.fp(), curve);
  sig::Schnorr schnorr(curve, curve.hash_to_group(to_bytes("sp-schnorr-g")));
  Drbg rng("wire-puzzle");
  const sig::KeyPair keys = schnorr.keygen(rng);
  Context ctx;
  for (int i = 0; i < 4; ++i) ctx.add("q" + std::to_string(i), "a" + std::to_string(i));
  auto up = c1.upload(to_bytes("obj"), ctx, 2, 4, keys, rng);
  up.puzzle.url = "dh://objects/x";
  c1.sign_puzzle(up.puzzle, keys);
  return up.puzzle.serialize();
}

TEST(WireRobustness, PuzzleSurvivesSingleByteMutations) {
  const Bytes wire = sample_puzzle_wire();
  Drbg rng("mutate-puzzle");
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      const Puzzle p = Puzzle::deserialize(mutated);
      ++parsed;  // structurally valid; the signature layer catches the rest
      (void)p;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 300);
  EXPECT_GT(rejected, 0);  // length-prefix corruption must be caught
}

TEST(WireRobustness, PuzzleSurvivesTruncation) {
  const Bytes wire = sample_puzzle_wire();
  for (std::size_t len = 0; len < wire.size(); len += 3) {
    EXPECT_THROW(Puzzle::deserialize(std::span<const std::uint8_t>(wire.data(), len)),
                 std::invalid_argument)
        << "length " << len;
  }
}

TEST(WireRobustness, PuzzleSurvivesRandomGarbage) {
  Drbg rng("garbage-puzzle");
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes junk = rng.bytes(1 + rng.uniform(300));
    try {
      (void)Puzzle::deserialize(junk);
    } catch (const std::invalid_argument&) {
      // expected for nearly all inputs
    }
  }
}

TEST(WireRobustness, AccessTreeSurvivesMutationAndTruncation) {
  std::vector<std::pair<std::string, std::string>> qa;
  for (int i = 0; i < 5; ++i) qa.emplace_back("q" + std::to_string(i), "a" + std::to_string(i));
  const Bytes wire = abe::AccessTree::puzzle_policy(qa, 2).serialize();
  Drbg rng("mutate-tree");
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      (void)abe::AccessTree::deserialize(mutated);
    } catch (const std::invalid_argument&) {
    }
  }
  for (std::size_t len = 0; len < wire.size(); len += 2) {
    EXPECT_THROW(abe::AccessTree::deserialize(std::span<const std::uint8_t>(wire.data(), len)),
                 std::invalid_argument);
  }
}

TEST(WireRobustness, CpAbeArtifactsSurviveMutation) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const abe::CpAbe scheme(curve);
  Drbg rng("mutate-abe");
  auto [pk, mk] = scheme.setup(rng);
  std::vector<std::pair<std::string, std::string>> qa = {{"q0", "a0"}, {"q1", "a1"}};
  auto [ct, key] = scheme.encrypt_key(pk, abe::AccessTree::puzzle_policy(qa, 1), rng);

  const Bytes pk_wire = scheme.serialize(pk);
  const Bytes ct_wire = scheme.serialize(ct);
  for (int trial = 0; trial < 150; ++trial) {
    Bytes m1 = pk_wire;
    m1[rng.uniform(m1.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      (void)scheme.deserialize_public_key(m1);
    } catch (const std::invalid_argument&) {
    }
    Bytes m2 = ct_wire;
    m2[rng.uniform(m2.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      (void)scheme.deserialize_ciphertext(m2);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(WireRobustness, HugeLengthPrefixRejectedNotAllocated) {
  // A 0xFFFFFFFF length prefix must throw, not attempt a 4 GiB allocation.
  Bytes evil = {0xff, 0xff, 0xff, 0xff, 0x00};
  EXPECT_THROW(Puzzle::deserialize(evil), std::invalid_argument);
  EXPECT_THROW(abe::AccessTree::deserialize(evil), std::invalid_argument);
}

// A chain of `gates` one-child threshold gates above a single leaf, in
// AccessTree::serialize()'s layout: 9 bytes a gate.
Bytes gate_chain(std::size_t gates) {
  Bytes out;
  for (std::size_t i = 0; i < gates; ++i) {
    out.push_back(0);            // interior node
    crypto::put_u32(out, 1);     // threshold
    crypto::put_u32(out, 1);     // child count
  }
  out.push_back(1);  // leaf
  out.push_back(0);  // not perturbed
  crypto::put_str(out, "q");
  crypto::put_str(out, "a");
  return out;
}

TEST(WireRobustness, AccessTreeDepthIsBoundedAt64) {
  const Bytes deepest = gate_chain(64);
  EXPECT_EQ(abe::AccessTree::deserialize(deepest).serialize(), deepest);
  EXPECT_THROW(abe::AccessTree::deserialize(gate_chain(65)), std::invalid_argument);
  // 1.8 MB of nesting must throw at level 65, not exhaust the stack.
  EXPECT_THROW(abe::AccessTree::deserialize(gate_chain(200'000)), std::invalid_argument);
}

TEST(WireRobustness, HostileTreeFanOutRejected) {
  // An interior node claiming 2^20 children in a 73-byte input: the decoder
  // must refuse before reserving anything.
  Bytes wire = {0};                  // interior node
  crypto::put_u32(wire, 2);          // threshold
  crypto::put_u32(wire, 1u << 20);   // child count
  wire.resize(73, 0);
  EXPECT_THROW(abe::AccessTree::deserialize(wire), std::invalid_argument);
}

TEST(WireRobustness, DeepCiphertextPolicyDeniesAccess) {
  // A malicious DH serves CT' with its policy swapped for a 200,000-level
  // chain; the receiver must deny, not crash.
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const Construction2 c2(curve);
  Drbg rng("deep-policy");
  const Context ctx({{"q0", "a0"}, {"q1", "a1"}, {"q2", "a2"}});
  const auto up = c2.upload(to_bytes("object"), ctx, 2, rng);
  const Knowledge knowledge = Knowledge::full(ctx);
  ASSERT_EQ(c2.access(up.ciphertext, up.public_key, up.master_key, knowledge, rng),
            to_bytes("object"));

  // Ciphertext file = blob(CT') ‖ blob(sealed object); CT' opens with
  // blob(policy).
  std::size_t off = 0;
  const Bytes ct = crypto::get_blob(up.ciphertext, off);
  const Bytes sealed = crypto::get_blob(up.ciphertext, off);
  std::size_t ct_off = 0;
  (void)crypto::get_blob(ct, ct_off);
  Bytes hostile_ct;
  crypto::put_blob(hostile_ct, gate_chain(200'000));
  hostile_ct.insert(hostile_ct.end(), ct.begin() + static_cast<std::ptrdiff_t>(ct_off), ct.end());
  Bytes hostile_file;
  crypto::put_blob(hostile_file, hostile_ct);
  crypto::put_blob(hostile_file, sealed);
  EXPECT_EQ(c2.access(hostile_file, up.public_key, up.master_key, knowledge, rng), std::nullopt);
}

}  // namespace
}  // namespace sp::core
