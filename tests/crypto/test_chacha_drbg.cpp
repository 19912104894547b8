// ChaCha20 RFC 8439 vector and wipe + Drbg determinism/statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <set>

#include "crypto/bytes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"

namespace sp::crypto {
namespace {

TEST(ChaCha20, Rfc8439BlockVector) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000090000004a00000000");
  ChaCha20 c(key, nonce, 1);
  Bytes ks(64);
  c.keystream(ks);
  EXPECT_EQ(to_hex(ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 section 2.4.2: full plaintext encryption test.
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000000000004a00000000");
  const Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  ChaCha20 c(key, nonce, 1);
  Bytes ks(pt.size());
  c.keystream(ks);
  Bytes ct(pt.size());
  for (std::size_t i = 0; i < pt.size(); ++i) ct[i] = pt[i] ^ ks[i];
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
}

TEST(ChaCha20, RejectsBadParams) {
  EXPECT_THROW(ChaCha20(Bytes(31, 0), Bytes(12, 0)), std::invalid_argument);
  EXPECT_THROW(ChaCha20(Bytes(32, 0), Bytes(11, 0)), std::invalid_argument);
}

TEST(ChaCha20, StreamContinuity) {
  const Bytes key(32, 3), nonce(12, 4);
  ChaCha20 a(key, nonce);
  Bytes whole(100);
  a.keystream(whole);
  ChaCha20 b(key, nonce);
  Bytes part1(37), part2(63);
  b.keystream(part1);
  b.keystream(part2);
  Bytes stitched = part1;
  stitched.insert(stitched.end(), part2.begin(), part2.end());
  EXPECT_EQ(whole, stitched);
}

TEST(ChaCha20, DestructorWipesKeyAndUnreadKeystream) {
  Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(0x40 + i);
  const Bytes nonce(12, 0x07);
  ChaCha20 twin(key, nonce);
  Bytes expected(64);
  twin.keystream(expected);

  // The object lives in storage the test owns, so reading it after the
  // destructor reads no freed memory.
  alignas(ChaCha20) std::uint8_t storage[sizeof(ChaCha20)];
  auto* c = new (storage) ChaCha20(key, nonce);
  Bytes first(10);
  c->keystream(first);  // the other 54 bytes of the block stay buffered
  ASSERT_EQ(first, Bytes(expected.begin(), expected.begin() + 10));
  c->~ChaCha20();

  const volatile std::uint8_t* p = storage;
  const Bytes left(p, p + sizeof(storage));
  const auto contains = [&left](const std::uint8_t* needle, std::size_t n) {
    return std::search(left.begin(), left.end(), needle, needle + n) != left.end();
  };
  for (std::size_t i = 0; i < key.size(); i += 4) {
    EXPECT_FALSE(contains(key.data() + i, 4)) << "key word " << i / 4;
  }
  for (std::size_t i = 10; i + 8 <= expected.size(); i += 8) {
    EXPECT_FALSE(contains(expected.data() + i, 8)) << "keystream byte " << i;
  }
}

TEST(Drbg, DeterministicForSameSeed) {
  Drbg a("seed-x"), b("seed-x");
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Drbg, DistinctSeedsDiverge) {
  Drbg a("seed-x"), b("seed-y");
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, UniformStaysInBounds) {
  Drbg d("bounds");
  for (int i = 0; i < 1000; ++i) EXPECT_LT(d.uniform(17), 17u);
  EXPECT_THROW(d.uniform(0), std::invalid_argument);
}

TEST(Drbg, UniformCoversSmallRange) {
  Drbg d("coverage");
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(d.uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Drbg, UniformRealInUnitInterval) {
  Drbg d("real");
  for (int i = 0; i < 1000; ++i) {
    const double v = d.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Drbg, NumberedStreamsAreDistinct) {
  const Bytes key(32, 0x5c);
  std::set<Bytes> seen;
  // 2^32 catches a number cut to the 32-bit ChaCha counter word.
  for (const std::uint64_t stream : {0ull, 1ull, 2ull, 255ull, 256ull, 1ull << 32, ~0ull}) {
    Drbg d(key, stream);
    EXPECT_TRUE(seen.insert(d.bytes(32)).second) << "stream " << stream;
  }
  // Under the key a seed hashes to, no numbered stream replays the seeded one.
  Drbg seeded("parent");
  Drbg numbered(Sha256::hash(to_bytes("parent")), 0);
  EXPECT_NE(seeded.bytes(32), numbered.bytes(32));
}

TEST(Drbg, NumberedStreamReplaysForOneKeyAndNumber) {
  const Bytes key(32, 0x5c);
  Drbg a(key, 7), b(key, 7);
  EXPECT_EQ(a.bytes(100), b.bytes(100));
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Drbg other_key(Bytes(32, 0x5d), 7);
  Drbg again(key, 7);
  EXPECT_NE(other_key.bytes(32), again.bytes(32));
  EXPECT_THROW(Drbg(Bytes(16, 0), 7), std::invalid_argument);
}

}  // namespace
}  // namespace sp::crypto
