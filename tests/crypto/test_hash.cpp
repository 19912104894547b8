// Known-answer tests for SHA-256 / SHA3-256 / HMAC / HKDF against
// FIPS 180-4, FIPS 202, RFC 4231 and RFC 5869 vectors.
#include <gtest/gtest.h>

#include "crypto/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha3.hpp"

namespace sp::crypto {
namespace {

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("The quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::span<const std::uint8_t>(msg.data(), split));
    h.update(std::span<const std::uint8_t>(msg.data() + split, msg.size() - split));
    auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::hash(msg)) << "split " << split;
  }
}

TEST(Sha3_256, Fips202Vectors) {
  EXPECT_EQ(to_hex(Sha3_256::hash(to_bytes(""))),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
  EXPECT_EQ(to_hex(Sha3_256::hash(to_bytes("abc"))),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
  EXPECT_EQ(to_hex(Sha3_256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376");
}

TEST(Sha3_256, RateBoundaryLengths) {
  // Exercise messages straddling the 136-byte rate.
  for (std::size_t len : {135u, 136u, 137u, 271u, 272u, 273u}) {
    const Bytes msg(len, 0x5a);
    Sha3_256 one_shot;
    one_shot.update(msg);
    auto a = one_shot.finish();
    Sha3_256 split;
    split.update(std::span<const std::uint8_t>(msg.data(), len / 2));
    split.update(std::span<const std::uint8_t>(msg.data() + len / 2, len - len / 2));
    auto b = split.finish();
    EXPECT_EQ(a, b) << "len " << len;
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865");
}

TEST(Hkdf, EmptySaltUsesZeros) {
  // RFC 5869 case 3.
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf(ikm, {}, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandRejectsOversize) {
  const Bytes prk(32, 1);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

// Regression: update({}) used to pass the empty span's null data() to
// memcpy when a partial block was buffered — UB flagged by UBSan in
// sha256.cpp. Empty updates must be no-ops at any point in the stream,
// including mid-block.
TEST(StreamingHash, EmptyUpdateMidStreamIsANoOp) {
  const Bytes part = to_bytes("abc");  // shorter than a block, so it buffers
  {
    Sha256 h;
    h.update(part);
    h.update({});  // hits the buffered-partial-block path
    h.update({});
    auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::hash(part));
  }
  {
    Sha256 h;
    h.update({});  // empty before anything is buffered, too
    h.update(part);
    auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::hash(part));
  }
}

TEST(Hkdf, DistinctInfoYieldsDistinctKeys) {
  const Bytes ikm = to_bytes("object secret M_O");
  EXPECT_NE(hkdf(ikm, {}, to_bytes("enc"), 32), hkdf(ikm, {}, to_bytes("mac"), 32));
}

}  // namespace
}  // namespace sp::crypto
