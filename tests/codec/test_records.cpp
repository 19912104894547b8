#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "codec/records.hpp"
#include "codec/wire.hpp"
#include "crypto/bytes.hpp"

namespace sp::codec {
namespace {

using crypto::Bytes;

// Deterministic pseudo-random object factories. Property style: for every
// seeded draw, encode -> decode -> re-encode must be byte-identical, and the
// decoded object must equal the original.

Bytes random_bytes(std::mt19937& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<int> byte(0, 255);
  Bytes out(len(rng));
  for (auto& b : out) b = static_cast<std::uint8_t>(byte(rng));
  return out;
}

std::string random_string(std::mt19937& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<int> ch(32, 126);
  std::string out(len(rng), ' ');
  for (auto& c : out) c = static_cast<char>(ch(rng));
  return out;
}

Envelope random_envelope(std::mt19937& rng) {
  std::uniform_int_distribution<int> op(1, 3);
  std::uniform_int_distribution<int> small(0, 255);
  Envelope env;
  env.op = static_cast<Envelope::Op>(op(rng));
  env.space = static_cast<std::uint8_t>(small(rng));
  env.seq = std::uniform_int_distribution<std::uint64_t>()(rng);
  env.id = random_string(rng, 48);
  env.value = random_bytes(rng, 256);
  return env;
}

// ---------------------------------------------------------------- envelopes

TEST(RecordCodecs, EnvelopeRoundTripProperty) {
  std::mt19937 rng(0xC0DEC);
  for (int i = 0; i < 200; ++i) {
    const Envelope env = random_envelope(rng);
    const Bytes encoded = encode_envelope(env);
    const Envelope decoded = decode_envelope(encoded);
    EXPECT_EQ(decoded, env);
    EXPECT_EQ(encode_envelope(decoded), encoded);  // canonical re-encode
  }
}

TEST(RecordCodecs, EnvelopeRejectsBadOp) {
  Envelope env;
  env.id = "k1";
  Bytes encoded = encode_envelope(env);
  // Payload starts right after the 10-byte header; op is its first byte.
  Bytes payload(encoded.begin() + 10, encoded.end() - 4);
  payload[0] = 99;
  const Bytes reframed = frame(static_cast<std::uint8_t>(RecordType::kEnvelope), payload);
  EXPECT_THROW((void)decode_envelope(reframed), CodecError);
}

// ------------------------------------------------- rejection, every type

TEST(RecordCodecs, EveryRecordTypeRejectsTruncationAndBitFlips) {
  std::mt19937 rng(0xBAD);
  const Bytes encoded = encode_envelope(random_envelope(rng));
  // Truncation at every prefix length.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_THROW((void)decode_envelope(std::span(encoded).subspan(0, len)), CodecError)
        << "truncated to " << len;
  }
  // A flipped bit in every byte position.
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes bad = encoded;
    bad[i] ^= 0x10;
    EXPECT_THROW((void)decode_envelope(bad), CodecError) << "flipped byte " << i;
  }
  // Trailing garbage.
  Bytes padded = encoded;
  padded.push_back(0x00);
  EXPECT_THROW((void)decode_envelope(padded), CodecError);
}

TEST(RecordCodecs, WrongRecordTypeRejected) {
  // A valid envelope payload in a frame of another record type.
  Envelope env;
  env.id = "k1";
  const Bytes encoded = encode_envelope(env);
  const Frame f = unframe(encoded);
  const Bytes segment_frame = frame(static_cast<std::uint8_t>(RecordType::kSegment), f.payload);
  EXPECT_THROW((void)decode_envelope(segment_frame), CodecError);
}

TEST(RecordCodecs, FutureVersionRejectedByTypedDecoders) {
  // Same payload, future format-version byte: the frame parses (so streaming
  // replay can skip it) but the envelope decoder refuses to interpret it.
  Envelope env;
  env.id = "k1";
  const Bytes encoded = encode_envelope(env);
  const Frame f = unframe(encoded);
  const Bytes future = frame(f.type, f.payload, kWireVersion + 1);
  EXPECT_NO_THROW((void)unframe(future));
  EXPECT_THROW((void)decode_envelope(future), CodecError);
}

}  // namespace
}  // namespace sp::codec
