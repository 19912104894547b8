#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "codec/records.hpp"
#include "crypto/bytes.hpp"
#include "storage/segment.hpp"
#include "support/temp_dir.hpp"

namespace sp::storage {
namespace {

namespace fs = std::filesystem;
using codec::Envelope;
using crypto::Bytes;
using crypto::to_bytes;
using testsupport::TempDir;

Envelope env(std::uint8_t space, int i) {
  return {Envelope::Op::kPut, space, static_cast<std::uint64_t>(i), "id-" + std::to_string(i),
          to_bytes("value-" + std::to_string(i))};
}

std::string write_segment(const TempDir& tmp, int entries) {
  const std::string path = tmp.path("seg.spseg");
  SegmentWriter writer(path);
  for (int i = 0; i < entries; ++i) writer.add(env(1, i));
  writer.finish();
  return path;
}

TEST(Segment, WriteReadRoundTrip) {
  TempDir tmp;
  const std::string path = write_segment(tmp, 50);

  Segment seg(path);
  EXPECT_EQ(seg.entries(), 50u);
  EXPECT_EQ(seg.max_seq(), 49u);
  EXPECT_EQ(seg.file_bytes(), fs::file_size(path));

  for (int i = 0; i < 50; ++i) {
    const auto got = seg.get(1, "id-" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, env(1, i));
  }
  EXPECT_FALSE(seg.get(1, "missing").has_value());
  EXPECT_FALSE(seg.get(2, "id-0").has_value());  // same id, other keyspace

  std::vector<Envelope> order;
  seg.for_each([&](const Envelope& e) { order.push_back(e); });
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], env(1, i));
}

TEST(Segment, EmptySegmentIsValid) {
  TempDir tmp;
  const std::string path = write_segment(tmp, 0);
  Segment seg(path);
  EXPECT_EQ(seg.entries(), 0u);
  seg.for_each([](const Envelope&) { FAIL() << "no entries expected"; });
}

TEST(Segment, EveryBitFlipRejectsTheWholeSegment) {
  TempDir tmp;
  const std::string path = write_segment(tmp, 3);
  Bytes original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    Bytes bad = original;
    bad[i] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bad.data()), static_cast<std::streamsize>(bad.size()));
    out.close();
    EXPECT_THROW(Segment{path}, codec::CodecError) << "byte " << i;
  }
}

TEST(Segment, TruncationRejected) {
  TempDir tmp;
  const std::string path = write_segment(tmp, 3);
  Bytes original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Any proper prefix — a torn checkpoint never passes validation (the
  // atomic-rename protocol means we should never see one, but a disk that
  // lies about fsync can produce it).
  for (const double frac : {0.0, 0.3, 0.7, 0.99}) {
    const auto len = static_cast<std::size_t>(static_cast<double>(original.size()) * frac);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(original.data()), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_THROW(Segment{path}, codec::CodecError) << "prefix " << len;
  }
}

TEST(Segment, TrailingDataAfterFooterRejected) {
  TempDir tmp;
  const std::string path = write_segment(tmp, 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put(0x00);
  }
  EXPECT_THROW(Segment{path}, codec::CodecError);
}

TEST(Segment, MissingFooterRejected) {
  // Envelope frames alone (a WAL file, say) are not a segment.
  TempDir tmp;
  const std::string path = tmp.path("nofooter.spseg");
  {
    std::ofstream out(path, std::ios::binary);
    const Bytes frame = codec::encode_envelope(env(1, 0));
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  EXPECT_THROW(Segment{path}, codec::CodecError);
}

TEST(SegmentWriter, UnfinishedFileIsUnlinkedByDestructor) {
  TempDir tmp;
  const std::string path = tmp.path("abandoned.spseg");
  {
    SegmentWriter writer(path);
    writer.add(env(1, 0));
    // finish() never called — e.g. the scan callback threw mid-checkpoint.
  }
  EXPECT_FALSE(fs::exists(path));
}

}  // namespace
}  // namespace sp::storage
