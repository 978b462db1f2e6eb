// Collection frame tests (protocols/wire.h): round trips, interleaved
// multi-collection streams, malformed-frame rejection, and an
// every-truncation sweep over a multi-frame stream mirroring
// engine_checkpoint_test's file-corruption sweeps.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using test::EncodeReportStream;
using test::MakeConfig;

/// Collects (id, payload) pairs from a stream, asserting a clean walk.
std::vector<std::pair<std::string, std::vector<uint8_t>>> MustReadAll(
    const std::vector<uint8_t>& stream) {
  CollectionFrameReader reader(stream.data(), stream.size());
  std::vector<std::pair<std::string, std::vector<uint8_t>>> frames;
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  while (reader.Next(id, payload, payload_size)) {
    frames.emplace_back(std::string(id),
                        std::vector<uint8_t>(payload, payload + payload_size));
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  return frames;
}

TEST(CollectionFrame, RoundTripsIdAndPayload) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(AppendCollectionFrame("clicks", payload, stream).ok());
  ASSERT_TRUE(
      AppendCollectionFrame("metrics/v2", std::vector<uint8_t>(), stream).ok());

  const auto frames = MustReadAll(stream);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, "clicks");
  EXPECT_EQ(frames[0].second, payload);
  EXPECT_EQ(frames[1].first, "metrics/v2");
  EXPECT_TRUE(frames[1].second.empty());
}

TEST(CollectionFrame, EmptyStreamIsCleanEnd) {
  CollectionFrameReader reader(nullptr, 0);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  EXPECT_FALSE(reader.Next(id, payload, payload_size));
  EXPECT_TRUE(reader.status().ok());
}

TEST(CollectionFrame, RejectsEmptyAndOversizedIds) {
  std::vector<uint8_t> stream;
  EXPECT_FALSE(AppendCollectionFrame("", std::vector<uint8_t>(), stream).ok());
  EXPECT_FALSE(AppendCollectionFrame(std::string(70000, 'x'),
                                     std::vector<uint8_t>(), stream)
                   .ok());
  EXPECT_TRUE(stream.empty());

  // An empty id on the wire (hand-built) is a framing error, not a lookup.
  const std::vector<uint8_t> zero_id = {0, 0, 0, 0, 0, 0};
  CollectionFrameReader reader(zero_id.data(), zero_id.size());
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  EXPECT_FALSE(reader.Next(id, payload, payload_size));
  EXPECT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("empty collection id"),
            std::string::npos);
}

TEST(CollectionFrame, InterleavedWireBatchesRoundTripPerCollection) {
  // Two protocol streams interleaved frame-by-frame on one byte stream:
  // reading it back and routing by id must reproduce each collection's
  // report stream exactly.
  const ProtocolConfig config_a = MakeConfig(6, 2);
  const ProtocolConfig config_b = MakeConfig(4, 2);
  auto protocol_a = CreateProtocol(ProtocolKind::kInpHT, config_a);
  auto protocol_b = CreateProtocol(ProtocolKind::kMargPS, config_b);
  ASSERT_TRUE(protocol_a.ok());
  ASSERT_TRUE(protocol_b.ok());
  const std::vector<Report> reports_a = EncodeReportStream(**protocol_a, 600, 1);
  const std::vector<Report> reports_b = EncodeReportStream(**protocol_b, 600, 2);

  std::vector<uint8_t> stream;
  const size_t per_frame = 100;
  for (size_t begin = 0; begin < 600; begin += per_frame) {
    auto frame_a = SerializeReportBatch(
        ProtocolKind::kInpHT, config_a,
        std::vector<Report>(reports_a.begin() + begin,
                            reports_a.begin() + begin + per_frame));
    auto frame_b = SerializeReportBatch(
        ProtocolKind::kMargPS, config_b,
        std::vector<Report>(reports_b.begin() + begin,
                            reports_b.begin() + begin + per_frame));
    ASSERT_TRUE(frame_a.ok());
    ASSERT_TRUE(frame_b.ok());
    ASSERT_TRUE(AppendCollectionFrame("a", *frame_a, stream).ok());
    ASSERT_TRUE(AppendCollectionFrame("b", *frame_b, stream).ok());
  }

  auto sink_a = CreateProtocol(ProtocolKind::kInpHT, config_a);
  auto sink_b = CreateProtocol(ProtocolKind::kMargPS, config_b);
  ASSERT_TRUE(sink_a.ok());
  ASSERT_TRUE(sink_b.ok());
  for (const auto& [id, payload] : MustReadAll(stream)) {
    MarginalProtocol& sink = id == "a" ? **sink_a : **sink_b;
    ASSERT_TRUE(sink.AbsorbWireBatch(payload.data(), payload.size()).ok());
  }
  EXPECT_EQ((*sink_a)->reports_absorbed(), 600u);
  EXPECT_EQ((*sink_b)->reports_absorbed(), 600u);

  auto reference_a = CreateProtocol(ProtocolKind::kInpHT, config_a);
  ASSERT_TRUE(reference_a.ok());
  for (const Report& report : reports_a) {
    ASSERT_TRUE((*reference_a)->Absorb(report).ok());
  }
  test::ExpectBitwiseEqualEstimates(**reference_a, **sink_a);
}

TEST(CollectionFrame, EveryTruncationIsRejectedAtAFrameBoundaryOrEarlier) {
  // Mirror of engine_checkpoint_test's truncation sweep: for EVERY strict
  // prefix of a multi-frame stream, the walk must either stop cleanly at a
  // frame boundary (reporting only whole frames) or surface a framing
  // error — never hand back a partial frame.
  std::vector<uint8_t> stream;
  std::vector<size_t> boundaries = {0};
  for (int f = 0; f < 3; ++f) {
    ASSERT_TRUE(AppendCollectionFrame(
                    "c" + std::to_string(f),
                    std::vector<uint8_t>(static_cast<size_t>(5 + 7 * f),
                                         static_cast<uint8_t>(f)),
                    stream)
                    .ok());
    boundaries.push_back(stream.size());
  }

  for (size_t cut = 0; cut < stream.size(); ++cut) {
    CollectionFrameReader reader(stream.data(), cut);
    std::string_view id;
    const uint8_t* payload = nullptr;
    size_t payload_size = 0;
    size_t frames_read = 0;
    while (reader.Next(id, payload, payload_size)) ++frames_read;

    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    if (at_boundary) {
      EXPECT_TRUE(reader.status().ok()) << "cut=" << cut;
    } else {
      EXPECT_FALSE(reader.status().ok()) << "cut=" << cut;
      // Byte-precise: the error names an offset inside the stream.
      EXPECT_NE(reader.status().message().find("at byte"), std::string::npos);
    }
    // Only frames fully inside the prefix are ever reported.
    size_t whole_frames = 0;
    while (whole_frames + 1 < boundaries.size() &&
           boundaries[whole_frames + 1] <= cut) {
      ++whole_frames;
    }
    EXPECT_EQ(frames_read, whole_frames) << "cut=" << cut;
  }
}

TEST(CollectionFrame, ErrorOffsetsAreExact) {
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendCollectionFrame(
                  "ok", std::vector<uint8_t>{9, 9, 9}, stream)
                  .ok());
  const size_t second_frame_at = stream.size();
  ASSERT_TRUE(
      AppendCollectionFrame("broken", std::vector<uint8_t>(40, 1), stream).ok());

  // Cut mid-way through the second frame's payload: the reported offset
  // must point at that frame's payload length prefix.
  const size_t cut = second_frame_at + 2 + 6 + 4 + 10;
  CollectionFrameReader reader(stream.data(), cut);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  ASSERT_TRUE(reader.Next(id, payload, payload_size));  // first frame OK
  EXPECT_EQ(reader.frame_offset(), 0u);
  ASSERT_FALSE(reader.Next(id, payload, payload_size));
  EXPECT_NE(reader.status().message().find(
                "truncated payload at byte " +
                std::to_string(second_frame_at + 2 + 6)),
            std::string::npos)
      << reader.status().ToString();
}

TEST(CollectionFrame, HostilePayloadLengthDoesNotWrapScanArithmetic) {
  // Exact bytes: id length 1, id 'x', payload length 0xFFFFFFFF, no
  // payload. The frame's full encoded size is 2 + 1 + 4 + 0xFFFFFFFF =
  // 4294967302, which overflows 32-bit size arithmetic (the pre-cursor
  // scanner computed it in size_t) down to 6 — a "complete" frame that
  // would have walked 4 GiB past the buffer.
  const uint8_t stream[] = {0x01, 0x00, 'x', 0xFF, 0xFF, 0xFF, 0xFF};
  FrameStreamPrefix prefix;
  ASSERT_TRUE(
      ScanCompleteFrames(stream, sizeof(stream), &prefix).ok());
  EXPECT_EQ(prefix.bytes, 0u);
  EXPECT_EQ(prefix.pending_frame_bytes, 4294967302ull);

  // With a frame cap the same frame is excluded for size, not treated as
  // still-in-flight — same numbers, byte-precise.
  FrameStreamPrefix capped;
  ASSERT_TRUE(
      ScanCompleteFrames(stream, sizeof(stream), &capped, 1024).ok());
  EXPECT_EQ(capped.bytes, 0u);
  EXPECT_EQ(capped.pending_frame_bytes, 4294967302ull);

  // The strict reader must reject it as a truncated payload anchored at
  // the payload length prefix (byte 3), not crash or over-read.
  CollectionFrameReader reader(stream, sizeof(stream));
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  ASSERT_FALSE(reader.Next(id, payload, payload_size));
  ASSERT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("truncated payload at byte 3"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(CollectionFrame, ACapAdmitsLeadingFramesAndStopsAtTheFirstOverIt) {
  // Frames of 12, 16 and 47 bytes (2 + id + 4 + payload), all buffered,
  // then the start of a fourth.
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendCollectionFrame("a", std::vector<uint8_t>(5, 1), stream)
                  .ok());
  ASSERT_TRUE(AppendCollectionFrame("bb", std::vector<uint8_t>(8, 2), stream)
                  .ok());
  ASSERT_TRUE(AppendCollectionFrame("c", std::vector<uint8_t>(40, 3), stream)
                  .ok());
  ASSERT_EQ(stream.size(), 12u + 16u + 47u);
  stream.push_back(0x01);

  // A cap of 16 admits the first two frames whole and stops at the frame
  // boundary before the third, reporting the third's full size, even
  // though that frame is fully buffered.
  FrameStreamPrefix capped;
  ASSERT_TRUE(
      ScanCompleteFrames(stream.data(), stream.size(), &capped, 16).ok());
  EXPECT_EQ(capped.bytes, 28u);
  EXPECT_EQ(capped.pending_frame_bytes, 47u);

  // One byte less and the second frame is over the cap; one more frame's
  // worth and all three pass, stopping at the incomplete fourth header.
  ASSERT_TRUE(
      ScanCompleteFrames(stream.data(), stream.size(), &capped, 15).ok());
  EXPECT_EQ(capped.bytes, 12u);
  EXPECT_EQ(capped.pending_frame_bytes, 16u);
  ASSERT_TRUE(
      ScanCompleteFrames(stream.data(), stream.size(), &capped, 47).ok());
  EXPECT_EQ(capped.bytes, 75u);
  EXPECT_EQ(capped.pending_frame_bytes, 0u);
}

TEST(CollectionFrame, HostileIdLengthIsIncompleteNotOverRead) {
  // id length 0xFFFF with only 3 id bytes present: the scanner must wait
  // for the rest, and the strict reader must report a truncated id.
  const uint8_t stream[] = {0xFF, 0xFF, 'a', 'b', 'c'};
  FrameStreamPrefix prefix;
  ASSERT_TRUE(ScanCompleteFrames(stream, sizeof(stream), &prefix).ok());
  EXPECT_EQ(prefix.bytes, 0u);

  CollectionFrameReader reader(stream, sizeof(stream));
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  ASSERT_FALSE(reader.Next(id, payload, payload_size));
  ASSERT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
      << reader.status().ToString();
}

}  // namespace
}  // namespace ldpm
