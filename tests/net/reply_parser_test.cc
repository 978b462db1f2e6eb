// StreamReplyParser tests: segmentation independence (byte-by-byte vs
// whole-buffer feeds), record decoding (the hello included), poisoning by
// an unknown code or a misplaced hello, and the reconnect Reset semantics.
// The fuzz_reply_stream harness drives the same differential property
// over arbitrary bytes.

#include "net/reply_parser.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"

namespace ldpm {
namespace net {
namespace {

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<uint8_t>(v >> (8 * b)));
}

std::vector<uint8_t> HelloRecord(uint64_t resume_offset) {
  std::vector<uint8_t> out = {kReplyHello};
  PutU64(out, resume_offset);
  return out;
}

std::vector<uint8_t> AckRecord(uint64_t offset) {
  std::vector<uint8_t> out = {kReplyAck};
  PutU64(out, offset);
  return out;
}

std::vector<uint8_t> OkRecord(uint64_t frames, uint64_t bytes) {
  std::vector<uint8_t> out = {kReplyOk};
  PutU64(out, frames);
  PutU64(out, bytes);
  return out;
}

std::vector<uint8_t> ErrorRecord(uint64_t offset, const std::string& message) {
  std::vector<uint8_t> out = {kReplyError};
  PutU64(out, offset);
  out.push_back(static_cast<uint8_t>(message.size()));
  out.push_back(static_cast<uint8_t>(message.size() >> 8));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

TEST(StreamReplyParser, DecodesAcksAndFinalOk) {
  std::vector<uint8_t> stream = AckRecord(100);
  const std::vector<uint8_t> more = AckRecord(250);
  stream.insert(stream.end(), more.begin(), more.end());
  const std::vector<uint8_t> fin = OkRecord(7, 300);
  stream.insert(stream.end(), fin.begin(), fin.end());

  StreamReplyParser parser;
  ASSERT_TRUE(parser.Feed(stream.data(), stream.size()).ok());
  EXPECT_EQ(parser.acked_offset(), 300u);  // the final ok acks everything
  ASSERT_TRUE(parser.final_reply().has_value());
  EXPECT_TRUE(parser.final_reply()->status.ok());
  EXPECT_EQ(parser.final_reply()->frames_routed, 7u);
  EXPECT_EQ(parser.final_reply()->bytes_routed, 300u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(StreamReplyParser, ByteByByteFeedMatchesOneShot) {
  std::vector<uint8_t> stream = AckRecord(64);
  const std::vector<uint8_t> err = ErrorRecord(64, "unknown collection");
  stream.insert(stream.end(), err.begin(), err.end());

  StreamReplyParser whole;
  ASSERT_TRUE(whole.Feed(stream.data(), stream.size()).ok());

  StreamReplyParser split;
  for (const uint8_t byte : stream) {
    ASSERT_TRUE(split.Feed(&byte, 1).ok());
  }

  EXPECT_EQ(split.acked_offset(), whole.acked_offset());
  EXPECT_EQ(split.buffered_bytes(), whole.buffered_bytes());
  ASSERT_TRUE(whole.final_reply().has_value());
  ASSERT_TRUE(split.final_reply().has_value());
  EXPECT_EQ(split.final_reply()->status.ToString(),
            whole.final_reply()->status.ToString());
  EXPECT_EQ(whole.final_reply()->stream_offset, 64u);
  EXPECT_NE(whole.final_reply()->status.message().find(
                "server rejected stream at byte 64: unknown collection"),
            std::string::npos)
      << whole.final_reply()->status.ToString();
}

TEST(StreamReplyParser, AckedOffsetIsMonotone) {
  StreamReplyParser parser;
  std::vector<uint8_t> high = AckRecord(500);
  ASSERT_TRUE(parser.Feed(high.data(), high.size()).ok());
  std::vector<uint8_t> low = AckRecord(10);  // stale/reordered ack
  ASSERT_TRUE(parser.Feed(low.data(), low.size()).ok());
  EXPECT_EQ(parser.acked_offset(), 500u);
}

TEST(StreamReplyParser, UnknownCodePoisonsAtExactOffset) {
  std::vector<uint8_t> stream = AckRecord(9);
  stream.push_back(0x7F);
  StreamReplyParser parser;
  const Status status = parser.Feed(stream.data(), stream.size());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The bad byte sits after one 9-byte ack record.
  EXPECT_NE(status.message().find("unknown reply code 127 at byte 9"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(parser.acked_offset(), 9u);  // the ack before it still counted
  // Poisoned: further feeds return the same error and consume nothing.
  const uint8_t ok = kReplyOk;
  EXPECT_FALSE(parser.Feed(&ok, 1).ok());
  EXPECT_FALSE(parser.final_reply().has_value());
}

TEST(StreamReplyParser, ResetDropsBufferAndPoisonKeepsFacts) {
  StreamReplyParser parser;
  std::vector<uint8_t> stream = AckRecord(80);
  stream.push_back(kReplyOk);  // start of a record that never completes
  ASSERT_TRUE(parser.Feed(stream.data(), stream.size()).ok());
  EXPECT_EQ(parser.buffered_bytes(), 1u);

  parser.Reset();  // reconnect: new reply stream
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.acked_offset(), 80u);  // session-absolute, survives

  // The new connection's stream starts at byte 0 again.
  const uint8_t bad = 0xEE;
  const Status status = parser.Feed(&bad, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown reply code 238 at byte 0"),
            std::string::npos)
      << status.ToString();

  parser.Reset();  // poison clears too
  std::vector<uint8_t> fin = OkRecord(1, 90);
  ASSERT_TRUE(parser.Feed(fin.data(), fin.size()).ok());
  ASSERT_TRUE(parser.final_reply().has_value());
  EXPECT_EQ(parser.acked_offset(), 90u);
}

TEST(StreamReplyParser, MaximalErrorMessageRoundTrips) {
  // A 65535-byte message exercises the full u16 length range.
  const std::string message(0xFFFF, 'm');
  std::vector<uint8_t> stream = ErrorRecord(3, message);
  StreamReplyParser parser;
  // Split in the middle of the message body.
  ASSERT_TRUE(parser.Feed(stream.data(), 100).ok());
  EXPECT_FALSE(parser.final_reply().has_value());
  ASSERT_TRUE(parser.Feed(stream.data() + 100, stream.size() - 100).ok());
  ASSERT_TRUE(parser.final_reply().has_value());
  EXPECT_NE(parser.final_reply()->status.message().find(message),
            std::string::npos);
}

TEST(StreamReplyParser, HelloIsDecodedAsTheFirstRecord) {
  std::vector<uint8_t> stream = HelloRecord(40);
  const std::vector<uint8_t> ack = AckRecord(70);
  stream.insert(stream.end(), ack.begin(), ack.end());

  StreamReplyParser whole;
  ASSERT_TRUE(whole.Feed(stream.data(), stream.size()).ok());
  ASSERT_TRUE(whole.hello().has_value());
  EXPECT_EQ(*whole.hello(), 40u);
  EXPECT_EQ(whole.acked_offset(), 70u);
  EXPECT_FALSE(whole.final_reply().has_value());

  StreamReplyParser split;
  for (const uint8_t byte : stream) {
    ASSERT_TRUE(split.Feed(&byte, 1).ok());
  }
  EXPECT_EQ(split.hello(), whole.hello());
  EXPECT_EQ(split.acked_offset(), whole.acked_offset());
}

TEST(StreamReplyParser, SecondHelloPoisonsAtItsOffset) {
  std::vector<uint8_t> stream = HelloRecord(0);
  const std::vector<uint8_t> ack = AckRecord(12);
  stream.insert(stream.end(), ack.begin(), ack.end());
  const std::vector<uint8_t> again = HelloRecord(12);
  stream.insert(stream.end(), again.begin(), again.end());

  StreamReplyParser parser;
  const Status status = parser.Feed(stream.data(), stream.size());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The misplaced hello sits after a 9-byte hello and a 9-byte ack.
  EXPECT_NE(status.message().find(
                "hello record at byte 18 is not the first record"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(*parser.hello(), 0u);  // the first hello still stands
  EXPECT_EQ(parser.acked_offset(), 12u);
  const std::vector<uint8_t> fin = OkRecord(1, 12);
  EXPECT_FALSE(parser.Feed(fin.data(), fin.size()).ok());
  EXPECT_FALSE(parser.final_reply().has_value());

  // Fed byte by byte, the second hello opens a Feed of its own; it is
  // still not the stream's first record.
  StreamReplyParser split;
  Status split_status = Status::OK();
  for (const uint8_t byte : stream) {
    split_status = split.Feed(&byte, 1);
    if (!split_status.ok()) break;
  }
  EXPECT_EQ(split_status.ToString(), status.ToString());
}

TEST(StreamReplyParser, ResetForgetsTheHello) {
  StreamReplyParser parser;
  const std::vector<uint8_t> first = HelloRecord(0);
  ASSERT_TRUE(parser.Feed(first.data(), first.size()).ok());
  const std::vector<uint8_t> ack = AckRecord(30);
  ASSERT_TRUE(parser.Feed(ack.data(), ack.size()).ok());

  parser.Reset();  // reconnect: the new connection sends its own hello
  EXPECT_FALSE(parser.hello().has_value());
  EXPECT_EQ(parser.acked_offset(), 30u);
  const std::vector<uint8_t> second = HelloRecord(30);
  ASSERT_TRUE(parser.Feed(second.data(), second.size()).ok());
  ASSERT_TRUE(parser.hello().has_value());
  EXPECT_EQ(*parser.hello(), 30u);
}

}  // namespace
}  // namespace net
}  // namespace ldpm
