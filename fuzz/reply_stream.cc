// Fuzz harness: server reply-record stream decoding (net/reply_parser.h).
//
// The differential property: StreamReplyParser must decode a byte stream
// to the same result no matter how TCP segmented it. One parser gets the
// whole buffer in a single Feed; a second gets it in fuzz-chosen chunks
// (sizes driven by the input itself, biased to tiny splits). Everything
// observable — hello, acked offset, final reply, poison status, buffered
// tail — must agree exactly.

#include <cstdint>
#include <optional>
#include <string>

#include "fuzz/fuzz_input.h"
#include "net/reply_parser.h"

namespace {

std::string Describe(const ldpm::net::StreamReplyParser& parser,
                     const ldpm::Status& feed_status) {
  std::string out = feed_status.ToString();
  if (parser.hello().has_value()) {
    out += "|hello=" + std::to_string(*parser.hello());
  }
  out += "|acked=" + std::to_string(parser.acked_offset());
  // Buffered-tail equality only holds while the stream is healthy: a
  // poisoned parser stops absorbing, so the two parsers legitimately hold
  // different amounts of post-poison garbage.
  if (feed_status.ok()) {
    out += "|buffered=" + std::to_string(parser.buffered_bytes());
  }
  if (parser.final_reply().has_value()) {
    const ldpm::net::StreamReply& reply = *parser.final_reply();
    out += "|final=" + reply.status.ToString();
    out += "," + std::to_string(reply.stream_offset);
    out += "," + std::to_string(reply.frames_routed);
    out += "," + std::to_string(reply.bytes_routed);
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (64u << 10)) return 0;
  ldpm::fuzz::FuzzInput control(data, size);
  const uint8_t chunk_seed = control.TakeByte();
  const uint8_t* stream = control.remaining_data();
  const size_t stream_size = control.remaining_size();

  ldpm::net::StreamReplyParser whole;
  const ldpm::Status whole_status = whole.Feed(stream, stream_size);

  ldpm::net::StreamReplyParser chunked;
  ldpm::Status chunked_status = ldpm::Status::OK();
  uint32_t lcg = chunk_seed | 1;
  size_t at = 0;
  while (at < stream_size) {
    lcg = lcg * 1664525u + 1013904223u;
    // 1..8-byte chunks: small enough to split every record kind.
    size_t n = 1 + (lcg >> 24) % 8;
    if (n > stream_size - at) n = stream_size - at;
    chunked_status = chunked.Feed(stream + at, n);
    at += n;
    if (!chunked_status.ok()) break;  // poisoned: FrameClient stops feeding
  }

  LDPM_FUZZ_ASSERT(Describe(whole, whole_status) ==
                       Describe(chunked, chunked_status),
                   "segmentation changed the decode");

  // Reset must clear the tail, the poison and the hello but keep decoded
  // facts: a new connection's stream opens with its own hello.
  const uint64_t acked_before = whole.acked_offset();
  whole.Reset();
  LDPM_FUZZ_ASSERT(whole.buffered_bytes() == 0, "Reset kept buffered bytes");
  LDPM_FUZZ_ASSERT(!whole.hello().has_value(), "Reset kept the hello");
  LDPM_FUZZ_ASSERT(whole.acked_offset() == acked_before,
                   "Reset lost the acked offset");
  const uint8_t hello_then_ack[18] = {0x02, 5, 0, 0, 0, 0, 0, 0, 0,
                                      0x03, 1, 0, 0, 0, 0, 0, 0, 0};
  LDPM_FUZZ_ASSERT(whole.Feed(hello_then_ack, sizeof(hello_then_ack)).ok(),
                   "Reset did not clear the poison");
  LDPM_FUZZ_ASSERT(whole.hello() == std::optional<uint64_t>(5),
                   "hello after Reset not decoded");
  return 0;
}
