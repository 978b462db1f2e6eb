// Incremental decoder for the server's reply-record stream.
//
// On a session connection the server talks back to the client in
// self-delimiting records (net/protocol.h):
//
//   hello  0x02 + u64 resume offset                      (first record)
//   ack    0x03 + u64 acked session offset
//   ok     0x00 + u64 frames routed + u64 bytes routed   (final)
//   error  0x01 + u64 stream offset + u16 L + L message  (final)
//
// TCP segments those records arbitrarily, so the client may receive half
// an ack in one read and the rest three reads later. StreamReplyParser is
// the pure, socket-free state machine that makes the decode independent
// of segmentation: feed it whatever bytes arrived, in any split, and it
// consumes exactly the complete records, buffering a partial tail.
//
// It is FrameClient's one decoder for server bytes, handshake included,
// both so the decode is testable byte-by-byte and because these are
// outside bytes: this is the seam the fuzz_reply_stream harness drives
// (differentially — a whole-buffer feed and a chunked feed must agree
// exactly).
//
// Not thread-safe; owned by a single FrameClient streaming thread.

#ifndef LDPM_NET_REPLY_PARSER_H_
#define LDPM_NET_REPLY_PARSER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/status.h"

namespace ldpm {
namespace net {

/// The server's close reply, decoded (see net/protocol.h).
struct StreamReply {
  /// OK for a fully acked stream; otherwise the server's error, with the
  /// byte-precise stream offset below.
  Status status;
  /// On error: offset of the first unconsumed frame byte (counted from
  /// after the preamble; session-absolute on resumable streams) —
  /// everything before it is ingested.
  uint64_t stream_offset = 0;
  /// On success: whole frames / frame bytes the server routed.
  uint64_t frames_routed = 0;
  uint64_t bytes_routed = 0;
};

/// The reply-record state machine (see file comment).
class StreamReplyParser {
 public:
  /// Absorbs `size` received bytes and decodes every record they
  /// complete; a record split across Feed calls is buffered until its
  /// remainder arrives. Returns InvalidArgument on an unknown reply code
  /// or on a hello that is not the connection's first record, naming its
  /// offset in the connection's reply stream; the parser stays poisoned
  /// afterwards (further Feeds return the same error without consuming
  /// anything — the stream cannot be resynchronized).
  Status Feed(const uint8_t* data, size_t size);

  /// The resume offset of this connection's hello, once decoded. A hello
  /// is accepted only as the first record since Reset (or construction).
  const std::optional<uint64_t>& hello() const { return hello_; }

  /// Highest acked session offset decoded so far (never decreases; a
  /// final ok's bytes_routed counts as an ack of everything).
  uint64_t acked_offset() const { return acked_offset_; }

  /// The final ok/error record, once one has arrived. An error reply
  /// carries status InvalidArgument("server rejected stream at byte
  /// <offset>: <message>"); an ok reply carries status OK and the routed
  /// counters.
  const std::optional<StreamReply>& final_reply() const {
    return final_reply_;
  }

  /// Bytes buffered awaiting the remainder of a split record.
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Forgets buffered bytes, the poison, the stream offset and the hello
  /// — the reconnect reset (a new connection starts a new reply stream).
  /// Decoded facts survive: acks are session-absolute and a verdict ends
  /// the stream no matter which connection delivered it.
  void Reset();

 private:
  std::vector<uint8_t> buffer_;
  /// Bytes consumed from this connection's reply stream — the error
  /// anchor for an unknown code or a misplaced hello.
  uint64_t stream_offset_ = 0;
  std::optional<uint64_t> hello_;
  uint64_t acked_offset_ = 0;
  std::optional<StreamReply> final_reply_;
  Status error_ = Status::OK();
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_REPLY_PARSER_H_
