// Client side of the network ingest stream: connects to a
// net::IngestServer, streams collection frames, and reads the server's
// close reply.
//
// Every stream is a resumable session (see net/protocol.h for the wire
// format): the client names its stream with a session token, buffers
// every sent frame until the server acks it, and on any transport failure
// reconnects with capped-exponential-backoff-plus-jitter, replaying
// exactly the frames the server's resume offset says were never routed.
// Whole frames are the ingest unit and the server's offsets are
// byte-precise, so a stream delivered through any number of connection
// drops routes each frame exactly once. Server verdicts (rejected stream,
// shed, unknown collection) are never retried — only transport failures
// without a verdict are.
//
// Callers bring their own wire batches exactly as they would hand them to
// Collector::IngestFrames. Consecutive unsent frames leave in gathered
// writes, so a bulk SendBytes costs one system call per run of frames,
// not one per frame. A saturated server makes sends block (the kernel's
// TCP flow control), and max_unacked_bytes bounds the replay buffer.
//
// All operations honor the configured connect/send/recv deadlines, so a
// stalled or half-open peer surfaces as DeadlineExceeded instead of a hang.

#ifndef LDPM_NET_FRAME_CLIENT_H_
#define LDPM_NET_FRAME_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "net/reply_parser.h"
#include "net/socket.h"

namespace ldpm {
namespace net {

/// Reconnect/backoff schedule: attempt k (k >= 1) sleeps
/// initial_backoff * 2^(k-1), capped at max_backoff, then scaled by a
/// uniform factor in [0.8, 1.2] (drawn from a PRNG seeded by the session
/// token) so a fleet of clients dropped by one server event does not
/// reconnect in lockstep.
struct RetryPolicy {
  /// Total attempts per operation (first try included); <= 1 disables
  /// retry.
  int max_attempts = 5;
  std::chrono::milliseconds initial_backoff{50};
  std::chrono::milliseconds max_backoff{2000};
};

struct FrameClientOptions {
  /// Deadline for each TCP connect (0 = block indefinitely).
  std::chrono::milliseconds connect_timeout{5000};
  /// No-progress deadline for each send against a stalled peer: it fails
  /// only when the peer accepts no byte for this long (Socket::WriteAll).
  std::chrono::milliseconds send_timeout{30000};
  /// Deadline for each wait on a server ack or final reply.
  std::chrono::milliseconds recv_timeout{30000};
  RetryPolicy retry;
  /// Pause sends once this many stream bytes are unacked, waiting for acks
  /// (bounds the replay buffer). 0 = unbounded.
  size_t max_unacked_bytes = 64u << 20;
};

// StreamReply — the server's close reply, decoded — lives in
// net/reply_parser.h next to the record parser that produces it.

/// One logical ingest stream (see the file comment). Move-only; not
/// thread-safe — one streaming thread per client.
class FrameClient {
 public:
  FrameClient() = default;
  FrameClient(FrameClient&&) = default;
  FrameClient& operator=(FrameClient&&) = default;

  /// Connects, retrying transport failures per options.retry, and opens
  /// the session (preamble + the server's hello).
  static StatusOr<FrameClient> Connect(const std::string& address,
                                       uint16_t port,
                                       FrameClientOptions options = {});

  /// Frames `payload` (a wire batch, possibly empty) for `collection_id`
  /// and streams it. Blocks while the server applies backpressure. Also
  /// absorbs acks, enforces the unacked-byte cap, and transparently
  /// reconnects + replays on transport failure; a server verdict (error
  /// reply) is returned as-is and ends the stream.
  Status SendFrame(std::string_view collection_id, const uint8_t* payload,
                   size_t payload_size);
  Status SendFrame(std::string_view collection_id,
                   const std::vector<uint8_t>& payload);

  /// Streams pre-framed stream bytes (a concatenation of collection
  /// frames, e.g. a spooled mux file), with SendFrame's semantics. Replay
  /// is frame-granular, so the bytes must be whole frames: the frames
  /// before a partial trailing frame are sent, and the tail is rejected
  /// client-side with InvalidArgument.
  Status SendBytes(const uint8_t* data, size_t size);

  /// Marks end-of-stream (half-close), waits for the server to absorb
  /// everything, and returns its decoded reply — or the verdict that
  /// already ended the stream. Retries through transport failures until a
  /// verdict arrives or attempts run out. The stream is done afterwards.
  StatusOr<StreamReply> Finish();

  /// Hard-closes without end-of-stream — the "client died mid-stream"
  /// path. Frames the server already received stay ingested; the replay
  /// buffer is dropped.
  void Abort();

  /// The session token in use: random, drawn at Connect.
  uint64_t session_token() const { return session_token_; }
  /// Successful reconnects after the initial connect.
  uint64_t reconnects() const { return reconnects_; }
  /// Frames retransmitted during resume (each counted per retransmission).
  uint64_t frames_replayed() const { return frames_replayed_; }
  /// Stream bytes sent but not yet acked.
  uint64_t unacked_bytes() const { return next_offset_ - acked_offset_; }

 private:
  Status CheckSendable() const;
  Status EnsureConnected();
  Status Handshake();
  Status TransmitPending();
  Status PumpWithRetry();
  Status PumpOnce();
  Status FinishOnce();
  Status AbsorbReplyBytes(const uint8_t* data, size_t size);
  Status PollAcksNonBlocking();
  Status WaitForReply(std::chrono::milliseconds timeout);
  /// The status of a final record that arrived before end-of-stream: the
  /// server's error, or a protocol violation for an early ok.
  Status EarlyVerdict() const;
  void TrySalvageVerdict();
  void TrimAcked();
  std::chrono::milliseconds BackoffFor(int completed_attempts);
  uint64_t NextRand();
  /// The server's final ok/error record, once one has arrived on any
  /// connection.
  const std::optional<StreamReply>& final_reply() const {
    return reply_parser_.final_reply();
  }
  /// The server's error verdict; OK while there is none.
  Status Verdict() const {
    return final_reply() ? final_reply()->status : Status::OK();
  }

  Socket socket_;
  FrameClientOptions options_;
  bool finished_ = false;
  std::string address_;
  uint16_t port_ = 0;
  uint64_t session_token_ = 0;
  uint64_t rng_state_ = 0;

  /// Sent-but-unacked whole frames, oldest first; pending_base_ is the
  /// session-stream offset of the front frame's first byte.
  std::deque<std::vector<uint8_t>> pending_;
  uint64_t pending_base_ = 0;
  /// Session offset one past the last appended frame.
  uint64_t next_offset_ = 0;
  /// Session offset transmitted on the *current* connection (frame-aligned)
  /// and the index in pending_ of the first frame past it — the next frame
  /// to send.
  uint64_t sent_offset_ = 0;
  size_t unsent_index_ = 0;
  /// Highest server-acked session offset.
  uint64_t acked_offset_ = 0;
  /// High-water transmitted offset across all connections (replay stats).
  uint64_t high_water_ = 0;

  /// Decodes every server record, the hello included (records can split
  /// across reads); reset on reconnect — a new connection starts a new
  /// reply stream, while acks and the final reply survive.
  StreamReplyParser reply_parser_;

  uint64_t connects_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t frames_replayed_ = 0;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_FRAME_CLIENT_H_
