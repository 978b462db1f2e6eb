// The network ingest stream protocol shared by net::IngestServer and
// net::FrameClient (see docs/wire-format.md, "Network stream framing").
//
// One protocol: a resumable session stream that routes every frame
// exactly once through connection churn.
//
//   client -> server:  16-byte preamble: "LDPMNET", version 0x02, then a
//                      u64 session token (nonzero, client-chosen, stable
//                      across this logical stream's reconnects).
//   server -> client:  hello := u8 0x02 | u64 resume_offset — the session
//                      stream bytes the server has already routed (0 for
//                      a new session). The client resumes its frame
//                      stream exactly there, replaying buffered frames
//                      the server never routed and nothing else.
//   client -> server:  collection frames (protocols/wire.h) continuing the
//                      session stream at resume_offset, then
//                      shutdown(SHUT_WR).
//   server -> client:  during the stream, one ack record after each
//                      routing round:  ack := u8 0x03 | u64 acked_offset
//                      (session-absolute routed bytes, monotone); then one
//                      final record once the stream ends, then close:
//
//     ok    :=  u8 0x00 | u64 frames_routed | u64 bytes_routed
//     error :=  u8 0x01 | u64 stream_offset | u16 message_length
//               | message bytes
//
//   All integers little-endian; all offsets and counters session-absolute.
//   `stream_offset` is the byte offset of the first unconsumed byte of the
//   session frame stream — frames before it are ingested and stay
//   ingested; the offset is byte-precise so a client can resync or replay.
//   Whole frames are the ingest unit, so every acked offset lands on a
//   frame boundary. Session state lives in server memory: it survives
//   connection churn (the failure mode it exists for), not server
//   restarts — after a restart the checkpoint is the recovery line, and
//   sessions start over at offset 0.
//
// The server may also reply with an error and close mid-stream (unknown
// collection id, oversized frame, server stop); the client then sees its
// sends fail or its reply read surface the error record. A connection
// that dies without a verdict — a transport failure, or a connection the
// server reaps for making no progress (idle, or not reading its records)
// — closes with a reset and no record, and the client reconnects and
// resumes.

#ifndef LDPM_NET_PROTOCOL_H_
#define LDPM_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>

namespace ldpm {
namespace net {

/// The protocol magic: 7 bytes naming the protocol. Distinct from the
/// checkpoint file magic ("LDPMCKPT") so a file accidentally piped at the
/// port is rejected.
inline constexpr uint8_t kPreambleMagic[7] = {'L', 'D', 'P', 'M',
                                              'N', 'E', 'T'};

/// The protocol version (the 8th preamble byte). Every other value —
/// version 1, the retired one-shot stream, included — is rejected.
inline constexpr uint8_t kVersion = 0x02;

/// Preamble size: magic, version byte, u64 session token.
inline constexpr size_t kPreambleBytes = sizeof(kPreambleMagic) + 1 + 8;

/// Reply/record status bytes.
inline constexpr uint8_t kReplyOk = 0x00;
inline constexpr uint8_t kReplyError = 0x01;
inline constexpr uint8_t kReplyHello = 0x02;  ///< u64 resume offset.
inline constexpr uint8_t kReplyAck = 0x03;    ///< u64 acked offset.

/// Longest error message a reply carries (the u16 length prefix's range;
/// longer messages are truncated by the server).
inline constexpr size_t kMaxReplyMessageBytes = 0xFFFF;

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_PROTOCOL_H_
