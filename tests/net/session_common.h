// A hand-driven ingest session for the IngestServer tests: the preamble
// and the server's hello by hand, then arbitrary bytes on the wire —
// frames split at awkward points, half frames, bare headers — which
// FrameClient, a whole-frame sender, never produces. Header-only — every
// test binary is its own translation unit.

#ifndef LDPM_TESTS_NET_SESSION_COMMON_H_
#define LDPM_TESTS_NET_SESSION_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/status.h"
#include "net/protocol.h"
#include "net/reply_parser.h"
#include "net/socket.h"

namespace ldpm {
namespace test {

inline constexpr std::chrono::seconds kRawSessionTimeout{10};

/// Opens session `token` on the loopback server at `port`: writes the
/// 16-byte preamble, reads the hello, and returns the socket, positioned
/// at the session's resume offset (0 for a new token).
inline StatusOr<net::Socket> OpenRawSession(uint16_t port, uint64_t token) {
  auto socket = net::Socket::Connect("127.0.0.1", port, kRawSessionTimeout);
  if (!socket.ok()) return socket.status();
  uint8_t preamble[net::kPreambleBytes];
  std::memcpy(preamble, net::kPreambleMagic, sizeof(net::kPreambleMagic));
  preamble[sizeof(net::kPreambleMagic)] = net::kVersion;
  for (int b = 0; b < 8; ++b) {
    preamble[sizeof(net::kPreambleMagic) + 1 + b] =
        static_cast<uint8_t>(token >> (8 * b));
  }
  LDPM_RETURN_IF_ERROR(
      socket->WriteAll(preamble, sizeof(preamble), kRawSessionTimeout));
  uint8_t hello[9];
  LDPM_RETURN_IF_ERROR(
      socket->ReadExact(hello, sizeof(hello), kRawSessionTimeout));
  if (hello[0] != net::kReplyHello) {
    return Status::Internal("expected a hello record, got reply code " +
                            std::to_string(hello[0]));
  }
  return socket;
}

/// Reads the server's records (acks included) up to its final ok/error
/// record. FailedPrecondition when the connection ends first.
inline StatusOr<net::StreamReply> ReadFinalReply(net::Socket& socket) {
  net::StreamReplyParser parser;
  uint8_t chunk[4096];
  while (!parser.final_reply().has_value()) {
    auto n = socket.ReadSome(chunk, sizeof(chunk), kRawSessionTimeout);
    if (!n.ok()) return n.status();
    if (*n == 0) {
      return Status::FailedPrecondition(
          "connection closed before the final reply");
    }
    LDPM_RETURN_IF_ERROR(parser.Feed(chunk, *n));
  }
  return *parser.final_reply();
}

/// Ends a raw session: half-closes it, then reads the final reply. The
/// half-close may fail harmlessly when a verdict already closed the
/// connection.
inline StatusOr<net::StreamReply> FinishRawSession(net::Socket& socket) {
  (void)socket.ShutdownWrite();
  return ReadFinalReply(socket);
}

}  // namespace test
}  // namespace ldpm

#endif  // LDPM_TESTS_NET_SESSION_COMMON_H_
