// Shared raw-socket HTTP helpers for the endpoint tests (HttpServer,
// QueryServer): one-shot requests, reading one response off a keep-alive
// connection, response splitting, and Prometheus-text series extraction.
// Header-only — every test binary is its own translation unit.

#ifndef LDPM_TESTS_NET_HTTP_COMMON_H_
#define LDPM_TESTS_NET_HTTP_COMMON_H_

#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "net/socket.h"

namespace ldpm {
namespace test {

inline constexpr char kHttpLoopback[] = "127.0.0.1";

/// Reads a socket to EOF, an error, or 10 s without a byte. The server
/// closes a connection after answering everything its client sent before
/// half-closing, and after any response that says `Connection: close`.
inline std::string ReadToEof(net::Socket& socket) {
  std::string response;
  uint8_t chunk[4096];
  for (;;) {
    auto n = socket.ReadSome(chunk, sizeof(chunk), std::chrono::seconds(10));
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(chunk), *n);
  }
  return response;
}

/// Reads exactly one response (head plus Content-Length body) off a
/// keep-alive connection. Bytes past it stay in `pending` for the next
/// call. "" on EOF, an error, or `timeout` without a byte.
inline std::string ReadOneResponse(
    net::Socket& socket, std::string& pending,
    std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  for (;;) {
    const size_t head_end = pending.find("\r\n\r\n");
    const size_t length_at = pending.find("Content-Length: ");
    if (head_end != std::string::npos && length_at < head_end) {
      const size_t total =
          head_end + 4 + std::stoul(pending.substr(length_at + 16));
      if (pending.size() >= total) {
        std::string response = pending.substr(0, total);
        pending.erase(0, total);
        return response;
      }
    }
    uint8_t chunk[4096];
    auto n = socket.ReadSome(chunk, sizeof(chunk), timeout);
    if (!n.ok() || *n == 0) return "";
    pending.append(reinterpret_cast<const char*>(chunk), *n);
  }
}

/// Writes all of `bytes`; false on any socket error.
inline bool SendAll(net::Socket& socket, const std::string& bytes) {
  return socket
      .WriteAll(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size())
      .ok();
}

/// One-shot HTTP request over a raw socket: sends `request` verbatim,
/// half-closes the write side (so a server collecting an intentionally
/// truncated head sees EOF instead of waiting, and closes once it has
/// answered), and reads to EOF.
inline std::string HttpRequest(uint16_t port, const std::string& request) {
  auto socket = net::Socket::Connect(kHttpLoopback, port);
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  if (!socket.ok()) return "";
  EXPECT_TRUE(socket
                  ->WriteAll(reinterpret_cast<const uint8_t*>(request.data()),
                             request.size())
                  .ok());
  (void)socket->ShutdownWrite();
  return ReadToEof(*socket);
}

inline std::string HttpGet(uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

/// The body after the header terminator ("" when the response is
/// malformed) — for byte-precise error-path assertions.
inline std::string ResponseBody(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// Extracts the value of series `name` from a Prometheus text body; -1
/// when the series is absent.
inline double SeriesValue(const std::string& body, const std::string& name) {
  size_t pos = 0;
  while ((pos = body.find(name + " ", pos)) != std::string::npos) {
    // Must be at line start and not a prefix of a longer name.
    if (pos != 0 && body[pos - 1] != '\n') {
      pos += name.size();
      continue;
    }
    return std::stod(body.substr(pos + name.size() + 1));
  }
  return -1.0;
}

}  // namespace test
}  // namespace ldpm

#endif  // LDPM_TESTS_NET_HTTP_COMMON_H_
