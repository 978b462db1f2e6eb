// HTTP plumbing for the read/admin endpoint.
//
// net::QueryServer is a GET-only HTTP service: readers that ask for many
// small answers in a row, plus the occasional /metrics scrape. HttpServer
// is its plumbing, kept apart from the routes — a single-threaded epoll
// loop over keep-alive connections, request-head framing with byte caps,
// one no-progress deadline, request-line parsing, and response rendering
// — so the endpoint above it is a pure `HttpRequest -> HttpResponse`
// function.
//
// Protocol surface (deliberately minimal, byte-precise, and tested in
// tests/net/http_server_test.cc):
//
//   * GET only: any other method is answered `405 Method Not Allowed`
//     before the handler runs.
//   * The request head is read until CRLFCRLF (or LFLF); bodies are never
//     read. A head that reaches kMaxHttpRequestBytes without terminating is
//     answered `400 Bad Request` ("request too large"); one that does not
//     parse as a request line, or that EOF cuts short, is answered `400`
//     ("malformed request").
//   * Keep-alive: an HTTP/1.1 connection stays open after each response
//     unless the request says `Connection: close`. HTTP/1.0 requests,
//     requests that announce a body (any Transfer-Encoding, or a
//     Content-Length other than 0: the body is not read, so it must not be
//     taken for the next request), and every 400, 405, 408 and 503 close
//     after the response. Every response states which with
//     `Connection: keep-alive` or `Connection: close`.
//   * Pipelining: requests sent back to back on one connection are
//     answered in order, one response in flight at a time; the next head
//     is not read until the previous response is written.
//   * One deadline: a connection that makes no read or write progress for
//     idle_timeout is closed — answered `408 Request Timeout` when it
//     stalls mid-head (the slowloris defense), closed silently when it
//     idles between requests, and reset when it stops reading its
//     response. No client can hold the loop: every socket is non-blocking,
//     and each wake reads at most 4 KiB from a connection before the loop
//     moves on to the others.
//   * At most kMaxHttpConnections are open at once; a connection accepted
//     beyond that is answered `503 Service Unavailable` and closed.
//   * The query string is split off the path and exposed to the handler
//     (HttpRequest::Param); no percent-decoding is performed.
//
// Everything — accept, read, the handler, write, deadlines — runs on one
// serve thread, so a handler must not block indefinitely: every other
// connection waits behind it.

#ifndef LDPM_NET_HTTP_SERVER_H_
#define LDPM_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "core/status.h"
#include "core/sync.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {

/// Open connections one HttpServer serves at once; the next one accepted
/// is answered 503 and closed.
inline constexpr size_t kMaxHttpConnections = 256;

/// Cap on request-head bytes read before answering; a client that streams
/// an oversized head is answered 400 and closed.
inline constexpr size_t kMaxHttpRequestBytes = 8 * 1024;

struct HttpServerOptions {
  /// Numeric IPv4 address to bind.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// The no-progress deadline: a connection that neither delivers a byte
  /// nor accepts one for this long is closed (see the file comment).
  /// Must be > 0.
  std::chrono::milliseconds idle_timeout{10000};
  /// Optional counter incremented once per answered request, any status
  /// (must outlive the server). The endpoint's operational request count.
  obs::Counter* requests_counter = nullptr;
  /// Optional gauge of the connections open now (must outlive the server).
  obs::Gauge* connections = nullptr;
  /// Optional counter of connections answered 503 because
  /// kMaxHttpConnections were open (must outlive the server).
  obs::Counter* connections_shed = nullptr;
};

/// One parsed GET request as handed to the handler.
struct HttpRequest {
  std::string method;
  /// Path with any query string removed ("/v1/marginal").
  std::string path;
  /// Raw query string after '?', possibly empty ("collection=x&attrs=0,2").
  std::string query;

  /// Value of `key` in the query string ("k=v" pairs joined by '&');
  /// nullopt when absent. A bare "k" (no '=') yields an empty value. No
  /// percent-decoding. The first occurrence wins.
  std::optional<std::string> Param(std::string_view key) const;
};

/// What a handler returns; rendered with Content-Length and a Connection
/// header.
struct HttpResponse {
  int code = 200;
  std::string content_type = "text/plain";
  std::string body;
};

/// Where the first request head in a connection's byte stream ends, and
/// what it asks of the connection.
struct HttpHeadSplit {
  /// Bytes of the head, terminator included; 0 while the terminator has
  /// not arrived.
  size_t length = 0;
  /// True when the connection may stay open after this request's
  /// response: an "HTTP/1.1" request line, no `close` token in any
  /// Connection header, no Transfer-Encoding header, and no Content-Length
  /// other than 0 (names and tokens case-insensitive).
  bool keep_alive = false;
};

/// Splits the first request head off `stream` — the bytes up to and
/// including the earliest CRLFCRLF or LFLF — and scans its header lines
/// for `Connection: close` and a body. Bytes after the head (pipelined
/// requests, or an unread body) are not looked at. Pure and total over
/// arbitrary bytes: with ParseHttpRequestHead, the request-parsing seam the
/// fuzz_http_request harness drives.
HttpHeadSplit SplitHttpRequestHead(std::string_view stream);

/// Parses a collected request head ("METHOD SP TARGET SP VERSION..."),
/// splitting the query string off the path, into `out`. Returns false on
/// anything that does not parse as a request line with a non-empty path —
/// the server answers 400 without consulting the handler. Accepts any
/// method token (the GET-only policy is enforced separately, as 405).
/// Pure and total over arbitrary bytes.
bool ParseHttpRequestHead(std::string_view head, HttpRequest* out);

/// The standard reason phrase for the codes this layer emits; "Status"
/// for anything unrecognized (the response stays well-formed).
std::string_view HttpReasonPhrase(int code);

/// Renders a full HTTP/1.1 response (status line, Content-Type,
/// Content-Length, `Connection: keep-alive` or `Connection: close`, body).
std::string RenderHttpResponse(const HttpResponse& response, bool keep_alive);

/// Routes one parsed request. Runs on the serve thread; must not block
/// indefinitely (every other connection waits behind it).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// The keep-alive GET server (see file comment).
class HttpServer {
 public:
  /// Binds, listens, and starts the serve thread. Anything the handler
  /// captures must outlive the returned server.
  static StatusOr<std::unique_ptr<HttpServer>> Start(
      HttpHandler handler,
      const HttpServerOptions& options = HttpServerOptions());

  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Wakes the serve thread, joins it, and closes the listener and every
  /// open connection; a response still in flight is abandoned.
  /// Idempotent.
  void Stop() LDPM_EXCLUDES(stop_mu_);

  /// Requests answered so far (any status, including 4xx).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  class Loop;

  HttpServer(HttpHandler handler, const HttpServerOptions& options);

  const HttpHandler handler_;
  const HttpServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  /// The epoll instance and the eventfd Stop() signals; closed by the
  /// destructor, after the serve thread is joined.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<uint64_t> requests_served_{0};
  std::thread serve_thread_;

  /// Serializes Stop(): deliberately held across the serve-thread join so
  /// a second caller returns only once the first stop completed.
  core::Mutex stop_mu_;
  bool stopped_ LDPM_GUARDED_BY(stop_mu_) = false;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_HTTP_SERVER_H_
