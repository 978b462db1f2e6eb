// The HTTP plumbing under QueryServer, probed at the byte level through
// raw sockets (tests/net/http_common.h): routing and Param parsing,
// keep-alive and pipelining, the adversarial-client defenses (oversized
// head, slowloris stall, idle and non-reading clients, the connection
// cap), and the 4xx/405 surface.

#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/http_common.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {
namespace {

using test::HttpGet;
using test::HttpRequest;
using test::ReadOneResponse;
using test::ReadToEof;
using test::ResponseBody;
using test::SendAll;
using Clock = std::chrono::steady_clock;

/// Handler that echoes the parsed request so tests can assert on what
/// the plumbing delivered.
HttpResponse Echo(const ldpm::net::HttpRequest& request) {
  std::string body = "method=" + request.method + ";path=" + request.path +
                     ";query=" + request.query;
  const auto a = request.Param("a");
  body += ";a=" + (a.has_value() ? *a : std::string("<absent>"));
  const auto flag = request.Param("flag");
  body += ";flag=" + (flag.has_value() ? *flag : std::string("<absent>"));
  return {200, "text/plain", body + "\n"};
}

std::unique_ptr<HttpServer> StartEcho(
    HttpServerOptions options = HttpServerOptions()) {
  auto server = HttpServer::Start(Echo, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return *std::move(server);
}

Socket MustConnect(uint16_t port) {
  auto socket = Socket::Connect(test::kHttpLoopback, port);
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  return socket.ok() ? *std::move(socket) : Socket();
}

/// A client that will not read: a 4 KiB receive buffer, and a 536-byte
/// MSS. On loopback the server sizes its send buffer from the MSS, so
/// the small one caps what the server can queue for this client at about
/// 64 KiB instead of megabytes. Both are set before connecting.
Socket ConnectSmallWindow(uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  const int mss = 536;
  const int rcvbuf = 4096;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!socket.valid() ||
      ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_MAXSEG, &mss,
                   sizeof(mss)) != 0 ||
      ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                   sizeof(rcvbuf)) != 0 ||
      ::inet_pton(AF_INET, test::kHttpLoopback, &addr.sin_addr) != 1 ||
      ::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Socket();
  }
  return socket;
}

/// Number of "HTTP/1.1 " status lines in a response stream.
size_t StatusLines(const std::string& responses) {
  size_t count = 0;
  for (size_t pos = 0;
       (pos = responses.find("HTTP/1.1 ", pos)) != std::string::npos;
       pos += 9) {
    ++count;
  }
  return count;
}

TEST(HttpServer, ParsesPathQueryAndParams) {
  auto server = StartEcho();
  const std::string response =
      HttpGet(server->port(), "/x/y?a=1&flag&b=2&a=shadowed");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(ResponseBody(response),
            "method=GET;path=/x/y;query=a=1&flag&b=2&a=shadowed;a=1;flag=\n");
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(HttpServer, NoQueryStringMeansNoParams) {
  auto server = StartEcho();
  EXPECT_EQ(ResponseBody(HttpGet(server->port(), "/plain")),
            "method=GET;path=/plain;query=;a=<absent>;flag=<absent>\n");
}

TEST(HttpServer, NonGetMethodIs405BeforeTheHandlerRuns) {
  auto server = StartEcho();
  const std::string response = HttpRequest(
      server->port(), "POST /x HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "only GET is supported\n");
  // Still counted: requests_served is the operational total, any status.
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(HttpServer, GarbageRequestLineIs400Malformed) {
  auto server = StartEcho();
  // No spaces: a line with spaces parses as a (non-GET) request line and
  // is answered 405 instead.
  const std::string response =
      HttpRequest(server->port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "malformed request\n");
}

TEST(HttpServer, EarlyEofIs400Malformed) {
  auto server = StartEcho();
  // Close without ever finishing the head.
  const std::string response = HttpRequest(server->port(), "GET /x HT");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "malformed request\n");
}

TEST(HttpServer, RequestHeadLargerThanBufferIs400RequestTooLarge) {
  auto server = StartEcho();
  // A head just over the cap: the server answers once the cap is read.
  const std::string response = HttpRequest(
      server->port(), "GET /" + std::string(kMaxHttpRequestBytes, 'x') +
                          " HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "request too large\n");
}

TEST(HttpServer, SlowlorisStallMidHeadIs408UnderIdleTimeout) {
  HttpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto server = StartEcho(options);
  auto socket = Socket::Connect(test::kHttpLoopback, server->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  // Send a partial head, then go silent — never the CRLFCRLF terminator.
  const std::string partial = "GET /slow HTTP/1.1\r\nHost: x\r\n";
  ASSERT_TRUE(socket
                  ->WriteAll(reinterpret_cast<const uint8_t*>(partial.data()),
                             partial.size())
                  .ok());
  const std::string response = test::ReadToEof(*socket);
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "request timed out\n");
}

TEST(HttpServer, PipelinedRequestsAreAnsweredInOrder) {
  auto server = StartEcho();
  // Two complete requests in one write: both are answered, in order, on
  // the one connection, which stays open until the client's EOF.
  const std::string response = HttpRequest(
      server->port(),
      "GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLines(response), 2u);
  const size_t first = response.find("path=/first");
  const size_t second = response.find("path=/second");
  ASSERT_NE(first, std::string::npos) << response;
  ASSERT_NE(second, std::string::npos) << response;
  EXPECT_LT(first, second);
  EXPECT_EQ(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 2u);
}

TEST(HttpServer, KeepAliveAnswersSequentialRequestsOnOneConnection) {
  auto server = StartEcho();
  Socket socket = MustConnect(server->port());
  std::string pending;
  for (const char* path : {"/one", "/two"}) {
    ASSERT_TRUE(SendAll(socket, std::string("GET ") + path +
                                    " HTTP/1.1\r\nHost: x\r\n\r\n"));
    const std::string response = ReadOneResponse(socket, pending);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << path;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
    EXPECT_NE(ResponseBody(response).find(std::string("path=") + path),
              std::string::npos);
  }
  EXPECT_EQ(server->requests_served(), 2u);
}

TEST(HttpServer, ConnectionCloseHttp10And400CloseAfterTheResponse) {
  auto server = StartEcho();
  const struct {
    const char* request;
    const char* status;
  } cases[] = {
      // Header name and token are case-insensitive; other tokens may ride
      // along in the list.
      {"GET /a HTTP/1.1\r\nHost: x\r\nconnection: Upgrade, CLOSE\r\n\r\n",
       "HTTP/1.1 200 OK"},
      {"GET /b HTTP/1.0\r\n\r\n", "HTTP/1.1 200 OK"},
      {"garbage\r\n\r\n", "HTTP/1.1 400"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.request);
    // No half-close: the server's close alone ends the read, long before
    // the 10 s idle deadline would.
    Socket socket = MustConnect(server->port());
    const auto sent = Clock::now();
    ASSERT_TRUE(SendAll(socket, c.request));
    const std::string response = ReadToEof(socket);
    EXPECT_LT(Clock::now() - sent, std::chrono::seconds(5));
    EXPECT_EQ(StatusLines(response), 1u);
    EXPECT_NE(response.find(c.status), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
  }
}

// Bodies are never read, so a request that carries one must be its
// connection's last: otherwise body bytes shaped like a request would be
// answered as one (request smuggling behind a connection-reusing proxy).
TEST(HttpServer, RequestWithABodyClosesSoTheBodyIsNeverARequest) {
  auto server = StartEcho();
  const std::string smuggled = "GET /y HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string length =
      "Content-Length: " + std::to_string(smuggled.size()) + "\r\n";
  const struct {
    std::string request;
    const char* status;
  } cases[] = {
      {"POST /x HTTP/1.1\r\n" + length + "\r\n" + smuggled, "HTTP/1.1 405"},
      {"GET /x HTTP/1.1\r\ncontent-length:" + std::to_string(smuggled.size()) +
           "\r\n\r\n" + smuggled,
       "HTTP/1.1 200 OK"},
      {"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
           smuggled,
       "HTTP/1.1 200 OK"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.request);
    Socket socket = MustConnect(server->port());
    ASSERT_TRUE(SendAll(socket, c.request));
    const std::string response = ReadToEof(socket);
    EXPECT_EQ(StatusLines(response), 1u) << response;
    EXPECT_NE(response.find(c.status), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
    EXPECT_EQ(response.find("path=/y"), std::string::npos) << response;
  }
  EXPECT_EQ(server->requests_served(), 3u);

  // A zero Content-Length announces no body: the connection stays open.
  Socket socket = MustConnect(server->port());
  std::string pending;
  ASSERT_TRUE(
      SendAll(socket, "GET /z HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_NE(ReadOneResponse(socket, pending).find("Connection: keep-alive"),
            std::string::npos);
}

TEST(HttpServer, IdleKeepAliveConnectionIsClosedAfterIdleTimeout) {
  HttpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto server = StartEcho(options);
  Socket socket = MustConnect(server->port());
  std::string pending;
  ASSERT_TRUE(SendAll(socket, "GET /x HTTP/1.1\r\n\r\n"));
  ASSERT_NE(ReadOneResponse(socket, pending).find("200 OK"),
            std::string::npos);
  // Idle between requests: closed silently once the deadline passes.
  const auto idle_since = Clock::now();
  uint8_t byte;
  auto n = socket.ReadSome(&byte, 1, std::chrono::seconds(5));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 0u);
  EXPECT_GE(Clock::now() - idle_since, std::chrono::milliseconds(90));
}

TEST(HttpServer, StartRejectsNonPositiveIdleTimeout) {
  for (const int ms : {0, -1}) {
    HttpServerOptions options;
    options.idle_timeout = std::chrono::milliseconds(ms);
    auto server = HttpServer::Start(Echo, options);
    ASSERT_FALSE(server.ok()) << ms;
    EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
  }
}

// The stall regression: a serial accept-and-serve loop answers nobody else
// while one client holds it silent or stops reading. Here a fresh reader
// is answered at once, and the one deadline then closes every stalled
// connection.
TEST(HttpServer, StalledClientsDoNotDelayOtherReaders) {
  constexpr int kStalled = 8;
  HttpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(200);
  // Four pipelined 64 KiB answers outgrow what the server can buffer for
  // a non-reader (see ConnectSmallWindow), so its writes to them block.
  const std::string big(64 << 10, 'b');
  auto started = HttpServer::Start(
      [&big](const ldpm::net::HttpRequest& request) -> HttpResponse {
        if (request.path == "/big") return {200, "text/plain", big};
        return {200, "text/plain", "ok\n"};
      },
      options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto server = *std::move(started);

  std::vector<Socket> silent;
  std::vector<Socket> non_readers;
  std::string pipelined;
  for (int i = 0; i < 4; ++i) pipelined += "GET /big HTTP/1.1\r\n\r\n";
  for (int i = 0; i < kStalled; ++i) {
    silent.push_back(MustConnect(server->port()));
    Socket reader = ConnectSmallWindow(server->port());
    ASSERT_TRUE(reader.valid());
    ASSERT_TRUE(SendAll(reader, pipelined));
    non_readers.push_back(std::move(reader));
  }

  Socket fresh = MustConnect(server->port());
  const auto sent = Clock::now();
  ASSERT_TRUE(SendAll(fresh, "GET /healthz HTTP/1.1\r\n\r\n"));
  std::string pending;
  const std::string response =
      ReadOneResponse(fresh, pending, std::chrono::milliseconds(500));
  EXPECT_LT(Clock::now() - sent, std::chrono::milliseconds(500));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "ok\n");
  fresh.Close();

  // Then the deadline closes every stalled connection. Let it pass before
  // reading, since reading is progress; one bound caps the whole check.
  std::this_thread::sleep_for(3 * options.idle_timeout);
  const auto give_up = Clock::now() + std::chrono::seconds(3);
  const auto remaining = [&give_up] {
    return std::max(std::chrono::milliseconds(1),
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        give_up - Clock::now()));
  };
  // Silent connections idle between requests: closed without a response.
  for (Socket& socket : silent) {
    uint8_t byte;
    auto n = socket.ReadSome(&byte, 1, remaining());
    EXPECT_TRUE(n.ok() && *n == 0) << "silent connection not closed";
  }
  // Non-readers are reset, not closed gracefully: the server was still
  // writing to them.
  for (Socket& socket : non_readers) {
    uint8_t chunk[65536];
    Status closed = Status::OK();
    for (;;) {
      auto n = socket.ReadSome(chunk, sizeof(chunk), remaining());
      if (!n.ok()) {
        closed = n.status();
        break;
      }
      if (*n == 0) break;
    }
    EXPECT_EQ(closed.code(), StatusCode::kUnavailable)
        << "non-reading connection not reset: " << closed.ToString();
  }
}

// A client that keeps requests queued and reads every answer keeps its
// connection readable forever; it still gets one read's worth of requests
// per wake, so a fresh reader is answered and Stop() returns promptly.
TEST(HttpServer, PipeliningClientDoesNotHoldTheLoop) {
  // Answering /busy is slower than the client queues it, so that
  // connection never runs dry: a loop that reads until a short read would
  // never leave it.
  auto started = HttpServer::Start(
      [](const ldpm::net::HttpRequest& request) -> HttpResponse {
        if (request.path == "/busy") {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        return {200, "text/plain", request.path + "\n"};
      });
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto server = *std::move(started);
  Socket busy = MustConnect(server->port());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::string batch;
    while (batch.size() < (16u << 10)) batch += "GET /busy HTTP/1.1\r\n\r\n";
    while (!done.load() && SendAll(busy, batch)) {
    }
  });
  std::thread reader([&] {
    uint8_t chunk[65536];
    while (!done.load()) {
      auto n = busy.ReadSome(chunk, sizeof(chunk), std::chrono::milliseconds(50));
      if (n.ok() && *n == 0) break;
      if (!n.ok() && n.status().code() != StatusCode::kDeadlineExceeded) break;
    }
  });
  // Let the busy client's requests pile up first.
  while (server->requests_served() < 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Socket fresh = MustConnect(server->port());
  const auto sent = Clock::now();
  ASSERT_TRUE(SendAll(fresh, "GET /fresh HTTP/1.1\r\n\r\n"));
  std::string pending;
  const std::string response =
      ReadOneResponse(fresh, pending, std::chrono::milliseconds(500));
  EXPECT_LT(Clock::now() - sent, std::chrono::milliseconds(500));
  EXPECT_EQ(ResponseBody(response), "/fresh\n");

  // Stop while the busy client is still going. A held loop never sees the
  // stop signal, so give up on the client after 2 s rather than hang: the
  // loop then drains, and the check below fails instead.
  std::atomic<bool> stopped{false};
  const auto stop_began = Clock::now();
  std::thread stopper([&] {
    server->Stop();
    stopped.store(true);
  });
  while (!stopped.load() && Clock::now() - stop_began < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stop_took = Clock::now() - stop_began;
  done.store(true);
  stopper.join();
  writer.join();
  reader.join();
  EXPECT_LT(stop_took, std::chrono::milliseconds(500));
}

TEST(HttpServer, ConnectionPastTheCapIs503AndOpenOnesStillServed) {
  obs::MetricsRegistry registry;
  HttpServerOptions options;
  options.connections = registry.GetGauge("test_http_connections");
  options.connections_shed = registry.GetCounter("test_http_shed_total");
  auto server = StartEcho(options);
  std::vector<Socket> open;
  for (size_t i = 0; i < kMaxHttpConnections; ++i) {
    open.push_back(MustConnect(server->port()));
  }
  Socket extra = MustConnect(server->port());
  const std::string shed = ReadToEof(extra);
  EXPECT_NE(shed.find("HTTP/1.1 503 Service Unavailable"), std::string::npos)
      << shed;
  EXPECT_NE(shed.find("Connection: close"), std::string::npos);
  EXPECT_EQ(ResponseBody(shed), "too many connections\n");
  EXPECT_EQ(registry.CounterValue("test_http_shed_total"), 1u);
  EXPECT_EQ(options.connections->Value(),
            static_cast<int64_t>(kMaxHttpConnections));

  std::string pending;
  ASSERT_TRUE(SendAll(open.front(), "GET /still HTTP/1.1\r\n\r\n"));
  EXPECT_NE(ResponseBody(ReadOneResponse(open.front(), pending))
                .find("path=/still"),
            std::string::npos);
  ASSERT_TRUE(SendAll(open.back(), "GET /last HTTP/1.1\r\n\r\n"));
  EXPECT_NE(ResponseBody(ReadOneResponse(open.back(), pending))
                .find("path=/last"),
            std::string::npos);
  // Shedding does not answer a request, so it is not counted as one.
  EXPECT_EQ(server->requests_served(), 2u);
}

TEST(HttpServer, RequestsCounterTracksAnsweredRequestsAnyStatus) {
  obs::MetricsRegistry metrics;
  HttpServerOptions options;
  options.requests_counter =
      metrics.GetCounter("test_http_requests_total", "test");
  auto server = StartEcho(options);
  HttpGet(server->port(), "/ok");
  HttpRequest(server->port(), "PUT /x HTTP/1.1\r\n\r\n");  // 405, still counted
  EXPECT_EQ(metrics.CounterValue("test_http_requests_total"), 2u);
}

TEST(HttpServer, StopIsIdempotentAndServerRestartsCleanly) {
  auto server = StartEcho();
  const uint16_t port = server->port();
  EXPECT_GT(port, 0);
  server->Stop();
  server->Stop();
  // The port is free again for the next server.
  HttpServerOptions options;
  options.port = port;
  auto second = HttpServer::Start(Echo, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ResponseBody(HttpGet(port, "/again")),
            "method=GET;path=/again;query=;a=<absent>;flag=<absent>\n");
}

}  // namespace
}  // namespace net
}  // namespace ldpm
