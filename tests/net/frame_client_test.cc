// FrameClient tests against scripted fake servers: refused connects,
// resets mid-send, handshake rejections, malformed and truncated reply
// records, and a bulk SendBytes that must arrive byte-exact across its
// gathered writes. Every failure must surface as a precise Status — the
// client may never hang. Happy-path resume/retry behavior against the real
// server lives in tests/integration/chaos_test.cc.

#include "net/frame_client.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "net/socket.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using net::FrameClient;
using net::FrameClientOptions;
using net::Socket;

constexpr char kLoopback[] = "127.0.0.1";

void WriteU64(uint64_t value, uint8_t* bytes) {
  for (int b = 0; b < 8; ++b) bytes[b] = uint8_t(value >> (8 * b));
}

/// Options tuned so every failure mode resolves in well under a second per
/// attempt: tests assert errors, not patience.
FrameClientOptions FastOptions(int attempts = 1) {
  FrameClientOptions options;
  options.connect_timeout = std::chrono::milliseconds(2000);
  options.send_timeout = std::chrono::milliseconds(2000);
  options.recv_timeout = std::chrono::milliseconds(300);
  options.retry.max_attempts = attempts;
  options.retry.initial_backoff = std::chrono::milliseconds(10);
  options.retry.max_backoff = std::chrono::milliseconds(50);
  return options;
}

/// Accepts exactly one connection and hands it to `handler` on a
/// background thread. The listener stays open (so reconnect attempts can
/// complete the TCP handshake and then time out against the deadline
/// instead of racing a closed port).
class FakeServer {
 public:
  explicit FakeServer(std::function<void(Socket)> handler) {
    auto listener = Socket::Listen(kLoopback, 0, 4);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = *std::move(listener);
    auto port = listener_.local_port();
    EXPECT_TRUE(port.ok());
    port_ = *port;
    thread_ = std::thread([this, handler = std::move(handler)] {
      auto conn = listener_.Accept();
      if (conn.ok()) handler(*std::move(conn));
    });
  }

  ~FakeServer() {
    listener_.Shutdown();  // wakes Accept if no client ever arrived
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  Socket listener_;
  std::thread thread_;
  uint16_t port_ = 0;
};

/// Reads the 16-byte session preamble (magic + version + session token).
bool ReadPreamble(Socket& conn) {
  uint8_t preamble[16];
  return conn.ReadExact(preamble, sizeof(preamble)).ok();
}

void SendHello(Socket& conn, uint64_t resume_offset) {
  uint8_t hello[9];
  hello[0] = net::kReplyHello;
  WriteU64(resume_offset, hello + 1);
  EXPECT_TRUE(conn.WriteAll(hello, sizeof(hello)).ok());
}

void DrainUntilEof(Socket& conn) {
  uint8_t buf[4096];
  for (;;) {
    auto n = conn.ReadSome(buf, sizeof(buf));
    if (!n.ok() || *n == 0) return;
  }
}

TEST(FrameClient, ConnectRefusedIsUnavailableAfterAllAttempts) {
  // Grab an ephemeral port and release it: nothing listens there.
  uint16_t dead_port = 0;
  {
    auto listener = Socket::Listen(kLoopback, 0, 1);
    ASSERT_TRUE(listener.ok());
    auto port = listener->local_port();
    ASSERT_TRUE(port.ok());
    dead_port = *port;
  }
  const auto start = std::chrono::steady_clock::now();
  auto client = FrameClient::Connect(kLoopback, dead_port, FastOptions(2));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable)
      << client.status().ToString();
  EXPECT_NE(client.status().message().find("after 2 attempts"),
            std::string::npos)
      << client.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(FrameClient, HandshakeRejectionIsVerdictNotRetried) {
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    const std::string message = "session shed";
    std::vector<uint8_t> reply(11 + message.size());
    reply[0] = net::kReplyError;
    WriteU64(0, reply.data() + 1);
    reply[9] = uint8_t(message.size());
    reply[10] = uint8_t(message.size() >> 8);
    std::copy(message.begin(), message.end(), reply.begin() + 11);
    EXPECT_TRUE(conn.WriteAll(reply.data(), reply.size()).ok());
    DrainUntilEof(conn);
  });
  // max_attempts = 3, but a verdict must return immediately, unretried.
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(3));
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(client.status().message().find("server rejected stream at byte 0"),
            std::string::npos)
      << client.status().ToString();
  EXPECT_NE(client.status().message().find("session shed"), std::string::npos);
}

TEST(FrameClient, GarbageHelloCodeIsInvalidArgument) {
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    const uint8_t garbage = 0x42;
    EXPECT_TRUE(conn.WriteAll(&garbage, 1).ok());
    DrainUntilEof(conn);
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions());
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(client.status().message().find("unknown reply code 66 at byte 0"),
            std::string::npos)
      << client.status().ToString();
}

TEST(FrameClient, UnknownReplyCodeAfterStreamIsInvalidArgument) {
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 0);
    DrainUntilEof(conn);
    const uint8_t garbage = 0x7F;
    (void)conn.WriteAll(&garbage, 1);
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(2));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<uint8_t> payload = {1, 2, 3};
  ASSERT_TRUE(client->SendFrame("c", payload).ok());
  auto reply = client->Finish();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reply.status().message().find("unknown reply code"),
            std::string::npos)
      << reply.status().ToString();
}

TEST(FrameClient, TruncatedFinalReplyFailsWithinDeadlineNeverHangs) {
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 0);
    DrainUntilEof(conn);
    // First 5 bytes of a 17-byte ok record, then a clean close: the
    // client must treat the mid-record EOF as a transport failure.
    const uint8_t partial[5] = {net::kReplyOk, 1, 0, 0, 0};
    (void)conn.WriteAll(partial, sizeof(partial));
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(2));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<uint8_t> payload = {9, 9};
  ASSERT_TRUE(client->SendFrame("c", payload).ok());
  const auto start = std::chrono::steady_clock::now();
  auto reply = client->Finish();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The second attempt reconnects (the listener accepts the TCP handshake
  // but nobody serves it) and times out on the hello read — either way the
  // result is a retryable-category error, bounded by the deadlines.
  ASSERT_FALSE(reply.ok());
  const StatusCode code = reply.status().code();
  EXPECT_TRUE(code == StatusCode::kFailedPrecondition ||
              code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kUnavailable)
      << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("after 2 attempts"),
            std::string::npos)
      << reply.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(FrameClient, ResetMidSendSurfacesUnavailable) {
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 0);
    conn.CloseWithReset();
  });
  // One attempt: the reset must surface, not be retried away.
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The reset may land after many sends succeed into local buffers; keep
  // streaming until the failure surfaces. Bounded: every send carries a
  // deadline and the loop has one too.
  const std::vector<uint8_t> payload(64 * 1024, 0xAB);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  Status status = Status::OK();
  while (status.ok() && std::chrono::steady_clock::now() < deadline) {
    status = client->SendFrame("c", payload);
    if (status.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(status.ok()) << "reset never surfaced";
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
}

TEST(FrameClient, ResumableStreamRejectsPartialTrailingFrame) {
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 0);
    DrainUntilEof(conn);
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  ASSERT_TRUE(AppendCollectionFrame("c", payload, stream).ok());
  const Status status = client->SendBytes(stream.data(), stream.size() - 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  client->Abort();
}

/// Accepts up to `connections` connections in sequence, handing each to
/// `handler` with its 0-based index — for scripting reconnect scenarios.
class MultiFakeServer {
 public:
  MultiFakeServer(int connections, std::function<void(Socket, int)> handler) {
    auto listener = Socket::Listen(kLoopback, 0, 4);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = *std::move(listener);
    auto port = listener_.local_port();
    EXPECT_TRUE(port.ok());
    port_ = *port;
    thread_ = std::thread([this, connections, handler = std::move(handler)] {
      for (int i = 0; i < connections; ++i) {
        auto conn = listener_.Accept();
        if (!conn.ok()) return;
        handler(*std::move(conn), i);
      }
    });
  }

  ~MultiFakeServer() {
    listener_.Shutdown();
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  Socket listener_;
  std::thread thread_;
  uint16_t port_ = 0;
};

TEST(FrameClient, TruncatedHelloNeverHangs) {
  // The server starts a hello record but sends only 3 of its 8 offset
  // bytes before closing: the handshake read must fail within the recv
  // deadline with a transport-category error, never block.
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    const uint8_t partial[4] = {net::kReplyHello, 0x01, 0x02, 0x03};
    (void)conn.WriteAll(partial, sizeof(partial));
  });
  const auto start = std::chrono::steady_clock::now();
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(client.ok());
  const StatusCode code = client.status().code();
  EXPECT_TRUE(code == StatusCode::kFailedPrecondition ||
              code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kUnavailable)
      << client.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(FrameClient, ResumeOffsetPastSentBytesIsInternal) {
  // A hello claiming the server already routed 999 bytes of a session
  // that never sent any is a protocol violation, not a retry case.
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 999);
    DrainUntilEof(conn);
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(3));
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInternal);
  EXPECT_NE(client.status().message().find("past the"), std::string::npos)
      << client.status().ToString();
}

TEST(FrameClient, ResumeOffsetOffFrameBoundaryIsInternal) {
  // Frame for ("c", {1,2,3}) is 2 + 1 + 4 + 3 = 10 bytes. The first
  // connection consumes it and dies without acking; the reconnect hello
  // resumes at byte 3 — inside the frame — which replay can never honor.
  MultiFakeServer server(2, [](Socket conn, int index) {
    uint8_t preamble[16];
    if (!conn.ReadExact(preamble, sizeof(preamble)).ok()) return;
    if (index == 0) {
      SendHello(conn, 0);
      uint8_t frame[10];
      (void)conn.ReadExact(frame, sizeof(frame));
      return;  // close without a verdict: client must reconnect
    }
    SendHello(conn, 3);
    DrainUntilEof(conn);
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<uint8_t> payload = {1, 2, 3};
  Status status = client->SendFrame("c", payload);
  if (status.ok()) {
    auto reply = client->Finish();
    ASSERT_FALSE(reply.ok());
    status = reply.status();
  }
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("not on a frame boundary"),
            std::string::npos)
      << status.ToString();
}

TEST(FrameClient, SplitAckAndOkRecordsReassemble) {
  // The server drips its ack and final-ok records one byte per write; the
  // client must reassemble them regardless of segmentation. 10 = the
  // encoded size of the single frame sent below.
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 0);
    DrainUntilEof(conn);
    uint8_t records[9 + 17];
    records[0] = net::kReplyAck;
    WriteU64(10, records + 1);
    records[9] = net::kReplyOk;
    WriteU64(1, records + 10);   // frames routed
    WriteU64(10, records + 18);  // bytes routed
    for (uint8_t byte : records) {
      if (!conn.WriteAll(&byte, 1).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(2));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<uint8_t> payload = {1, 2, 3};
  ASSERT_TRUE(client->SendFrame("c", payload).ok());
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->status.ok());
  EXPECT_EQ(reply->frames_routed, 1u);
  EXPECT_EQ(reply->bytes_routed, 10u);
  EXPECT_EQ(client->unacked_bytes(), 0u);
}

TEST(FrameClient, TruncatedErrorReplyBodyNeverHangs) {
  // An error record claiming a 100-byte message but delivering 10 before
  // EOF: the client must keep waiting for the missing bytes only until
  // the transport fails, then surface a bounded retryable error — never
  // fabricate a verdict from a partial record.
  FakeServer server([](Socket conn) {
    if (!ReadPreamble(conn)) return;
    SendHello(conn, 0);
    DrainUntilEof(conn);
    uint8_t record[11 + 10];
    record[0] = net::kReplyError;
    WriteU64(0, record + 1);
    record[9] = 100;  // message length low byte
    record[10] = 0;   // message length high byte
    for (int i = 0; i < 10; ++i) record[11 + i] = 'x';
    (void)conn.WriteAll(record, sizeof(record));
  });
  auto client = FrameClient::Connect(kLoopback, server.port(), FastOptions(2));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<uint8_t> payload = {7};
  ASSERT_TRUE(client->SendFrame("c", payload).ok());
  const auto start = std::chrono::steady_clock::now();
  auto reply = client->Finish();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  const StatusCode code = reply.status().code();
  EXPECT_TRUE(code == StatusCode::kFailedPrecondition ||
              code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kUnavailable)
      << reply.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(FrameClient, BulkSendBytesArrivesByteExactAcrossGatheredWrites) {
  // ~3 MiB of frames of many sizes: several 1 MiB batches, runs cut at 64
  // frames, and (while the server holds off reading) sendmsg calls that
  // stop partway through a frame. The server must receive exactly the
  // stream, in order.
  std::vector<uint8_t> stream;
  size_t frames = 0;
  for (size_t size = 1; stream.size() < (3u << 20); size = size * 7 % 9973) {
    const std::vector<uint8_t> payload(size, static_cast<uint8_t>(size));
    ASSERT_TRUE(AppendCollectionFrame("c", payload, stream).ok());
    ++frames;
  }
  std::vector<uint8_t> received;
  {
    FakeServer server([&](Socket conn) {
      if (!ReadPreamble(conn)) return;
      SendHello(conn, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      uint8_t buf[1 << 16];
      for (;;) {
        auto n = conn.ReadSome(buf, sizeof(buf));
        if (!n.ok() || *n == 0) break;
        received.insert(received.end(), buf, buf + *n);
      }
      uint8_t ok[17];
      ok[0] = net::kReplyOk;
      WriteU64(frames, ok + 1);
      WriteU64(received.size(), ok + 9);
      (void)conn.WriteAll(ok, sizeof(ok));
    });
    FrameClientOptions options = FastOptions();
    options.recv_timeout = std::chrono::seconds(10);
    auto client = FrameClient::Connect(kLoopback, server.port(), options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->SendBytes(stream.data(), stream.size()).ok());
    auto reply = client->Finish();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->status.ok());
    EXPECT_EQ(reply->bytes_routed, stream.size());
    EXPECT_EQ(client->unacked_bytes(), 0u);
  }  // joins the server thread before `received` is read
  EXPECT_TRUE(received == stream)
      << received.size() << " bytes received of " << stream.size();
}

}  // namespace
}  // namespace ldpm
