// Socket send-loop tests over a Unix socketpair with tiny kernel buffers,
// so every gathered write is cut short many times: the buffers must still
// arrive whole and in order (empty ones and runs longer than IOV_MAX
// included), a peer that stops reading or writing must surface as
// DeadlineExceeded naming the deadline, never a hang, and one that reads
// slowly must not.

#include "net/socket.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldpm {
namespace {

using net::Socket;

/// A connected pair whose writer side holds at most a few KiB in flight.
void TinyBufferedPair(Socket* writer, Socket* reader) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int n = 4096;  // kernel buffer bytes on each side
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &n, sizeof(n)), 0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &n, sizeof(n)), 0);
  *writer = Socket(fds[0]);
  *reader = Socket(fds[1]);
}

TEST(Socket, GatheredWriteAllDeliversEveryBufferThroughShortWrites) {
  Socket writer;
  Socket reader;
  TinyBufferedPair(&writer, &reader);

  // 1500 buffers (more than IOV_MAX), every 13th one empty, ~1.5 MB.
  std::vector<std::vector<uint8_t>> buffers(1500);
  std::vector<uint8_t> expected;
  for (size_t i = 0; i < buffers.size(); ++i) {
    const size_t size = i % 13 == 0 ? 0 : (i * 7919) % 2003;
    for (size_t j = 0; j < size; ++j) {
      buffers[i].push_back(static_cast<uint8_t>(i * 31 + j));
    }
    expected.insert(expected.end(), buffers[i].begin(), buffers[i].end());
  }
  std::vector<iovec> run;
  for (auto& buffer : buffers) run.push_back({buffer.data(), buffer.size()});

  std::vector<uint8_t> received;
  std::thread drain([&] {
    uint8_t chunk[1000];
    for (;;) {
      auto n = reader.ReadSome(chunk, sizeof(chunk));
      if (!n.ok() || *n == 0) return;
      received.insert(received.end(), chunk, chunk + *n);
    }
  });
  const Status written =
      writer.WriteAll(run.data(), run.size(), std::chrono::seconds(20));
  EXPECT_TRUE(writer.ShutdownWrite().ok());
  drain.join();
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_TRUE(received == expected)
      << received.size() << " bytes received of " << expected.size();
}

TEST(Socket, GatheredWriteAllToAStalledPeerHitsItsDeadline) {
  Socket writer;
  Socket reader;  // never read
  TinyBufferedPair(&writer, &reader);
  std::vector<uint8_t> big(1 << 20, 0x5A);
  iovec one{big.data(), big.size()};
  const auto start = std::chrono::steady_clock::now();
  const Status status =
      writer.WriteAll(&one, 1, std::chrono::milliseconds(200));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ASSERT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  // The message names the configured deadline, not the slice left for the
  // last wait, and how much of the buffer the peer never took.
  std::smatch unsent;
  const std::string message = status.message();
  ASSERT_TRUE(std::regex_match(
      message, unsent,
      std::regex("send: timed out after 200ms with ([0-9]+) of 1048576 "
                 "bytes unsent")))
      << message;
  EXPECT_GT(std::stoull(unsent[1]), 0u);
  EXPECT_LT(std::stoull(unsent[1]), big.size());
}

// The send deadline is on progress, not on the whole write: a reader that
// drains a few KiB every 20 ms keeps a 160 KiB write alive well past its
// 250 ms deadline.
TEST(Socket, WriteAllToASlowButLiveReaderOutlastsItsDeadline) {
  Socket writer;
  Socket reader;
  TinyBufferedPair(&writer, &reader);
  std::vector<uint8_t> expected(160 << 10);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::vector<uint8_t> received;
  std::thread drain([&] {
    uint8_t chunk[4096];
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      auto n = reader.ReadSome(chunk, sizeof(chunk));
      if (!n.ok() || *n == 0) return;
      received.insert(received.end(), chunk, chunk + *n);
    }
  });
  const auto deadline = std::chrono::milliseconds(250);
  const auto start = std::chrono::steady_clock::now();
  const Status written = writer.WriteAll(expected.data(), expected.size(),
                                         deadline);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(writer.ShutdownWrite().ok());
  drain.join();
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_GT(elapsed, deadline);  // the write as a whole outlasted it
  EXPECT_TRUE(received == expected)
      << received.size() << " bytes received of " << expected.size();
}

TEST(Socket, ReadExactFromASilentPeerHitsItsDeadline) {
  Socket writer;  // sends a prefix, then nothing
  Socket reader;
  TinyBufferedPair(&writer, &reader);
  const uint8_t prefix[3] = {1, 2, 3};
  ASSERT_TRUE(writer.WriteAll(prefix, sizeof(prefix)).ok());
  uint8_t buffer[16];
  const auto start = std::chrono::steady_clock::now();
  const Status status =
      reader.ReadExact(buffer, sizeof(buffer), std::chrono::milliseconds(200));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ASSERT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_EQ(status.message(),
            "recv: timed out after 200ms with 3 of 16 bytes read");
}

}  // namespace
}  // namespace ldpm
