#include "net/frame_client.h"

#include <sys/uio.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "net/protocol.h"
#include "protocols/wire.h"

namespace ldpm {
namespace net {

namespace {

/// Bounds of one gathered write: at most this many consecutive unsent
/// frames, and at most this many bytes unless its first frame alone is
/// larger.
constexpr size_t kMaxGatherFrames = 64;
constexpr size_t kMaxGatherBytes = size_t{1} << 20;

void WriteU64(uint64_t value, uint8_t* bytes) {
  for (int b = 0; b < 8; ++b) bytes[b] = uint8_t(value >> (8 * b));
}

/// Transport failures worth a reconnect: the peer vanished (Unavailable),
/// stalled past a deadline (DeadlineExceeded), or closed without a verdict
/// (FailedPrecondition, the socket layer's clean-EOF/default category).
/// Everything else — server verdicts, protocol violations, bad arguments —
/// is final.
bool RetryableTransport(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

uint64_t RandomToken() {
  std::random_device rd;
  uint64_t token = (uint64_t{rd()} << 32) ^ rd();
  return token == 0 ? 1 : token;
}

/// The backoff schedule's growth per attempt and its fractional jitter.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.2;

Status AfterAttempts(Status status, int attempts) {
  if (attempts <= 1) return status;
  return Status(status.code(), status.message() + " (after " +
                                   std::to_string(attempts) + " attempts)");
}

}  // namespace

StatusOr<FrameClient> FrameClient::Connect(const std::string& address,
                                           uint16_t port,
                                           FrameClientOptions options) {
  FrameClient client;
  client.options_ = options;
  client.address_ = address;
  client.port_ = port;
  client.session_token_ = RandomToken();
  client.rng_state_ = client.session_token_ | 1;
  const int attempts = std::max(1, options.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(client.BackoffFor(attempt));
    Status status = client.EnsureConnected();
    if (status.ok()) return std::move(client);
    if (!RetryableTransport(status)) return status;
    last = std::move(status);
    client.socket_.Close();
  }
  return AfterAttempts(std::move(last), attempts);
}

Status FrameClient::EnsureConnected() {
  if (socket_.valid()) return Status::OK();
  auto socket = Socket::Connect(address_, port_, options_.connect_timeout);
  if (!socket.ok()) return socket.status();
  socket_ = *std::move(socket);
  reply_parser_.Reset();
  ++connects_;
  if (connects_ > 1) ++reconnects_;
  Status status = Handshake();
  if (!status.ok()) socket_.Close();
  return status;
}

Status FrameClient::Handshake() {
  uint8_t preamble[kPreambleBytes];
  std::memcpy(preamble, kPreambleMagic, sizeof(kPreambleMagic));
  preamble[sizeof(kPreambleMagic)] = kVersion;
  WriteU64(session_token_, preamble + sizeof(kPreambleMagic) + 1);
  LDPM_RETURN_IF_ERROR(
      socket_.WriteAll(preamble, sizeof(preamble), options_.send_timeout));
  // The hello arrives through the record parser like every later record.
  // A server that refuses the session outright (e.g. at its connection
  // cap) sends its final error record instead: a verdict.
  while (!reply_parser_.hello() && !final_reply()) {
    LDPM_RETURN_IF_ERROR(WaitForReply(options_.recv_timeout));
  }
  if (final_reply()) return EarlyVerdict();
  const uint64_t resume_offset = *reply_parser_.hello();
  // The server's routed offset is authoritative; everything before it is
  // ingested and must never be resent, everything after it must be. It can
  // only fall behind our trimmed buffer if the server lost the session
  // (restart, eviction) — then replay is impossible and the stream is lost.
  if (resume_offset > next_offset_) {
    return Status::Internal(
        "FrameClient: server resume offset " + std::to_string(resume_offset) +
        " is past the " + std::to_string(next_offset_) + " bytes ever sent");
  }
  if (resume_offset < pending_base_) {
    return Status::Internal(
        "FrameClient: server resume offset " + std::to_string(resume_offset) +
        " precedes already-acked offset " + std::to_string(pending_base_) +
        " (session lost on server?); cannot replay");
  }
  // Whole frames are the ingest unit, so the offset must land on one of
  // our frame boundaries.
  uint64_t boundary = pending_base_;
  for (size_t i = 0; i < pending_.size() && boundary < resume_offset; ++i) {
    boundary += pending_[i].size();
  }
  if (boundary != resume_offset) {
    return Status::Internal("FrameClient: server resume offset " +
                            std::to_string(resume_offset) +
                            " is not on a frame boundary");
  }
  // Everything before the offset is routed: trimming it leaves the frame
  // that starts there at the front, the next to send.
  acked_offset_ = std::max(acked_offset_, resume_offset);
  sent_offset_ = resume_offset;
  unsent_index_ = 0;
  TrimAcked();
  return Status::OK();
}

void FrameClient::TrimAcked() {
  while (!pending_.empty() &&
         pending_base_ + pending_.front().size() <= acked_offset_) {
    pending_base_ += pending_.front().size();
    pending_.pop_front();
    if (unsent_index_ > 0) --unsent_index_;
  }
  // Only a misbehaving server acks past what this connection sent; the
  // acked frames are gone, so sending resumes after them.
  sent_offset_ = std::max(sent_offset_, pending_base_);
}

Status FrameClient::AbsorbReplyBytes(const uint8_t* data, size_t size) {
  // Decode is delegated to the pure StreamReplyParser; this shim applies
  // what it learned to the client's replay state. The parser's
  // acked_offset never decreases and Reset() preserves it, so a straight
  // max-merge is correct across reconnects.
  Status status = reply_parser_.Feed(data, size);
  if (reply_parser_.acked_offset() > acked_offset_) {
    acked_offset_ = reply_parser_.acked_offset();
    TrimAcked();
  }
  return status;
}

Status FrameClient::PollAcksNonBlocking() {
  uint8_t buf[4096];
  while (!final_reply()) {
    auto n = socket_.ReadAvailable(buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::OK();
    LDPM_RETURN_IF_ERROR(AbsorbReplyBytes(buf, *n));
  }
  return Status::OK();
}

Status FrameClient::WaitForReply(std::chrono::milliseconds timeout) {
  uint8_t buf[4096];
  auto n = socket_.ReadSome(buf, sizeof(buf), timeout);
  if (!n.ok()) return n.status();
  if (*n == 0) {
    return Status::FailedPrecondition(
        "recv: connection closed while waiting for server reply");
  }
  return AbsorbReplyBytes(buf, *n);
}

void FrameClient::TrySalvageVerdict() {
  // A failed send often means the server already shipped its error record
  // and closed; read it so the caller gets the verdict, not a retry storm.
  // Bounded (bytes and per-read deadline) because the peer may be gone.
  size_t total = 0;
  uint8_t buf[4096];
  while (!final_reply() && total < (64u << 10)) {
    auto n = socket_.ReadSome(buf, sizeof(buf), std::chrono::milliseconds(250));
    if (!n.ok() || *n == 0) return;
    total += *n;
    if (!AbsorbReplyBytes(buf, *n).ok()) return;
  }
}

Status FrameClient::EarlyVerdict() const {
  // ok-before-EOF is impossible, so a non-error verdict here is itself a
  // protocol violation.
  return final_reply()->status.ok()
             ? Status::InvalidArgument(
                   "FrameClient: server sent ok reply mid-stream")
             : final_reply()->status;
}

Status FrameClient::TransmitPending() {
  while (unsent_index_ < pending_.size()) {
    // The next run of unsent frames leaves in one gathered write.
    iovec run[kMaxGatherFrames];
    size_t frames = 0;
    size_t bytes = 0;
    while (frames < kMaxGatherFrames &&
           unsent_index_ + frames < pending_.size()) {
      std::vector<uint8_t>& frame = pending_[unsent_index_ + frames];
      if (frames > 0 && bytes + frame.size() > kMaxGatherBytes) break;
      run[frames++] = iovec{frame.data(), frame.size()};
      bytes += frame.size();
    }
    Status status = socket_.WriteAll(run, frames, options_.send_timeout);
    if (!status.ok()) {
      TrySalvageVerdict();
      const Status verdict = Verdict();
      return verdict.ok() ? status : verdict;
    }
    for (size_t i = 0; i < frames; ++i) {
      if (sent_offset_ < high_water_) ++frames_replayed_;
      sent_offset_ += pending_[unsent_index_++].size();
    }
    high_water_ = std::max(high_water_, sent_offset_);
    LDPM_RETURN_IF_ERROR(PollAcksNonBlocking());
    if (final_reply()) return EarlyVerdict();
  }
  return Status::OK();
}

Status FrameClient::PumpOnce() {
  LDPM_RETURN_IF_ERROR(EnsureConnected());
  LDPM_RETURN_IF_ERROR(TransmitPending());
  while (options_.max_unacked_bytes > 0 && !final_reply() &&
         next_offset_ - acked_offset_ > options_.max_unacked_bytes) {
    LDPM_RETURN_IF_ERROR(WaitForReply(options_.recv_timeout));
  }
  return Verdict();
}

Status FrameClient::PumpWithRetry() {
  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(BackoffFor(attempt));
    Status status = PumpOnce();
    if (status.ok()) return status;
    if (!RetryableTransport(status) || !Verdict().ok()) return status;
    last = std::move(status);
    socket_.Close();
  }
  return AfterAttempts(std::move(last), attempts);
}

Status FrameClient::CheckSendable() const {
  LDPM_RETURN_IF_ERROR(Verdict());
  if (finished_ || final_reply()) {
    return Status::FailedPrecondition("FrameClient: stream already finished");
  }
  return Status::OK();
}

Status FrameClient::SendFrame(std::string_view collection_id,
                              const uint8_t* payload, size_t payload_size) {
  LDPM_RETURN_IF_ERROR(CheckSendable());
  std::vector<uint8_t> frame;
  LDPM_RETURN_IF_ERROR(
      AppendCollectionFrame(collection_id, payload, payload_size, frame));
  next_offset_ += frame.size();
  pending_.push_back(std::move(frame));
  return PumpWithRetry();
}

Status FrameClient::SendFrame(std::string_view collection_id,
                              const std::vector<uint8_t>& payload) {
  return SendFrame(collection_id, payload.data(), payload.size());
}

Status FrameClient::SendBytes(const uint8_t* data, size_t size) {
  LDPM_RETURN_IF_ERROR(CheckSendable());
  // Replay is frame-granular, so every whole frame gets its own replay
  // copy. The copies are pumped out as soon as a full gathered write is
  // buffered (or the unacked cap is reached), so a bulk stream costs one
  // write per run of frames rather than one per frame, and the server
  // starts on the first run while later ones are still being copied.
  CollectionFrameReader reader(data, size);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  size_t consumed = 0;
  while (reader.Next(id, payload, payload_size)) {
    pending_.emplace_back(data + reader.frame_offset(),
                          data + reader.frame_end_offset());
    consumed = reader.frame_end_offset();
    next_offset_ += pending_.back().size();
    if (pending_.size() - unsent_index_ >= kMaxGatherFrames ||
        next_offset_ - sent_offset_ >= kMaxGatherBytes ||
        (options_.max_unacked_bytes > 0 &&
         unacked_bytes() > options_.max_unacked_bytes)) {
      LDPM_RETURN_IF_ERROR(PumpWithRetry());
    }
  }
  if (unsent_index_ < pending_.size()) LDPM_RETURN_IF_ERROR(PumpWithRetry());
  LDPM_RETURN_IF_ERROR(reader.status());
  if (consumed != size) {
    return Status::InvalidArgument(
        "FrameClient: SendBytes requires whole frames; trailing " +
        std::to_string(size - consumed) + " bytes are a partial frame");
  }
  return Status::OK();
}

Status FrameClient::FinishOnce() {
  LDPM_RETURN_IF_ERROR(EnsureConnected());
  Status status = TransmitPending();
  if (final_reply()) return Status::OK();
  if (!status.ok()) return status;
  LDPM_RETURN_IF_ERROR(socket_.ShutdownWrite());
  while (!final_reply()) {
    LDPM_RETURN_IF_ERROR(WaitForReply(options_.recv_timeout));
  }
  return Status::OK();
}

StatusOr<StreamReply> FrameClient::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("FrameClient: stream already finished");
  }
  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < attempts && !final_reply(); ++attempt) {
    if (attempt > 0) {
      socket_.Close();
      std::this_thread::sleep_for(BackoffFor(attempt));
    }
    Status status = FinishOnce();
    if (final_reply()) break;
    if (!status.ok() && !RetryableTransport(status)) return status;
    if (!status.ok()) last = std::move(status);
  }
  if (!final_reply()) return AfterAttempts(std::move(last), attempts);
  finished_ = true;
  socket_.Close();
  return *final_reply();
}

void FrameClient::Abort() {
  socket_.Close();
  pending_.clear();
  finished_ = true;
}

std::chrono::milliseconds FrameClient::BackoffFor(int completed_attempts) {
  const RetryPolicy& retry = options_.retry;
  double ms = static_cast<double>(retry.initial_backoff.count());
  for (int i = 1; i < completed_attempts; ++i) ms *= kBackoffMultiplier;
  ms = std::min(ms, static_cast<double>(retry.max_backoff.count()));
  const double unit =
      static_cast<double>(NextRand() % 1000) / 999.0;  // [0, 1]
  ms *= 1.0 + kBackoffJitter * (2.0 * unit - 1.0);
  return std::chrono::milliseconds(
      ms > 0 ? static_cast<int64_t>(ms) : int64_t{0});
}

uint64_t FrameClient::NextRand() {
  uint64_t x = rng_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  rng_state_ = x;
  return x;
}

}  // namespace net
}  // namespace ldpm
