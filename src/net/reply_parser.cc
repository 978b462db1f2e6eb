#include "net/reply_parser.h"

#include <string>

#include "net/protocol.h"

namespace ldpm {
namespace net {

namespace {

uint64_t ReadU64(const uint8_t* bytes) {
  uint64_t value = 0;
  for (int b = 0; b < 8; ++b) value |= uint64_t{bytes[b]} << (8 * b);
  return value;
}

}  // namespace

Status StreamReplyParser::Feed(const uint8_t* data, size_t size) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), data, data + size);
  size_t cursor = 0;
  while (cursor < buffer_.size()) {
    const uint8_t code = buffer_[cursor];
    const size_t have = buffer_.size() - cursor;
    if (code == kReplyHello) {
      if (stream_offset_ + cursor != 0) {
        error_ = Status::InvalidArgument(
            "reply stream: hello record at byte " +
            std::to_string(stream_offset_ + cursor) +
            " is not the first record");
        break;
      }
      if (have < 9) break;
      hello_ = ReadU64(&buffer_[cursor + 1]);
      cursor += 9;
    } else if (code == kReplyAck) {
      if (have < 9) break;
      const uint64_t acked = ReadU64(&buffer_[cursor + 1]);
      if (acked > acked_offset_) acked_offset_ = acked;
      cursor += 9;
    } else if (code == kReplyOk) {
      if (have < 17) break;
      StreamReply reply;
      reply.frames_routed = ReadU64(&buffer_[cursor + 1]);
      reply.bytes_routed = ReadU64(&buffer_[cursor + 9]);
      if (reply.bytes_routed > acked_offset_) acked_offset_ = reply.bytes_routed;
      final_reply_ = std::move(reply);
      cursor += 17;
    } else if (code == kReplyError) {
      if (have < 11) break;
      const size_t message_size = static_cast<size_t>(buffer_[cursor + 9]) |
                                  static_cast<size_t>(buffer_[cursor + 10]) << 8;
      if (have < 11 + message_size) break;
      StreamReply reply;
      reply.stream_offset = ReadU64(&buffer_[cursor + 1]);
      std::string message(reinterpret_cast<const char*>(&buffer_[cursor + 11]),
                          message_size);
      reply.status = Status::InvalidArgument(
          "server rejected stream at byte " +
          std::to_string(reply.stream_offset) + ": " + message);
      final_reply_ = std::move(reply);
      cursor += 11 + message_size;
    } else {
      error_ = Status::InvalidArgument(
          "reply stream: unknown reply code " + std::to_string(code) +
          " at byte " + std::to_string(stream_offset_ + cursor));
      break;
    }
  }
  stream_offset_ += cursor;
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(cursor));
  return error_;
}

void StreamReplyParser::Reset() {
  buffer_.clear();
  stream_offset_ = 0;
  hello_.reset();
  error_ = Status::OK();
}

}  // namespace net
}  // namespace ldpm
