// Compact wire format for LDP reports.
//
// Table 2's communication costs are exact bit counts; this module realizes
// them: each protocol's Report serializes into ceil(bits / 8) bytes using
// the layouts below (all fields little-endian bit order, bit 0 first).
//
//   InpRR   2^d bits   bitmap of reported ones
//   InpPS   d bits     reported cell index
//   InpHT   d + 1      coefficient mask alpha, then 1 sign bit (1 = +1)
//   MargRR  d + 2^k    selector mask beta, then the 2^k reported cells
//   MargPS  d + k      selector mask beta, then the compact cell index
//   MargHT  d + k + 1  selector mask, compact coefficient index, sign bit
//   InpEM   d bits     the d perturbed attribute bits
//   InpES   c + 1      coefficient index (c = ceil(log2 |T|)), then 1 sign
//                      bit (1 = +1); |T| from EsCoefficientCount
//
// Deserialization checks the buffer length and re-validates domains; a
// deserialized report is accepted by the matching protocol's Absorb().
// (InpOLH is excluded: its report carries two 61-bit field elements and is
// documented by its own class.)

#ifndef LDPM_PROTOCOLS_WIRE_H_
#define LDPM_PROTOCOLS_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoding.h"
#include "protocols/factory.h"

namespace ldpm {

/// Exact wire size in bits of a report of `kind` under `config`
/// (Table 2 of the paper). Unimplemented for kInpOLH-like externals.
StatusOr<uint64_t> WireBits(ProtocolKind kind, const ProtocolConfig& config);

/// Serializes a report into ceil(WireBits / 8) bytes.
StatusOr<std::vector<uint8_t>> SerializeReport(ProtocolKind kind,
                                               const ProtocolConfig& config,
                                               const Report& report);

/// Parses a report; the inverse of SerializeReport.
StatusOr<Report> DeserializeReport(ProtocolKind kind,
                                   const ProtocolConfig& config,
                                   const std::vector<uint8_t>& bytes);

/// Span overload of DeserializeReport, for parsing records out of a larger
/// buffer without copying them into a temporary vector.
StatusOr<Report> DeserializeReport(ProtocolKind kind,
                                   const ProtocolConfig& config,
                                   const uint8_t* data, size_t size);

// ---- Wire batches ----------------------------------------------------------
//
// A wire batch is the zero-copy ingest unit of the engine: a concatenation
// of records, each a little-endian u32 byte length followed by that many
// payload bytes (the SerializeReport encoding). Fixed-size per protocol
// today, but the per-record prefix keeps the framing self-describing and
// lets a malformed record be reported at an exact offset.

/// Serializes one report and appends it to `out` as a length-prefixed
/// wire-batch record.
Status AppendWireReport(ProtocolKind kind, const ProtocolConfig& config,
                        const Report& report, std::vector<uint8_t>& out);

/// Serializes a whole report stream into one wire batch frame.
StatusOr<std::vector<uint8_t>> SerializeReportBatch(
    ProtocolKind kind, const ProtocolConfig& config,
    const std::vector<Report>& reports);

/// Loads up to the first 8 bytes of a record payload as one little-endian
/// word (first byte in the low bits), so payload bit i is word bit i. Lets
/// fixed-layout records of <= 64 bits be parsed with two shifts instead of
/// a per-bit loop. The full-word case is a fixed-size memcpy (a single load
/// on little-endian hosts — a runtime-sized copy would be a libc call on
/// the hottest path of the whole engine); short tails assemble bytes.
inline uint64_t LoadWireWord(const uint8_t* bytes, size_t size) {
  if constexpr (std::endian::native == std::endian::little) {
    if (size >= 8) {
      uint64_t word;
      std::memcpy(&word, bytes, 8);
      return word;
    }
  }
  uint64_t word = 0;
  const size_t n = size < 8 ? size : 8;
  for (size_t i = 0; i < n; ++i) word |= uint64_t{bytes[i]} << (8 * i);
  return word;
}

/// Walks the records of a wire batch frame. Framing errors (truncated
/// length prefix or payload) stop the walk with Next() == false and a
/// non-OK status(); a clean end of frame leaves status() OK. Built on the
/// bounded ByteCursor (core/encoding.h), so a hostile length prefix can
/// never wrap the offset arithmetic.
class WireBatchReader {
 public:
  WireBatchReader(const uint8_t* data, size_t size)
      : cursor_(data, size, "wire batch") {}

  /// Advances to the next record; false at end-of-frame or on error.
  bool Next(const uint8_t*& record, size_t& record_size) {
    if (cursor_.AtEnd() || !status_.ok()) return false;
    const size_t record_start = cursor_.offset();
    uint32_t len = 0;
    status_ = cursor_.ReadU32(len, "record length prefix");
    if (!status_.ok()) return false;
    if (!cursor_.ReadBytes(record, len, "record payload").ok()) {
      // Anchor at the record's length prefix: that is the byte a resyncing
      // caller must re-read, not the middle of the missing payload.
      status_ = cursor_.TruncatedError(record_start, "record payload");
      return false;
    }
    record_size = len;
    return true;
  }

  const Status& status() const { return status_; }

 private:
  ByteCursor cursor_;
  Status status_ = Status::OK();
};

// ---- Collection frames -----------------------------------------------------
//
// A collection frame wraps a wire batch with the name of the collection it
// belongs to, so one socket or file stream can interleave reports for many
// protocol/config streams and a Collector (engine/collector.h) can route
// each frame to the right aggregator without out-of-band context:
//
//   u16  collection id byte length L (little-endian, >= 1)
//   L    collection id bytes (opaque; conventionally UTF-8)
//   u32  payload byte length P (little-endian)
//   P    payload bytes — a wire batch frame (records as above)
//
// Frames are self-delimiting, so a stream is just a concatenation; framing
// violations are reported at exact byte offsets.

/// Longest permitted collection id, from the u16 length prefix.
inline constexpr size_t kMaxCollectionIdBytes = 0xFFFF;

/// Appends one collection frame wrapping `payload` (a wire batch frame,
/// possibly empty) to `out`. The id must be non-empty and fit the u16
/// length prefix.
Status AppendCollectionFrame(std::string_view collection_id,
                             const uint8_t* payload, size_t payload_size,
                             std::vector<uint8_t>& out);

/// Vector-payload convenience overload.
Status AppendCollectionFrame(std::string_view collection_id,
                             const std::vector<uint8_t>& payload,
                             std::vector<uint8_t>& out);

/// Walks the collection frames of a stream. Framing errors (truncated
/// prefixes, id, or payload; empty id) stop the walk with Next() == false
/// and a non-OK status() naming the byte offset; a clean end of stream
/// leaves status() OK.
class CollectionFrameReader {
 public:
  CollectionFrameReader(const uint8_t* data, size_t size)
      : cursor_(data, size, "collection frame") {}

  /// Advances to the next frame; false at end-of-stream or on error. On
  /// success `collection_id` and `payload` view into the stream buffer.
  bool Next(std::string_view& collection_id, const uint8_t*& payload,
            size_t& payload_size);

  const Status& status() const { return status_; }

  /// Byte offset (within the stream) of the frame the last successful
  /// Next() returned — the anchor for routing-level error messages.
  size_t frame_offset() const { return frame_offset_; }

  /// Byte offset one past the frame the last successful Next() returned
  /// (i.e. frame_offset() plus that frame's full encoded size) — the exact
  /// resync point for callers consuming a stream incrementally.
  size_t frame_end_offset() const { return frame_end_offset_; }

 private:
  ByteCursor cursor_;
  size_t frame_offset_ = 0;
  size_t frame_end_offset_ = 0;
  Status status_ = Status::OK();
};

/// The longest prefix of a byte buffer that is whole collection frames, as
/// computed by ScanCompleteFrames. `pending_frame_bytes` is the full
/// encoded size of the first frame NOT included in `bytes` — because it is
/// still incomplete, or because it exceeds the caller's frame-size cap —
/// as soon as enough of its header has arrived to know it (0 otherwise).
/// A streaming receiver uses it to reject a frame that would exceed its
/// buffer bound uniformly, whether or not the frame happens to have
/// arrived whole within one read.
struct FrameStreamPrefix {
  size_t bytes = 0;                ///< bytes of whole frames at the front
  size_t pending_frame_bytes = 0;  ///< full size of the first excluded frame
};

/// Scans a buffer that holds a *prefix* of a collection-frame stream (e.g.
/// the receive buffer of a socket) and reports how many whole frames it
/// starts with. A frame cut short by the end of the buffer is NOT an error
/// here — the rest of it may still be in flight — but a violation no
/// further bytes can repair (an empty collection id) is. On error `prefix`
/// is still filled with the whole frames BEFORE the violation, so a
/// streaming receiver can route them and then fail at exactly
/// prefix->bytes, where the offending frame starts. With a non-zero
/// `max_frame_bytes`, any frame larger than it — complete or not — stops
/// the scan the same way an incomplete frame does, with its full size in
/// pending_frame_bytes; enforcement is then independent of how the bytes
/// were segmented in transit.
Status ScanCompleteFrames(const uint8_t* data, size_t size,
                          FrameStreamPrefix* prefix,
                          size_t max_frame_bytes = 0);

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_WIRE_H_
