#include "protocols/wire.h"

#include <string>

#include "core/bits.h"
#include "protocols/inp_es.h"

namespace ldpm {
namespace {

// Little-endian bit cursor over a byte vector.
class BitWriter {
 public:
  explicit BitWriter(uint64_t total_bits)
      : bytes_((total_bits + 7) / 8, 0) {}

  void WriteBit(bool bit) {
    LDPM_DCHECK(cursor_ / 8 < bytes_.size());
    if (bit) bytes_[cursor_ / 8] |= static_cast<uint8_t>(1u << (cursor_ % 8));
    ++cursor_;
  }

  void WriteBits(uint64_t value, int width) {
    for (int b = 0; b < width; ++b) WriteBit((value >> b) & 1);
  }

  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t cursor_ = 0;
};

class BitReader {
 public:
  BitReader(const uint8_t* bytes, size_t size) : bytes_(bytes), size_(size) {}

  bool ReadBit() {
    LDPM_DCHECK(cursor_ / 8 < size_);
    const bool bit = (bytes_[cursor_ / 8] >> (cursor_ % 8)) & 1;
    ++cursor_;
    return bit;
  }

  uint64_t ReadBits(int width) {
    uint64_t value = 0;
    for (int b = 0; b < width; ++b) {
      if (ReadBit()) value |= uint64_t{1} << b;
    }
    return value;
  }

 private:
  const uint8_t* bytes_;
  size_t size_;
  uint64_t cursor_ = 0;
};

}  // namespace

StatusOr<uint64_t> WireBits(ProtocolKind kind, const ProtocolConfig& config) {
  const uint64_t d = static_cast<uint64_t>(config.d);
  const uint64_t cells = uint64_t{1} << config.k;
  switch (kind) {
    case ProtocolKind::kInpRR:
      return uint64_t{1} << config.d;
    case ProtocolKind::kInpPS:
      return d;
    case ProtocolKind::kInpHT:
      return d + 1;
    case ProtocolKind::kMargRR:
      return d + cells;
    case ProtocolKind::kMargPS:
      return d + static_cast<uint64_t>(config.k);
    case ProtocolKind::kMargHT:
      return d + static_cast<uint64_t>(config.k) + 1;
    case ProtocolKind::kInpEM:
      return d;
    case ProtocolKind::kInpES: {
      auto geometry = EsWireGeometryFor(config);
      if (!geometry.ok()) return geometry.status();
      return geometry->total_bits;
    }
  }
  return Status::InvalidArgument("WireBits: unknown protocol kind");
}

namespace {

/// True when `value` needs more than `width` bits: the writer would drop
/// its high bits, and the record would decode as another report (a
/// selector is written in d bits, a marginal cell in k).
bool Overflows(uint64_t value, int width) {
  return width < 64 && (value >> width) != 0;
}

/// SerializeReport body with the record geometry precomputed, so batch
/// serialization can hoist the (InpES) coefficient-count DP out of its
/// per-report loop.
StatusOr<std::vector<uint8_t>> SerializeReportImpl(ProtocolKind kind,
                                                   const ProtocolConfig& config,
                                                   const Report& report,
                                                   const EsWireGeometry& es,
                                                   uint64_t total_bits) {
  BitWriter writer(total_bits);

  const bool writes_selector =
      kind == ProtocolKind::kInpHT || kind == ProtocolKind::kMargRR ||
      kind == ProtocolKind::kMargPS || kind == ProtocolKind::kMargHT;
  if (writes_selector && Overflows(report.selector, config.d)) {
    return Status::InvalidArgument("SerializeReport: selector outside domain");
  }
  switch (kind) {
    case ProtocolKind::kInpRR: {
      const uint64_t domain = uint64_t{1} << config.d;
      LDPM_RETURN_IF_ERROR(
          CheckReportPositions(report.ones, domain, "SerializeReport"));
      std::vector<uint8_t> bitmap(domain, 0);
      for (uint64_t pos : report.ones) bitmap[pos] = 1;
      for (uint64_t pos = 0; pos < domain; ++pos) writer.WriteBit(bitmap[pos]);
      break;
    }
    case ProtocolKind::kInpPS:
    case ProtocolKind::kInpEM: {
      if (Overflows(report.value, config.d)) {
        return Status::InvalidArgument("SerializeReport: value outside domain");
      }
      writer.WriteBits(report.value, config.d);
      break;
    }
    case ProtocolKind::kInpHT: {
      if (report.sign != -1 && report.sign != 1) {
        return Status::InvalidArgument("SerializeReport: bad sign");
      }
      writer.WriteBits(report.selector, config.d);
      writer.WriteBit(report.sign > 0);
      break;
    }
    case ProtocolKind::kMargRR: {
      const uint64_t cells = uint64_t{1} << config.k;
      LDPM_RETURN_IF_ERROR(
          CheckReportPositions(report.ones, cells, "SerializeReport"));
      std::vector<uint8_t> bitmap(cells, 0);
      for (uint64_t pos : report.ones) bitmap[pos] = 1;
      writer.WriteBits(report.selector, config.d);
      for (uint64_t pos = 0; pos < cells; ++pos) writer.WriteBit(bitmap[pos]);
      break;
    }
    case ProtocolKind::kMargPS: {
      if (Overflows(report.value, config.k)) {
        return Status::InvalidArgument("SerializeReport: cell outside marginal");
      }
      writer.WriteBits(report.selector, config.d);
      writer.WriteBits(report.value, config.k);
      break;
    }
    case ProtocolKind::kMargHT: {
      if (Overflows(report.value, config.k)) {
        return Status::InvalidArgument("SerializeReport: cell outside marginal");
      }
      if (report.sign != -1 && report.sign != 1) {
        return Status::InvalidArgument("SerializeReport: bad sign");
      }
      writer.WriteBits(report.selector, config.d);
      writer.WriteBits(report.value, config.k);
      writer.WriteBit(report.sign > 0);
      break;
    }
    case ProtocolKind::kInpES: {
      if (report.value >= es.coefficient_count) {
        return Status::InvalidArgument(
            "SerializeReport: coefficient outside domain");
      }
      if (report.sign != -1 && report.sign != 1) {
        return Status::InvalidArgument("SerializeReport: bad sign");
      }
      writer.WriteBits(report.value, es.index_bits);
      writer.WriteBit(report.sign > 0);
      break;
    }
  }
  return writer.Take();
}

/// The shared "geometry once" preamble of the serialize/deserialize
/// entry points: InpES runs the coefficient-count DP here, every other
/// kind goes through the closed-form WireBits.
Status ComputeRecordGeometry(ProtocolKind kind, const ProtocolConfig& config,
                             EsWireGeometry& es, uint64_t& total_bits) {
  if (kind == ProtocolKind::kInpES) {
    auto geometry = EsWireGeometryFor(config);
    if (!geometry.ok()) return geometry.status();
    es = *geometry;
    total_bits = es.total_bits;
    return Status::OK();
  }
  auto bits = WireBits(kind, config);
  if (!bits.ok()) return bits.status();
  total_bits = *bits;
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<uint8_t>> SerializeReport(ProtocolKind kind,
                                               const ProtocolConfig& config,
                                               const Report& report) {
  EsWireGeometry es;
  uint64_t total_bits = 0;
  LDPM_RETURN_IF_ERROR(ComputeRecordGeometry(kind, config, es, total_bits));
  return SerializeReportImpl(kind, config, report, es, total_bits);
}

StatusOr<Report> DeserializeReport(ProtocolKind kind,
                                   const ProtocolConfig& config,
                                   const std::vector<uint8_t>& bytes) {
  return DeserializeReport(kind, config, bytes.data(), bytes.size());
}

StatusOr<Report> DeserializeReport(ProtocolKind kind,
                                   const ProtocolConfig& config,
                                   const uint8_t* data, size_t size) {
  EsWireGeometry es;
  uint64_t total_bits = 0;
  LDPM_RETURN_IF_ERROR(ComputeRecordGeometry(kind, config, es, total_bits));
  if (size != (total_bits + 7) / 8) {
    return Status::InvalidArgument(
        "DeserializeReport: expected " + std::to_string((total_bits + 7) / 8) +
        " bytes, got " + std::to_string(size));
  }
  BitReader reader(data, size);
  Report report;
  report.bits = static_cast<double>(total_bits);

  switch (kind) {
    case ProtocolKind::kInpRR: {
      const uint64_t domain = uint64_t{1} << config.d;
      for (uint64_t pos = 0; pos < domain; ++pos) {
        if (reader.ReadBit()) report.ones.push_back(pos);
      }
      break;
    }
    case ProtocolKind::kInpPS:
    case ProtocolKind::kInpEM: {
      report.value = reader.ReadBits(config.d);
      break;
    }
    case ProtocolKind::kInpHT: {
      report.selector = reader.ReadBits(config.d);
      report.sign = reader.ReadBit() ? 1 : -1;
      break;
    }
    case ProtocolKind::kMargRR: {
      report.selector = reader.ReadBits(config.d);
      const uint64_t cells = uint64_t{1} << config.k;
      for (uint64_t pos = 0; pos < cells; ++pos) {
        if (reader.ReadBit()) report.ones.push_back(pos);
      }
      break;
    }
    case ProtocolKind::kMargPS: {
      report.selector = reader.ReadBits(config.d);
      report.value = reader.ReadBits(config.k);
      break;
    }
    case ProtocolKind::kMargHT: {
      report.selector = reader.ReadBits(config.d);
      report.value = reader.ReadBits(config.k);
      report.sign = reader.ReadBit() ? 1 : -1;
      break;
    }
    case ProtocolKind::kInpES: {
      report.value = reader.ReadBits(es.index_bits);
      if (report.value >= es.coefficient_count) {
        return Status::InvalidArgument(
            "DeserializeReport: coefficient outside domain");
      }
      report.sign = reader.ReadBit() ? 1 : -1;
      break;
    }
  }
  return report;
}

Status AppendWireReport(ProtocolKind kind, const ProtocolConfig& config,
                        const Report& report, std::vector<uint8_t>& out) {
  auto payload = SerializeReport(kind, config, report);
  if (!payload.ok()) return payload.status();
  const uint64_t len = payload->size();
  if (len > 0xFFFFFFFFull) {
    return Status::InvalidArgument("AppendWireReport: record too large");
  }
  out.push_back(static_cast<uint8_t>(len));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.insert(out.end(), payload->begin(), payload->end());
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> SerializeReportBatch(
    ProtocolKind kind, const ProtocolConfig& config,
    const std::vector<Report>& reports) {
  // Record geometry computed once for the whole batch (for InpES this
  // hoists the coefficient-count DP out of the per-report loop).
  EsWireGeometry es;
  uint64_t total_bits = 0;
  LDPM_RETURN_IF_ERROR(ComputeRecordGeometry(kind, config, es, total_bits));
  std::vector<uint8_t> out;
  out.reserve(reports.size() * (4 + (total_bits + 7) / 8));
  for (const Report& report : reports) {
    auto payload = SerializeReportImpl(kind, config, report, es, total_bits);
    if (!payload.ok()) return payload.status();
    const uint64_t len = payload->size();
    if (len > 0xFFFFFFFFull) {
      return Status::InvalidArgument("SerializeReportBatch: record too large");
    }
    out.push_back(static_cast<uint8_t>(len));
    out.push_back(static_cast<uint8_t>(len >> 8));
    out.push_back(static_cast<uint8_t>(len >> 16));
    out.push_back(static_cast<uint8_t>(len >> 24));
    out.insert(out.end(), payload->begin(), payload->end());
  }
  return out;
}

Status AppendCollectionFrame(std::string_view collection_id,
                             const uint8_t* payload, size_t payload_size,
                             std::vector<uint8_t>& out) {
  if (collection_id.empty()) {
    return Status::InvalidArgument(
        "AppendCollectionFrame: empty collection id");
  }
  if (collection_id.size() > kMaxCollectionIdBytes) {
    return Status::InvalidArgument(
        "AppendCollectionFrame: collection id of " +
        std::to_string(collection_id.size()) +
        " bytes overflows the u16 length prefix");
  }
  if (payload_size > 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "AppendCollectionFrame: payload of " + std::to_string(payload_size) +
        " bytes overflows the u32 length prefix");
  }
  // No exact-fit reserve: streams are built by appending many frames, and
  // an exact reservation per call would defeat the vector's geometric
  // growth (O(bytes^2) copying across a long stream).
  out.push_back(static_cast<uint8_t>(collection_id.size()));
  out.push_back(static_cast<uint8_t>(collection_id.size() >> 8));
  out.insert(out.end(), collection_id.begin(), collection_id.end());
  const uint32_t len = static_cast<uint32_t>(payload_size);
  out.push_back(static_cast<uint8_t>(len));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 24));
  if (payload_size > 0) out.insert(out.end(), payload, payload + payload_size);
  return Status::OK();
}

Status AppendCollectionFrame(std::string_view collection_id,
                             const std::vector<uint8_t>& payload,
                             std::vector<uint8_t>& out) {
  return AppendCollectionFrame(collection_id, payload.data(), payload.size(),
                               out);
}

bool CollectionFrameReader::Next(std::string_view& collection_id,
                                 const uint8_t*& payload,
                                 size_t& payload_size) {
  if (cursor_.AtEnd() || !status_.ok()) return false;
  const size_t frame_start = cursor_.offset();
  uint16_t id_len = 0;
  status_ = cursor_.ReadU16(id_len, "id length prefix");
  if (!status_.ok()) return false;
  if (id_len == 0) {
    status_ = Status::InvalidArgument(
        "collection frame: empty collection id at byte " +
        std::to_string(frame_start));
    return false;
  }
  const uint8_t* id = nullptr;
  status_ = cursor_.ReadBytes(id, id_len, "collection id");
  if (!status_.ok()) return false;
  collection_id =
      std::string_view(reinterpret_cast<const char*>(id), id_len);
  const size_t payload_len_at = cursor_.offset();
  uint32_t payload_len = 0;
  status_ = cursor_.ReadU32(payload_len, "payload length prefix");
  if (!status_.ok()) return false;
  if (!cursor_.ReadBytes(payload, payload_len, "payload").ok()) {
    // Anchor at the payload's length prefix — the exact byte a resyncing
    // caller must re-read once the rest of the frame arrives.
    status_ = cursor_.TruncatedError(payload_len_at, "payload");
    return false;
  }
  payload_size = payload_len;
  frame_offset_ = frame_start;
  frame_end_offset_ = cursor_.offset();
  return true;
}

Status ScanCompleteFrames(const uint8_t* data, size_t size,
                          FrameStreamPrefix* prefix,
                          size_t max_frame_bytes) {
  *prefix = FrameStreamPrefix();
  ByteCursor cursor(data, size, "collection frame");
  while (!cursor.AtEnd()) {
    // Header: u16 id length, id, u32 payload length (see the frame spec).
    const size_t frame_start = cursor.offset();
    uint16_t id_len = 0;
    if (!cursor.ReadU16(id_len, "id length prefix").ok()) break;
    if (id_len == 0) {
      return Status::InvalidArgument(
          "collection frame: empty collection id at byte " +
          std::to_string(frame_start));
    }
    // Not enough header yet to even size the frame? (u64 sum: id_len is a
    // u16, so `id_len + 4` cannot wrap.)
    if (!cursor.CanRead(uint64_t{id_len} + 4)) break;
    (void)cursor.Skip(id_len, "collection id");
    uint32_t payload_len = 0;
    (void)cursor.ReadU32(payload_len, "payload length prefix");
    // Full encoded frame size in wrap-proof u64 arithmetic: at most
    // 2 + 0xFFFF + 4 + 0xFFFFFFFF, far below 2^64 — but never narrowed to
    // size_t before the bounds checks below.
    const uint64_t frame_bytes = 2 + uint64_t{id_len} + 4 + payload_len;
    if ((max_frame_bytes > 0 && frame_bytes > max_frame_bytes) ||
        !cursor.CanRead(payload_len)) {
      // Incomplete, or over the caller's cap (even when fully buffered —
      // the cap must not depend on how the transport segmented the bytes).
      prefix->pending_frame_bytes = static_cast<size_t>(frame_bytes);
      break;
    }
    (void)cursor.Skip(payload_len, "payload");
    prefix->bytes = cursor.offset();
  }
  return Status::OK();
}

}  // namespace ldpm
