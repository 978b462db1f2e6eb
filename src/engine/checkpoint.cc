#include "engine/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>

#include "core/crc32c.h"
#include "core/encoding.h"
#include "core/file_io.h"

namespace ldpm {
namespace engine {

namespace {

// ---- Little-endian primitives ---------------------------------------------

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutDouble(std::vector<uint8_t>& out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

/// The container decoders read exclusively through the bounded ByteCursor
/// (core/encoding.h) with context "checkpoint": every length prefix is
/// bounds-checked before use and no offset arithmetic can wrap.
ByteCursor CheckpointCursor(const uint8_t* data, size_t size) {
  return ByteCursor(data, size, "checkpoint");
}

// Snapshot payload field sizes past the name: d, k (u32 each), epsilon
// (u64), four u8 flags, reports_absorbed + total_report_bits (u64 each),
// and the two array length prefixes (u64 each).
constexpr size_t kFixedSnapshotBytes = 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8;

/// Exact encoded size of one snapshot payload; lets
/// EncodeCollectorCheckpoint reserve the whole image and serialize each
/// record in place instead of staging per-record vectors (checkpoints can
/// be large for InpRR).
size_t SnapshotPayloadSize(const AggregatorSnapshot& snapshot) {
  return 4 + snapshot.protocol.size() + kFixedSnapshotBytes +
         8 * (snapshot.reals.size() + snapshot.counts.size());
}

void AppendSnapshotPayload(std::vector<uint8_t>& out,
                           const AggregatorSnapshot& snapshot) {
  PutU32(out, static_cast<uint32_t>(snapshot.protocol.size()));
  for (char c : snapshot.protocol) out.push_back(static_cast<uint8_t>(c));
  PutU32(out, static_cast<uint32_t>(snapshot.d));
  PutU32(out, static_cast<uint32_t>(snapshot.k));
  PutDouble(out, snapshot.epsilon);
  out.push_back(static_cast<uint8_t>(snapshot.estimator));
  out.push_back(static_cast<uint8_t>(snapshot.unary_variant));
  out.push_back(snapshot.sample_zero_coefficient ? 1 : 0);
  out.push_back(0);  // reserved, must be zero
  PutU64(out, snapshot.reports_absorbed);
  PutDouble(out, snapshot.total_report_bits);
  PutU64(out, snapshot.reals.size());
  for (double v : snapshot.reals) PutDouble(out, v);
  PutU64(out, snapshot.counts.size());
  for (uint64_t v : snapshot.counts) PutU64(out, v);
}

}  // namespace

std::vector<uint8_t> SerializeSnapshot(const AggregatorSnapshot& snapshot) {
  std::vector<uint8_t> out;
  out.reserve(SnapshotPayloadSize(snapshot));
  AppendSnapshotPayload(out, snapshot);
  return out;
}

StatusOr<AggregatorSnapshot> DeserializeSnapshot(const uint8_t* data,
                                                 size_t size) {
  ByteCursor reader = CheckpointCursor(data, size);
  AggregatorSnapshot snapshot;

  uint32_t name_len = 0;
  LDPM_RETURN_IF_ERROR(reader.ReadU32(name_len, "protocol name length"));
  const uint8_t* name = nullptr;
  LDPM_RETURN_IF_ERROR(reader.ReadBytes(name, name_len, "protocol name"));
  snapshot.protocol.assign(reinterpret_cast<const char*>(name), name_len);

  uint32_t d = 0, k = 0;
  LDPM_RETURN_IF_ERROR(reader.ReadU32(d, "d"));
  LDPM_RETURN_IF_ERROR(reader.ReadU32(k, "k"));
  snapshot.d = static_cast<int>(d);
  snapshot.k = static_cast<int>(k);
  LDPM_RETURN_IF_ERROR(reader.ReadDouble(snapshot.epsilon, "epsilon"));

  uint8_t estimator = 0, variant = 0, sample_zero = 0, reserved = 0;
  LDPM_RETURN_IF_ERROR(reader.ReadU8(estimator, "estimator"));
  LDPM_RETURN_IF_ERROR(reader.ReadU8(variant, "unary variant"));
  LDPM_RETURN_IF_ERROR(reader.ReadU8(sample_zero, "zero-coefficient flag"));
  LDPM_RETURN_IF_ERROR(reader.ReadU8(reserved, "reserved flag"));
  if (estimator > static_cast<uint8_t>(EstimatorKind::kHorvitzThompson) ||
      variant > static_cast<uint8_t>(UnaryVariant::kOptimized) ||
      sample_zero > 1 || reserved != 0) {
    return Status::InvalidArgument(
        "checkpoint: snapshot flags out of range (estimator=" +
        std::to_string(estimator) + ", variant=" + std::to_string(variant) +
        ", sample_zero=" + std::to_string(sample_zero) +
        ", reserved=" + std::to_string(reserved) + ")");
  }
  snapshot.estimator = static_cast<EstimatorKind>(estimator);
  snapshot.unary_variant = static_cast<UnaryVariant>(variant);
  snapshot.sample_zero_coefficient = sample_zero != 0;

  LDPM_RETURN_IF_ERROR(
      reader.ReadU64(snapshot.reports_absorbed, "reports_absorbed"));
  LDPM_RETURN_IF_ERROR(
      reader.ReadDouble(snapshot.total_report_bits, "total_report_bits"));

  uint64_t reals_count = 0;
  LDPM_RETURN_IF_ERROR(reader.ReadU64(reals_count, "reals length"));
  uint64_t reals_bytes = 0;
  if (!CheckedMul(reals_count, 8, &reals_bytes) ||
      !reader.CanRead(reals_bytes)) {
    return Status::InvalidArgument(
        "checkpoint: reals length " + std::to_string(reals_count) +
        " exceeds the remaining payload at byte " +
        std::to_string(reader.offset()));
  }
  snapshot.reals.resize(static_cast<size_t>(reals_count));
  for (double& v : snapshot.reals) {
    LDPM_RETURN_IF_ERROR(reader.ReadDouble(v, "reals entry"));
  }

  uint64_t counts_count = 0;
  LDPM_RETURN_IF_ERROR(reader.ReadU64(counts_count, "counts length"));
  uint64_t counts_bytes = 0;
  if (!CheckedMul(counts_count, 8, &counts_bytes) ||
      !reader.CanRead(counts_bytes)) {
    return Status::InvalidArgument(
        "checkpoint: counts length " + std::to_string(counts_count) +
        " exceeds the remaining payload at byte " +
        std::to_string(reader.offset()));
  }
  snapshot.counts.resize(static_cast<size_t>(counts_count));
  for (uint64_t& v : snapshot.counts) {
    LDPM_RETURN_IF_ERROR(reader.ReadU64(v, "counts entry"));
  }

  LDPM_RETURN_IF_ERROR(reader.ExpectEnd("snapshot payload"));
  return snapshot;
}

namespace {

/// Reads `count` snapshot records (u32 length + payload + u32 CRC each)
/// through `reader`. `file_size` bounds the reserve so a CRC-valid header
/// cannot force a huge allocation.
Status ReadSnapshotRecords(ByteCursor& reader, uint32_t count,
                           size_t file_size,
                           std::vector<AggregatorSnapshot>& out) {
  // Every record costs at least 8 framing bytes, so a CRC-valid header
  // cannot make us reserve more than the file could hold.
  out.reserve(std::min<size_t>(count, file_size / 8));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t payload_len = 0;
    const size_t record_start = reader.offset();
    LDPM_RETURN_IF_ERROR(reader.ReadU32(payload_len, "record length"));
    const uint8_t* payload = nullptr;
    LDPM_RETURN_IF_ERROR(
        reader.ReadBytes(payload, payload_len, "record payload"));
    uint32_t payload_crc = 0;
    LDPM_RETURN_IF_ERROR(reader.ReadU32(payload_crc, "record checksum"));
    if (Crc32c(payload, payload_len) != payload_crc) {
      return Status::InvalidArgument(
          "checkpoint: record " + std::to_string(i) +
          " checksum mismatch at byte " + std::to_string(record_start));
    }
    auto snapshot = DeserializeSnapshot(payload, payload_len);
    if (!snapshot.ok()) {
      return Status::InvalidArgument(
          "checkpoint: record " + std::to_string(i) + " at byte " +
          std::to_string(record_start) + ": " + snapshot.status().message());
    }
    out.push_back(*std::move(snapshot));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<CollectionCheckpoint>> DecodeCollectorCheckpoint(
    const uint8_t* data, size_t size) {
  ByteCursor reader = CheckpointCursor(data, size);
  const uint8_t* magic = nullptr;
  LDPM_RETURN_IF_ERROR(reader.ReadBytes(magic, 8, "magic"));
  if (std::memcmp(magic, kCheckpointMagic, 8) != 0) {
    return Status::InvalidArgument(
        "checkpoint: bad magic (not a checkpoint file)");
  }
  uint32_t version = 0, count = 0, header_crc = 0;
  LDPM_RETURN_IF_ERROR(reader.ReadU32(version, "format version"));
  LDPM_RETURN_IF_ERROR(reader.ReadU32(count, "record count"));
  LDPM_RETURN_IF_ERROR(reader.ReadU32(header_crc, "header checksum"));
  // CRC before the version gate: a bit flip inside the version field is
  // corruption (checksum mismatch), while a clean header with another
  // version is a file from another build that this one must refuse to
  // misparse.
  if (Crc32c(data, 16) != header_crc) {
    return Status::InvalidArgument("checkpoint: header checksum mismatch");
  }
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "checkpoint: unsupported format version " + std::to_string(version) +
        " (this build reads only version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }

  std::vector<CollectionCheckpoint> collections;
  collections.reserve(std::min<size_t>(count, size / 8));
  for (uint32_t c = 0; c < count; ++c) {
    const size_t block_start = reader.offset();
    uint16_t id_len = 0;
    LDPM_RETURN_IF_ERROR(reader.ReadU16(id_len, "collection id length"));
    if (id_len == 0) {
      return Status::InvalidArgument(
          "checkpoint: empty collection id at byte " +
          std::to_string(block_start));
    }
    const uint8_t* id = nullptr;
    LDPM_RETURN_IF_ERROR(reader.ReadBytes(id, id_len, "collection id"));
    uint32_t snapshot_count = 0, block_crc = 0;
    LDPM_RETURN_IF_ERROR(reader.ReadU32(snapshot_count, "snapshot count"));
    const size_t block_header_size = reader.offset() - block_start;
    LDPM_RETURN_IF_ERROR(reader.ReadU32(block_crc, "collection checksum"));
    if (Crc32c(data + block_start, block_header_size) != block_crc) {
      return Status::InvalidArgument(
          "checkpoint: collection " + std::to_string(c) +
          " header checksum mismatch at byte " + std::to_string(block_start));
    }
    CollectionCheckpoint collection;
    collection.id.assign(reinterpret_cast<const char*>(id), id_len);
    for (const CollectionCheckpoint& seen : collections) {
      if (seen.id == collection.id) {
        return Status::InvalidArgument(
            "checkpoint: duplicate collection id \"" + collection.id +
            "\" at byte " + std::to_string(block_start));
      }
    }
    LDPM_RETURN_IF_ERROR(ReadSnapshotRecords(reader, snapshot_count, size,
                                             collection.snapshots));
    collections.push_back(std::move(collection));
  }
  LDPM_RETURN_IF_ERROR(reader.ExpectEnd("the last record"));
  return collections;
}

StatusOr<std::vector<uint8_t>> EncodeCollectorCheckpoint(
    const std::vector<CollectionCheckpoint>& collections) {
  constexpr uint64_t kMaxU32 = 0xFFFFFFFFull;
  if (collections.size() > kMaxU32) {
    return Status::InvalidArgument(
        "checkpoint: collection count overflows the u32 header field");
  }
  size_t total = 20;  // header
  for (size_t c = 0; c < collections.size(); ++c) {
    const CollectionCheckpoint& collection = collections[c];
    if (collection.id.empty()) {
      return Status::InvalidArgument("checkpoint: empty collection id");
    }
    if (collection.id.size() > 0xFFFF) {
      return Status::InvalidArgument(
          "checkpoint: collection id \"" + collection.id.substr(0, 32) +
          "...\" overflows the u16 length prefix");
    }
    for (size_t prior = 0; prior < c; ++prior) {
      if (collections[prior].id == collection.id) {
        return Status::InvalidArgument(
            "checkpoint: duplicate collection id \"" + collection.id + "\"");
      }
    }
    if (collection.snapshots.size() > kMaxU32) {
      return Status::InvalidArgument(
          "checkpoint: snapshot count overflows the u32 framing field");
    }
    total += 2 + collection.id.size() + 4 + 4;  // block header + CRC
    for (const AggregatorSnapshot& snapshot : collection.snapshots) {
      const size_t payload_size = SnapshotPayloadSize(snapshot);
      if (payload_size > kMaxU32) {
        return Status::InvalidArgument(
            "checkpoint: snapshot payload for " + snapshot.protocol +
            " is " + std::to_string(payload_size) +
            " bytes, which overflows the u32 record length");
      }
      total += 8 + payload_size;
    }
  }
  std::vector<uint8_t> out;
  out.reserve(total);
  for (char ch : kCheckpointMagic) out.push_back(static_cast<uint8_t>(ch));
  PutU32(out, kCheckpointFormatVersion);
  PutU32(out, static_cast<uint32_t>(collections.size()));
  PutU32(out, Crc32c(out.data(), out.size()));
  for (const CollectionCheckpoint& collection : collections) {
    const size_t block_start = out.size();
    PutU16(out, static_cast<uint16_t>(collection.id.size()));
    for (char ch : collection.id) out.push_back(static_cast<uint8_t>(ch));
    PutU32(out, static_cast<uint32_t>(collection.snapshots.size()));
    PutU32(out, Crc32c(out.data() + block_start, out.size() - block_start));
    for (const AggregatorSnapshot& snapshot : collection.snapshots) {
      const size_t payload_size = SnapshotPayloadSize(snapshot);
      PutU32(out, static_cast<uint32_t>(payload_size));
      const size_t payload_start = out.size();
      AppendSnapshotPayload(out, snapshot);
      LDPM_DCHECK(out.size() - payload_start == payload_size);
      PutU32(out, Crc32c(out.data() + payload_start, payload_size));
    }
  }
  LDPM_DCHECK(out.size() == total);
  return out;
}

Status WriteCollectorCheckpoint(
    const std::string& path,
    const std::vector<CollectionCheckpoint>& collections) {
  auto image = EncodeCollectorCheckpoint(collections);
  if (!image.ok()) return image.status();
  return WriteBinaryFileAtomic(path, *image);
}

StatusOr<std::vector<CollectionCheckpoint>> ReadCollectorCheckpoint(
    const std::string& path) {
  auto bytes = ReadBinaryFile(path);
  if (!bytes.ok()) return bytes.status();
  auto collections = DecodeCollectorCheckpoint(bytes->data(), bytes->size());
  if (!collections.ok()) {
    return Status(collections.status().code(),
                  path + ": " + collections.status().message());
  }
  return collections;
}

std::string CheckpointGenerationPath(const std::string& path,
                                     int generation) {
  if (generation <= 0) return path;
  return path + "." + std::to_string(generation);
}

Status RotateCheckpointGenerations(const std::string& path, int generations) {
  if (generations <= 1) return Status::OK();
  namespace fs = std::filesystem;
  // Oldest slot first, so every rename moves into a slot that was just
  // vacated (or is the about-to-expire oldest, which it overwrites). A
  // crash anywhere in the sequence leaves every generation present under
  // some name the fallback walk visits.
  for (int generation = generations - 2; generation >= 0; --generation) {
    const std::string from = CheckpointGenerationPath(path, generation);
    const std::string to = CheckpointGenerationPath(path, generation + 1);
    std::error_code ec;
    if (!fs::exists(from, ec)) continue;
    fs::rename(from, to, ec);
    if (ec) {
      return Status::Internal("rotating checkpoint generation " + from +
                              " -> " + to + " failed: " + ec.message());
    }
  }
  return Status::OK();
}

StatusOr<std::vector<CollectionCheckpoint>>
ReadCollectorCheckpointWithFallback(const std::string& path, int generations,
                                    CheckpointFallbackInfo* info) {
  namespace fs = std::filesystem;
  bool any_file = false;
  Status last_error;
  for (int generation = 0; generation < std::max(1, generations);
       ++generation) {
    const std::string generation_path =
        CheckpointGenerationPath(path, generation);
    auto result = ReadCollectorCheckpoint(generation_path);
    if (result.ok()) {
      if (info != nullptr) {
        info->generation = generation;
        info->path = generation_path;
      }
      return result;
    }
    if (result.status().code() == StatusCode::kNotFound) continue;
    // The file exists but does not validate: pull it out of the rotation
    // so a later checkpoint write cannot age it back into the restore
    // path, and keep it on disk for inspection.
    any_file = true;
    last_error = result.status();
    std::error_code ec;
    fs::rename(generation_path, generation_path + ".corrupt", ec);
    if (!ec && info != nullptr) {
      info->quarantined.push_back(generation_path + ".corrupt");
    }
  }
  if (!any_file) {
    return Status::NotFound("no checkpoint generation found at " + path);
  }
  return Status(last_error.code(),
                "no restorable checkpoint generation at " + path + ": " +
                    last_error.message());
}

}  // namespace engine
}  // namespace ldpm
