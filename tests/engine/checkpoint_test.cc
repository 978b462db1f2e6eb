// Checkpoint subsystem tests: snapshot payload round trips per protocol,
// whole-file round trips through the Collector (same and different shard
// counts), rejection of wrong-version and bad-magic images, failed
// restores that leave state intact, and checkpoint generations.

#include "engine/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crc32c.h"
#include "core/file_io.h"
#include "engine/collector.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"

namespace ldpm {
namespace {

using engine::CollectionCheckpoint;
using engine::CollectionHandle;
using engine::Collector;
using engine::CollectorOptions;
using engine::DecodeCollectorCheckpoint;
using engine::EncodeCollectorCheckpoint;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::IngestReports;
using test::MakeConfig;

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<uint8_t> MustEncode(const std::vector<CollectionCheckpoint>& c) {
  auto image = EncodeCollectorCheckpoint(c);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return *std::move(image);
}

/// The id of the one collection every test collector registers.
constexpr char kCollectionId[] = "c";

/// A collector with one registered collection running `kind`.
std::unique_ptr<Collector> MakeCollector(ProtocolKind kind, int num_shards,
                                         int generations = 1) {
  CollectorOptions options;
  options.engine_defaults.num_shards = num_shards;
  options.checkpoint_generations = generations;
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  auto handle = (*collector)->Register(kCollectionId, kind, MakeConfig(6, 2));
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return *std::move(collector);
}

/// The collection's merged aggregator, or null.
std::shared_ptr<const MarginalProtocol> Merged(Collector& collector) {
  auto handle = collector.Handle(kCollectionId);
  if (!handle.ok()) return nullptr;
  auto merged = handle->aggregator().Merged();
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  return merged.ok() ? *merged : nullptr;
}

/// A one-collection collector with absorbed reports, plus the identical
/// single aggregator.
struct LoadedCollector {
  std::unique_ptr<Collector> collector;
  CollectionHandle handle;
  std::unique_ptr<MarginalProtocol> reference;
};

LoadedCollector MakeLoadedCollector(ProtocolKind kind, int num_shards,
                                    size_t num_reports, uint64_t seed) {
  auto collector = MakeCollector(kind, num_shards);
  auto handle = collector->Handle(kCollectionId);
  EXPECT_TRUE(handle.ok());
  auto reference = CreateProtocol(kind, MakeConfig(6, 2));
  EXPECT_TRUE(reference.ok());
  const std::vector<Report> reports =
      EncodeReportStream(**reference, num_reports, seed);
  for (const Report& r : reports) {
    EXPECT_TRUE((*reference)->Absorb(r).ok());
  }
  EXPECT_TRUE(IngestReports(*handle, kind, reports).ok());
  EXPECT_TRUE(handle->Flush().ok());
  return {std::move(collector), *std::move(handle), *std::move(reference)};
}

class CheckpointPerProtocolTest
    : public ::testing::TestWithParam<ProtocolKind> {};

// SerializeSnapshot/DeserializeSnapshot must be exact inverses for every
// protocol's accumulator layout (doubles round-trip bitwise via their IEEE
// bit patterns).
TEST_P(CheckpointPerProtocolTest, SnapshotPayloadRoundTrips) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto protocol = CreateProtocol(kind, config);
  ASSERT_TRUE(protocol.ok());
  for (const Report& r : EncodeReportStream(**protocol, 500, 11)) {
    ASSERT_TRUE((*protocol)->Absorb(r).ok());
  }
  const AggregatorSnapshot snapshot = (*protocol)->Snapshot();
  const std::vector<uint8_t> payload = engine::SerializeSnapshot(snapshot);
  auto parsed = engine::DeserializeSnapshot(payload.data(), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->protocol, snapshot.protocol);
  EXPECT_EQ(parsed->d, snapshot.d);
  EXPECT_EQ(parsed->k, snapshot.k);
  EXPECT_EQ(parsed->epsilon, snapshot.epsilon);
  EXPECT_EQ(parsed->estimator, snapshot.estimator);
  EXPECT_EQ(parsed->unary_variant, snapshot.unary_variant);
  EXPECT_EQ(parsed->sample_zero_coefficient, snapshot.sample_zero_coefficient);
  EXPECT_EQ(parsed->reports_absorbed, snapshot.reports_absorbed);
  EXPECT_EQ(parsed->total_report_bits, snapshot.total_report_bits);
  EXPECT_EQ(parsed->reals, snapshot.reals);
  EXPECT_EQ(parsed->counts, snapshot.counts);

  // Restoring the parsed snapshot reproduces the aggregator bitwise.
  auto restored = CreateProtocol(kind, config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Restore(*parsed).ok());
  ExpectBitwiseEqualEstimates(**protocol, **restored);
}

// The acceptance criterion: a checkpoint written mid-ingest restores into
// a fresh collector — same or different shard count — whose marginal query
// results are bitwise-identical to the original's at checkpoint time.
TEST_P(CheckpointPerProtocolTest, FileRoundTripAcrossShardCounts) {
  const ProtocolKind kind = GetParam();
  const std::string path =
      TestPath("ckpt_roundtrip_" + std::string(ProtocolKindName(kind)) +
               ".bin");
  LoadedCollector loaded = MakeLoadedCollector(kind, 4, 2000, 31);
  ASSERT_TRUE(loaded.collector->CheckpointTo(path).ok());

  // Reports ingested AFTER the checkpoint must not leak into the file.
  auto encoder = CreateProtocol(kind, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(IngestReports(loaded.handle, kind,
                            EncodeReportStream(**encoder, 300, 77))
                  .ok());

  for (int target_shards : {1, 2, 4}) {
    auto restored = MakeCollector(kind, target_shards);
    ASSERT_TRUE(restored->RestoreFrom(path).ok());
    const auto merged = Merged(*restored);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->reports_absorbed(), 2000u);
    ExpectBitwiseEqualEstimates(*loaded.reference, *merged);
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CheckpointPerProtocolTest,
    ::testing::ValuesIn(RegisteredProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

TEST(Checkpoint, EmptySnapshotListRoundTrips) {
  const std::vector<uint8_t> header_only = MustEncode({});
  EXPECT_EQ(header_only.size(), 20u);  // header only
  auto decoded =
      DecodeCollectorCheckpoint(header_only.data(), header_only.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->empty());

  const std::vector<uint8_t> image = MustEncode({{"empty", {}}});
  decoded = DecodeCollectorCheckpoint(image.data(), image.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].id, "empty");
  EXPECT_TRUE((*decoded)[0].snapshots.empty());
}

TEST(Checkpoint, NewerFormatVersionIsRejectedNotMisparsed) {
  // Stamp another version and re-stamp a VALID header CRC: this simulates
  // a well-formed file from another build, not corruption. Version 1 is
  // the retired single-collection container, whose header-only image the
  // decoder would otherwise accept as an empty checkpoint.
  for (const uint32_t version : {engine::kCheckpointFormatVersion + 1, 1u}) {
    std::vector<uint8_t> image = MustEncode({});
    image[8] = static_cast<uint8_t>(version);
    const uint32_t crc = Crc32c(image.data(), 16);
    image[16] = static_cast<uint8_t>(crc);
    image[17] = static_cast<uint8_t>(crc >> 8);
    image[18] = static_cast<uint8_t>(crc >> 16);
    image[19] = static_cast<uint8_t>(crc >> 24);
    auto decoded = DecodeCollectorCheckpoint(image.data(), image.size());
    ASSERT_FALSE(decoded.ok()) << "version " << version << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(Checkpoint, BadMagicIsRejected) {
  std::vector<uint8_t> image = MustEncode({});
  image[0] = 'X';
  auto decoded = DecodeCollectorCheckpoint(image.data(), image.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(Checkpoint, RestoreFromMissingFileIsNotFound) {
  auto collector = MakeCollector(ProtocolKind::kInpHT, 1);
  const Status s = collector->RestoreFrom(TestPath("ckpt_no_such_file.bin"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// A corrupted file must reject with a clear error AND leave the target
// collection's state untouched.
TEST(Checkpoint, CorruptFileLeavesEngineStateIntact) {
  const std::string path = TestPath("ckpt_corrupt.bin");
  LoadedCollector loaded =
      MakeLoadedCollector(ProtocolKind::kInpHT, 2, 500, 37);
  ASSERT_TRUE(loaded.collector->CheckpointTo(path).ok());
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *bytes).ok());

  const Status restored = loaded.collector->RestoreFrom(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("checkpoint"), std::string::npos)
      << restored.ToString();
  // State unchanged: still answers like the reference aggregator.
  const auto merged = Merged(*loaded.collector);
  ASSERT_NE(merged, nullptr);
  ExpectBitwiseEqualEstimates(*loaded.reference, *merged);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".corrupt");  // quarantined by the restore
}

// Restoring a checkpoint into a collection running a different protocol
// must fail (the per-snapshot protocol name guards the restore).
TEST(Checkpoint, ProtocolMismatchIsRejected) {
  const std::string path = TestPath("ckpt_mismatch.bin");
  LoadedCollector loaded =
      MakeLoadedCollector(ProtocolKind::kInpHT, 2, 200, 41);
  ASSERT_TRUE(loaded.collector->CheckpointTo(path).ok());
  auto other = MakeCollector(ProtocolKind::kMargPS, 1);
  EXPECT_FALSE(other->RestoreFrom(path).ok());
  std::filesystem::remove(path);
}

// ---- Checkpoint generations --------------------------------------------

TEST(CheckpointGenerations, GenerationPathNaming) {
  EXPECT_EQ(engine::CheckpointGenerationPath("/x/ckpt.bin", 0), "/x/ckpt.bin");
  EXPECT_EQ(engine::CheckpointGenerationPath("/x/ckpt.bin", 1),
            "/x/ckpt.bin.1");
  EXPECT_EQ(engine::CheckpointGenerationPath("/x/ckpt.bin", 3),
            "/x/ckpt.bin.3");
}

TEST(CheckpointGenerations, RotationKeepsNewestNMinusOneAndDropsOlder) {
  const std::string dir = TestPath("ckpt_gen_rotate");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  // Four writes through a 3-generation rotation: A, B, C, D. The rotation
  // before each write shifts existing files one slot older, so at the end
  // path=D, path.1=C, path.2=B, and A has been rotated out of existence.
  for (uint8_t content : {'A', 'B', 'C', 'D'}) {
    ASSERT_TRUE(engine::RotateCheckpointGenerations(path, 3).ok());
    ASSERT_TRUE(WriteBinaryFileAtomic(path, {content}).ok());
  }
  auto newest = ReadBinaryFile(path);
  auto gen1 = ReadBinaryFile(path + ".1");
  auto gen2 = ReadBinaryFile(path + ".2");
  ASSERT_TRUE(newest.ok());
  ASSERT_TRUE(gen1.ok());
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(*newest, std::vector<uint8_t>{'D'});
  EXPECT_EQ(*gen1, std::vector<uint8_t>{'C'});
  EXPECT_EQ(*gen2, std::vector<uint8_t>{'B'});
  EXPECT_FALSE(std::filesystem::exists(path + ".3"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGenerations, SingleGenerationRotationIsNoop) {
  const std::string path = TestPath("ckpt_gen_single.bin");
  ASSERT_TRUE(WriteBinaryFileAtomic(path, {1}).ok());
  ASSERT_TRUE(engine::RotateCheckpointGenerations(path, 1).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
  std::filesystem::remove(path);
}

TEST(CheckpointGenerations, FallbackSkipsCorruptNewestAndQuarantines) {
  const std::string dir = TestPath("ckpt_gen_fallback");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  // Two checkpoints of the same collector at different cuts: gen 1 holds
  // the 400-report cut, gen 0 the 700-report cut.
  auto collector = MakeCollector(ProtocolKind::kInpHT, 2, /*generations=*/2);
  auto handle = collector->Handle(kCollectionId);
  ASSERT_TRUE(handle.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(IngestReports(*handle, ProtocolKind::kInpHT,
                            EncodeReportStream(**encoder, 400, 3))
                  .ok());
  ASSERT_TRUE(collector->CheckpointTo(path).ok());
  ASSERT_TRUE(IngestReports(*handle, ProtocolKind::kInpHT,
                            EncodeReportStream(**encoder, 300, 5))
                  .ok());
  ASSERT_TRUE(collector->CheckpointTo(path).ok());

  // Corrupt the newest generation in place.
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 3] ^= 0x10;
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *bytes).ok());

  engine::CheckpointFallbackInfo info;
  auto collections =
      engine::ReadCollectorCheckpointWithFallback(path, 2, &info);
  ASSERT_TRUE(collections.ok()) << collections.status().ToString();
  EXPECT_EQ(info.generation, 1);
  EXPECT_EQ(info.path, path + ".1");
  ASSERT_EQ(info.quarantined.size(), 1u);
  EXPECT_EQ(info.quarantined[0], path + ".corrupt");
  // The corrupt file moved aside — inspectable, out of the rotation.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  ASSERT_EQ(collections->size(), 1u);
  uint64_t total = 0;
  for (const AggregatorSnapshot& s : (*collections)[0].snapshots) {
    total += s.reports_absorbed;
  }
  EXPECT_EQ(total, 400u);

  // The collector-level restore takes the same fallback path.
  auto restored = MakeCollector(ProtocolKind::kInpHT, 1, /*generations=*/2);
  ASSERT_TRUE(restored->RestoreFrom(path).ok());
  const auto merged = Merged(*restored);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->reports_absorbed(), 400u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGenerations, AllGenerationsCorruptReportsLastErrorNotFound) {
  const std::string dir = TestPath("ckpt_gen_all_corrupt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  ASSERT_TRUE(WriteBinaryFileAtomic(path, {0xDE, 0xAD}).ok());
  ASSERT_TRUE(WriteBinaryFileAtomic(path + ".1", {0xBE, 0xEF}).ok());

  engine::CheckpointFallbackInfo info;
  auto collections =
      engine::ReadCollectorCheckpointWithFallback(path, 2, &info);
  ASSERT_FALSE(collections.ok());
  EXPECT_NE(collections.status().code(), StatusCode::kNotFound)
      << collections.status().ToString();
  EXPECT_EQ(info.quarantined.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_TRUE(std::filesystem::exists(path + ".1.corrupt"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGenerations, NoGenerationAtAllIsNotFound) {
  auto collections = engine::ReadCollectorCheckpointWithFallback(
      TestPath("ckpt_gen_none.bin"), 3);
  ASSERT_FALSE(collections.ok());
  EXPECT_EQ(collections.status().code(), StatusCode::kNotFound);
}

TEST(Checkpoint, HostileArrayLengthDoesNotWrapByteArithmetic) {
  // Regression for the u64 wrap in the array-length guard: a reals length
  // of 0x2000000000000001 multiplied by 8 wraps mod 2^64 to exactly 8, so
  // the old `count * 8 <= remaining` check passed with 8 payload bytes in
  // hand and the decoder then tried to materialize 2^61 doubles. The exact
  // triggering bytes: a valid empty snapshot with the reals-length field
  // patched and 8 trailing bytes appended to satisfy the wrapped check.
  AggregatorSnapshot snapshot;
  snapshot.protocol = "x";
  std::vector<uint8_t> payload = engine::SerializeSnapshot(snapshot);
  const size_t reals_len_at = 4 + 1 + 4 + 4 + 8 + 4 + 8 + 8;  // == 41
  ASSERT_EQ(payload.size(), reals_len_at + 8 + 8);
  const uint8_t wrapping_len[8] = {0x01, 0, 0, 0, 0, 0, 0, 0x20};
  std::copy(wrapping_len, wrapping_len + 8, payload.begin() + reals_len_at);
  payload.insert(payload.end(), 8, 0x00);

  auto parsed = engine::DeserializeSnapshot(payload.data(), payload.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(
                "reals length 2305843009213693953 exceeds"),
            std::string::npos)
      << parsed.status().ToString();

  // Same wrap on the counts-length field of an otherwise-valid payload.
  std::vector<uint8_t> counts_payload = engine::SerializeSnapshot(snapshot);
  const size_t counts_len_at = reals_len_at + 8;
  std::copy(wrapping_len, wrapping_len + 8,
            counts_payload.begin() + counts_len_at);
  counts_payload.insert(counts_payload.end(), 8, 0x00);
  auto counts_parsed =
      engine::DeserializeSnapshot(counts_payload.data(), counts_payload.size());
  ASSERT_FALSE(counts_parsed.ok());
  EXPECT_NE(counts_parsed.status().message().find(
                "counts length 2305843009213693953 exceeds"),
            std::string::npos)
      << counts_parsed.status().ToString();
}

}  // namespace
}  // namespace ldpm
