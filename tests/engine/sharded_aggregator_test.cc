// Tests for the sharded aggregation engine: shard-count invariance (the
// merged S-shard state must be bitwise-identical to a single aggregator fed
// the same report stream), snapshot-based re-sharding, stats, and error
// surfacing.

#include "engine/sharded_aggregator.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "oracle/cms.h"
#include "oracle/olh.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::EngineOptions;
using engine::ShardedAggregator;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

class ShardCountInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {
};

// Feeding a fixed pre-encoded report stream through any shard count must
// produce estimates bitwise-identical to the classic single aggregator:
// per-report state increments are integers (exact in doubles), so shard
// sums merge associatively.
TEST_P(ShardCountInvarianceTest, MergedEstimatesMatchSingleAggregator) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto single = CreateProtocol(kind, config);
  ASSERT_TRUE(single.ok());
  const std::vector<Report> reports = EncodeReportStream(**single, 4000, 17);
  for (const Report& r : reports) ASSERT_TRUE((*single)->Absorb(r).ok());

  for (int shards : {1, 3, 4}) {
    EngineOptions options;
    options.num_shards = shards;
    options.batch_size = 128;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    // Mix the batch and single-report ingest paths.
    const size_t half = reports.size() / 2;
    ASSERT_TRUE((*eng)
                    ->IngestBatch(std::vector<Report>(
                        reports.begin(), reports.begin() + half))
                    .ok());
    for (size_t i = half; i < reports.size(); ++i) {
      ASSERT_TRUE((*eng)->Ingest(reports[i]).ok());
    }
    auto merged = (*eng)->Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ((*merged)->reports_absorbed(), reports.size());
    ExpectBitwiseEqualEstimates(**single, **merged);
  }
}

// Wire batch frames through the engine must match the single aggregator
// bitwise too — the zero-copy path ends in the same accumulators.
TEST_P(ShardCountInvarianceTest, WireIngestMatchesSingleAggregator) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto single = CreateProtocol(kind, config);
  ASSERT_TRUE(single.ok());
  const std::vector<Report> reports = EncodeReportStream(**single, 3000, 29);
  for (const Report& r : reports) ASSERT_TRUE((*single)->Absorb(r).ok());

  for (int shards : {1, 4}) {
    EngineOptions options;
    options.num_shards = shards;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok());
    for (size_t begin = 0; begin < reports.size(); begin += 500) {
      auto frame = SerializeReportBatch(
          kind, config,
          std::vector<Report>(reports.begin() + begin,
                              reports.begin() + begin + 500));
      ASSERT_TRUE(frame.ok());
      ASSERT_TRUE((*eng)->IngestWireBatch(*std::move(frame)).ok());
    }
    auto merged = (*eng)->Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ((*merged)->reports_absorbed(), reports.size());
    EXPECT_EQ((*merged)->total_report_bits(), (*single)->total_report_bits());
    ExpectBitwiseEqualEstimates(**single, **merged);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ShardCountInvarianceTest,
    ::testing::ValuesIn(RegisteredProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

// The oracle-backed frequency oracles ride through the factory-callback
// constructor; they must shard exactly like the native protocols.
TEST(ShardedAggregator, OracleBackedProtocolsShard) {
  const ProtocolConfig config = MakeConfig(6, 2);
  struct Case {
    std::string name;
    engine::ProtocolFactory factory;
  };
  const std::vector<Case> cases = {
      {"InpHTCMS",
       [config]() -> StatusOr<std::unique_ptr<MarginalProtocol>> {
         CmsParams params;
         params.width = 64;
         auto p = InpHtCmsProtocol::Create(config, params, 99);
         if (!p.ok()) return p.status();
         return std::unique_ptr<MarginalProtocol>(*std::move(p));
       }},
      {"InpOLH", [config]() -> StatusOr<std::unique_ptr<MarginalProtocol>> {
         auto p = InpOlhProtocol::Create(config);
         if (!p.ok()) return p.status();
         return std::unique_ptr<MarginalProtocol>(*std::move(p));
       }},
  };
  for (const Case& test_case : cases) {
    auto single = test_case.factory();
    ASSERT_TRUE(single.ok());
    const std::vector<Report> reports = EncodeReportStream(**single, 1500, 23);
    for (const Report& r : reports) ASSERT_TRUE((*single)->Absorb(r).ok());

    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(test_case.factory, options);
    ASSERT_TRUE(eng.ok()) << test_case.name;
    ASSERT_TRUE((*eng)->IngestBatch(reports).ok());
    auto merged = (*eng)->Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectBitwiseEqualEstimates(**single, **merged);
  }
}

// Row ingest runs the client encoders on the shard workers with independent
// Rng streams: not bitwise-reproducible across shard counts, but the
// estimates must still converge to the population's marginals.
TEST(ShardedAggregator, RowIngestIsDistributionEquivalent) {
  const ProtocolConfig config = MakeConfig(5, 2);
  Rng rng(5);
  std::vector<uint64_t> rows;
  for (size_t i = 0; i < 60000; ++i) rows.push_back(rng() & 0x1F);

  for (bool fast_path : {false, true}) {
    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE((*eng)->IngestPopulation(rows, fast_path).ok());
    auto reports = (*eng)->ReportsAbsorbed();
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(*reports, rows.size());

    auto truth = MarginalFromRows(rows, config.d, 0b11);
    auto estimate = (*eng)->EstimateMarginal(0b11);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(estimate.ok());
    EXPECT_LT(truth->TotalVariationDistance(*estimate), 0.1);
  }
}

TEST(ShardedAggregator, SnapshotRestoresAcrossShardCounts) {
  const ProtocolConfig config = MakeConfig(6, 2);
  for (ProtocolKind kind : AllProtocolKinds()) {
    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok());
    auto encoder = CreateProtocol(kind, config);
    ASSERT_TRUE(encoder.ok());
    ASSERT_TRUE((*eng)->IngestBatch(EncodeReportStream(**encoder, 2000, 31)).ok());
    auto merged_before = (*eng)->Merged();
    ASSERT_TRUE(merged_before.ok());

    auto snapshots = (*eng)->SnapshotShards();
    ASSERT_TRUE(snapshots.ok()) << snapshots.status().ToString();
    ASSERT_EQ(snapshots->size(), 4u);

    // Restore the 4 shard snapshots into a 2-shard engine (re-sharding) and
    // into another 4-shard engine (crash recovery).
    for (int target_shards : {2, 4}) {
      EngineOptions target_options;
      target_options.num_shards = target_shards;
      auto restored = ShardedAggregator::Create(kind, config, target_options);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE((*restored)->RestoreShards(*snapshots).ok());
      auto merged_after = (*restored)->Merged();
      ASSERT_TRUE(merged_after.ok()) << merged_after.status().ToString();
      EXPECT_EQ((*merged_after)->reports_absorbed(),
                (*merged_before)->reports_absorbed());
      EXPECT_EQ((*merged_after)->total_report_bits(),
                (*merged_before)->total_report_bits());
      ExpectBitwiseEqualEstimates(**merged_before, **merged_after);
    }
  }
}

TEST(ShardedAggregator, StatsCountPerShard) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 3;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 900, 41);
  // Three batches of 300: round-robin lands one on each shard.
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE((*eng)
                    ->IngestBatch(std::vector<Report>(
                        reports.begin() + b * 300,
                        reports.begin() + (b + 1) * 300))
                    .ok());
  }
  auto stats = (*eng)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reports, 900u);
  ASSERT_EQ(stats->per_shard_reports.size(), 3u);
  for (uint64_t per_shard : stats->per_shard_reports) {
    EXPECT_EQ(per_shard, 300u);
  }
  EXPECT_GT(stats->wall_seconds, 0.0);
  EXPECT_GT(stats->reports_per_second, 0.0);
  EXPECT_GT(stats->bits_per_second, 0.0);
  EXPECT_FALSE(stats->ToString().empty());
}

TEST(ShardedAggregator, ResetClearsAllShards) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 4;
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  auto fresh = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  ASSERT_TRUE(eng.ok());
  ASSERT_TRUE(fresh.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());

  ASSERT_TRUE((*eng)->IngestBatch(EncodeReportStream(**encoder, 1000, 51)).ok());
  ASSERT_TRUE((*eng)->Reset().ok());
  auto total = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 0u);

  const std::vector<Report> second = EncodeReportStream(**encoder, 1000, 52);
  ASSERT_TRUE((*eng)->IngestBatch(second).ok());
  ASSERT_TRUE((*fresh)->IngestBatch(second).ok());
  auto merged_reset = (*eng)->Merged();
  auto merged_fresh = (*fresh)->Merged();
  ASSERT_TRUE(merged_reset.ok());
  ASSERT_TRUE(merged_fresh.ok());
  ExpectBitwiseEqualEstimates(**merged_reset, **merged_fresh);
}

// A reader's merged state must outlive a re-merge at a newer epoch. Two
// readers query an InpRR d = 12 engine while a writer pushes a one-report
// wire frame every 50 us, so each frame makes the next query merge anew
// and replace the engine's merged copy while the other reader may still
// be estimating from the copy it was handed. One reader asks one table per
// merge (CollectionHandle::Query); the other holds one merged state across
// several tables, as a snapshot rebuild does. When the engine alone owned
// the merged copy, ASan reported a heap-use-after-free here.
TEST(ShardedAggregator, MergedStateOutlivesAConcurrentRemerge) {
  const ProtocolConfig config = MakeConfig(12, 2);
  EngineOptions options;
  options.num_shards = 2;
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpRR, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpRR, config);
  ASSERT_TRUE(encoder.ok());
  std::vector<std::vector<uint8_t>> frames;
  for (const Report& report : EncodeReportStream(**encoder, 64, 61)) {
    auto frame = SerializeReportBatch(ProtocolKind::kInpRR, config, {report});
    ASSERT_TRUE(frame.ok());
    frames.push_back(*std::move(frame));
  }
  ASSERT_TRUE((*eng)->IngestWireBatch(frames[0]).ok());

  constexpr size_t kFrames = 2000;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  const auto check = [&](const StatusOr<MarginalTable>& table) {
    if (!table.ok() || !std::isfinite(table->Total())) ++failures;
  };
  std::thread per_query([&] {
    while (!done.load()) check((*eng)->EstimateMarginal(0b011));
  });
  std::thread held([&] {
    while (!done.load()) {
      auto merged = (*eng)->Merged();
      if (!merged.ok()) {
        ++failures;
        continue;
      }
      for (uint64_t beta : KWaySelectors(4, 2)) {
        check((*merged)->EstimateMarginal(beta));
      }
    }
  });
  for (size_t i = 1; i < kFrames; ++i) {
    if (!(*eng)->IngestWireBatch(frames[i % frames.size()]).ok()) ++failures;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  done.store(true);
  per_query.join();
  held.join();
  EXPECT_EQ(failures.load(), 0);
  auto total = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, kFrames);
}

TEST(ShardedAggregator, WorkerErrorsSurfaceAtFlush) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 2;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  Report malformed;
  malformed.selector = (uint64_t{1} << 6) - 1;  // order-6 selector: rejected
  malformed.value = 0;
  ASSERT_TRUE((*eng)->IngestBatch({malformed}).ok());  // enqueue succeeds
  const Status flushed = (*eng)->Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_NE(flushed.message().find("shard"), std::string::npos);
}

TEST(ShardedAggregator, RejectsBadOptions) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(
      ShardedAggregator::Create(ProtocolKind::kInpHT, config, options).ok());
  options.num_shards = 2;
  options.batch_size = 0;
  EXPECT_FALSE(
      ShardedAggregator::Create(ProtocolKind::kInpHT, config, options).ok());
  EXPECT_FALSE(
      ShardedAggregator::Create(engine::ProtocolFactory(), EngineOptions())
          .ok());
}

}  // namespace
}  // namespace ldpm
