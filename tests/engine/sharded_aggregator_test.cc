// Tests for the sharded aggregation engine: shard-count invariance (the
// merged S-shard state must be bitwise-identical to a single aggregator fed
// the same report stream), snapshot-based re-sharding, the throughput
// counters and the drain barrier, and error surfacing.

#include "engine/sharded_aggregator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/marginal.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::EngineOptions;
using engine::ShardedAggregator;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::IngestReports;
using test::MakeConfig;

/// The value of an engine counter in its (unlabeled) private registry.
uint64_t CounterValue(const ShardedAggregator& engine, const char* name) {
  return engine.metrics()->CounterValue(name);
}

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
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    // Uneven frames: half the stream in one, the rest in frames of 128.
    const size_t half = reports.size() / 2;
    ASSERT_TRUE(IngestReports(**eng, kind,
                              std::vector<Report>(reports.begin(),
                                                  reports.begin() + half))
                    .ok());
    for (size_t begin = half; begin < reports.size(); begin += 128) {
      const size_t end = std::min(begin + 128, reports.size());
      ASSERT_TRUE(IngestReports(**eng, kind,
                                std::vector<Report>(reports.begin() + begin,
                                                    reports.begin() + end))
                      .ok());
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

TEST(ShardedAggregator, SnapshotRestoresAcrossShardCounts) {
  const ProtocolConfig config = MakeConfig(6, 2);
  for (ProtocolKind kind : AllProtocolKinds()) {
    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok());
    auto encoder = CreateProtocol(kind, config);
    ASSERT_TRUE(encoder.ok());
    ASSERT_TRUE(
        IngestReports(**eng, kind, EncodeReportStream(**encoder, 2000, 31))
            .ok());
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

// Every work item — one wire frame — counts once in
// ldpm_engine_batches_enqueued_total and advances the state version once.
TEST(ShardedAggregator, CountsOneBatchPerFrame) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 2;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 600, 9);

  for (size_t begin = 0; begin < 600; begin += 200) {
    const std::vector<Report> frame(reports.begin() + begin,
                                    reports.begin() + begin + 200);
    ASSERT_TRUE(IngestReports(**eng, ProtocolKind::kMargPS, frame).ok());
  }
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_batches_enqueued_total"), 3u);
  EXPECT_EQ((*eng)->state_version(), 3u);
  // An empty frame enqueues nothing.
  ASSERT_TRUE((*eng)->IngestWireBatch({}).ok());
  EXPECT_EQ((*eng)->state_version(), 3u);

  ASSERT_TRUE((*eng)->Flush().ok());
  auto absorbed = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 600u);
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_reports_absorbed_total"), 600u);
}

// Flush is a drain barrier: with work queued on every shard, the counts it
// leaves behind are exact — per shard, in the counters, and in bits.
TEST(ShardedAggregator, FlushLeavesExactCounts) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 3;
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  // 30 frames of 100: round-robin lands 10 on each shard.
  const std::vector<Report> reports = EncodeReportStream(**encoder, 3000, 13);
  for (size_t begin = 0; begin < reports.size(); begin += 100) {
    const std::vector<Report> frame(reports.begin() + begin,
                                    reports.begin() + begin + 100);
    ASSERT_TRUE(IngestReports(**eng, ProtocolKind::kInpHT, frame).ok());
  }
  ASSERT_TRUE((*eng)->Flush().ok());
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_reports_absorbed_total"), 3000u);
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_batches_enqueued_total"), 30u);
  const uint64_t bits_per_report = static_cast<uint64_t>(config.d) + 1;
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_report_bits_total"),
            bits_per_report * 3000);
  auto snapshots = (*eng)->SnapshotShards();
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 3u);
  for (const AggregatorSnapshot& shard : *snapshots) {
    EXPECT_EQ(shard.reports_absorbed, 1000u);
  }
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

// A malformed record costs only its own frame: the records before it stay
// absorbed, the next Flush reports the error once, later frames are
// absorbed, and no read fails on it.
TEST(ShardedAggregator, WorkerErrorsSurfaceAtFlush) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 2;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  // Ten good records, then an 8-byte record where MargPS's are 1 byte.
  auto frame = SerializeReportBatch(ProtocolKind::kMargPS, config,
                                    EncodeReportStream(**encoder, 10, 71));
  ASSERT_TRUE(frame.ok());
  const uint8_t bad_record[] = {8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  frame->insert(frame->end(), std::begin(bad_record), std::end(bad_record));
  ASSERT_TRUE((*eng)->IngestWireBatch(*std::move(frame)).ok());  // enqueues
  // Two good frames before any Flush: round-robin puts one on each shard,
  // so one queues behind the bad frame.
  for (uint64_t seed : {72, 73}) {
    ASSERT_TRUE(IngestReports(**eng, ProtocolKind::kMargPS,
                              EncodeReportStream(**encoder, 20, seed))
                    .ok());
  }
  const Status flushed = (*eng)->Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_NE(flushed.message().find("shard"), std::string::npos);
  EXPECT_TRUE((*eng)->Flush().ok());  // reported once
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_absorb_errors_total"), 1u);
  auto absorbed = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 50u);
  EXPECT_TRUE((*eng)->Merged().ok());
  EXPECT_TRUE((*eng)->SnapshotShards().ok());
}

// An error injected at the engine.shard.absorb failpoint fails its whole
// frame as a malformed record would: none of its reports count, the next
// Flush reports it once, and the next frame is absorbed.
TEST(ShardedAggregator, InjectedAbsorbErrorCostsOneFrame) {
  const ProtocolConfig config = MakeConfig(6, 2);
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  failpoint::Spec fail_once;
  fail_once.count = 1;
  failpoint::Arm("engine.shard.absorb", fail_once);
  for (uint64_t seed : {81, 82}) {
    ASSERT_TRUE(IngestReports(**eng, ProtocolKind::kInpHT,
                              EncodeReportStream(**encoder, 30, seed))
                    .ok());
  }
  const Status flushed = (*eng)->Flush();
  failpoint::DisarmAll();
  EXPECT_EQ(flushed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*eng)->Flush().ok());
  EXPECT_EQ(CounterValue(**eng, "ldpm_engine_absorb_errors_total"), 1u);
  auto absorbed = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 30u);
}

TEST(ShardedAggregator, RejectsBadOptions) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  for (const int shards : {0, 1025}) {
    options.num_shards = shards;
    EXPECT_FALSE(
        ShardedAggregator::Create(ProtocolKind::kInpHT, config, options).ok());
  }
}

}  // namespace
}  // namespace ldpm
