// Property (c) of the serving contract: concurrent readers racing epoch
// flips never observe a torn or mixed-epoch snapshot. Readers hammer
// Get()/Marginal() while a writer ingests and forces watermark advances;
// every observation must be internally consistent:
//
//   * a snapshot's tables all belong to one epoch (same-object identity
//     for equal epoch numbers, overlap agreement inside each snapshot),
//   * per-reader epochs are monotone non-decreasing,
//   * answers are never NaN/partial (a torn publish would surface here).
//
// The suite is registered in the TSan CI job (query_ prefix); the
// interesting assertions are the data-race-freedom ones the sanitizer
// checks for us.

#include <atomic>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "engine/collector.h"
#include "protocols/test_util.h"
#include "query/marginal_cache.h"

namespace ldpm {
namespace {

using engine::Collector;
using engine::CollectorOptions;
using query::MarginalCache;
using query::Snapshot;
using test::IngestRows;
using test::MakeConfig;
using test::SkewedRows;

TEST(MarginalCacheConcurrency, ReadersNeverSeeTornOrMixedEpochSnapshots) {
  const int d = 5;
  const int k = 2;
  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  auto collector = Collector::Create(options);
  ASSERT_TRUE(collector.ok());
  auto handle =
      (*collector)->Register("c", ProtocolKind::kInpHT, MakeConfig(d, k));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(
      IngestRows(*handle, ProtocolKind::kInpHT, SkewedRows(d, 2000, 1), 1)
          .ok());
  ASSERT_TRUE(handle->Flush().ok());

  auto cache = MarginalCache::Create(collector->get(), "c");
  ASSERT_TRUE(cache.ok());

  constexpr int kReaders = 3;
  constexpr int kItersPerReader = 60;
  constexpr int kWriterChunks = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      const Snapshot* last_ptr = nullptr;
      for (int i = 0; i < kItersPerReader; ++i) {
        auto snap = (*cache)->Get();
        if (!snap.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const Snapshot& s = **snap;
        // Epochs only move forward for any single reader.
        if (s.epoch() < last_epoch) failures.fetch_add(1);
        // Equal epoch numbers mean the very same immutable object —
        // a republished epoch would be a torn/mixed state.
        if (s.epoch() == last_epoch && last_ptr != nullptr &&
            &s != last_ptr) {
          failures.fetch_add(1);
        }
        last_epoch = s.epoch();
        last_ptr = &s;

        // Internal consistency of whatever epoch we got: all tables
        // present, finite, and agreeing on a spot-checked overlap.
        for (uint64_t beta : FullKWaySelectors(d, k)) {
          const std::span<const double> cells = s.Find(beta);
          if (cells.size() != (size_t{1} << Popcount(beta))) {
            failures.fetch_add(1);
            continue;
          }
          for (double cell : cells) {
            if (!std::isfinite(cell)) failures.fetch_add(1);
          }
        }
        const uint64_t pair = 0b00011;  // attrs {0,1}
        const uint64_t other = 0b00101;  // attrs {0,2}; overlap {0}
        auto a =
            MarginalizeTable(MarginalTable(d, pair, s.Find(pair)), 0b00001);
        auto b =
            MarginalizeTable(MarginalTable(d, other, s.Find(other)), 0b00001);
        if (!a.ok() || !b.ok() ||
            std::abs(a->at_compact(0) - b->at_compact(0)) > 1e-9 ||
            std::abs(a->at_compact(1) - b->at_compact(1)) > 1e-9) {
          failures.fetch_add(1);
        }

        // Alternate in the single-table read path too.
        if ((i & 1) == r % 2) {
          auto answer = (*cache)->Marginal(pair);
          if (!answer.ok()) failures.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    for (int chunk = 0; chunk < kWriterChunks && !stop.load(); ++chunk) {
      const uint64_t seed = 100 + uint64_t(chunk);
      auto status = IngestRows(*handle, ProtocolKind::kInpHT,
                               SkewedRows(d, 200, seed), seed);
      if (!status.ok()) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(failures.load(), 0);

  // Quiesce, then one final read reflects the full ingest.
  ASSERT_TRUE(handle->Flush().ok());
  auto final_snapshot = (*cache)->Get();
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_EQ((*final_snapshot)->watermark(), (*cache)->LiveWatermark());
}

}  // namespace
}  // namespace ldpm
