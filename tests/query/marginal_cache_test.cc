// The query-serving plane's verification harness (properties a, b, d of
// the serving contract; property c — torn-snapshot freedom under
// concurrency — lives in tests/query/concurrency_test.cc):
//
//   (a) Overlap agreement: every pair of served marginals with
//       intersecting attribute sets marginalizes to the same sub-table,
//       across ALL registered protocol kinds including (binary) InpES.
//       Agreement is asserted per cell to 1e-12 — the shared-coefficient
//       fit makes overlaps *mathematically* identical, and the residual
//       is only IEEE summation-order noise (marginalizing a
//       reconstructed table re-associates the same sum).
//   (b) Bitwise reproducibility: a cache answer at watermark W is
//       bit-for-bit the rebuild's reference — one
//       CollectionHandle::Coefficients export + ReconstructMarginal — at
//       W, and within 1e-12 of the library pipeline (Query for every
//       cached selector + MakeConsistent, equal weights) at W.
//   (d) Accuracy envelope: cache-served answers on a known synthetic
//       population stay within the protocol's analytic error bound
//       (protocols/accuracy.h) with a constant-factor allowance.
//
// Plus the epoch machinery itself: invalidation keyed on the engine's
// state version (ingest and live restores), hit / refresh metrics, rebuild
// errors (driven through the query.cache.rebuild failpoint), and the
// Create-time domain guards.

#include "query/marginal_cache.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/consistency.h"
#include "core/failpoint.h"
#include "core/marginal.h"
#include "engine/collector.h"
#include "protocols/accuracy.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"

namespace ldpm {
namespace {

using engine::Collector;
using engine::CollectorOptions;
using engine::IngestBudget;
using query::MarginalCache;
using query::Snapshot;
using test::EncodeReportStream;
using test::IngestReports;
using test::IngestRows;
using test::MakeConfig;
using test::SkewedRows;

std::unique_ptr<Collector> MakeCollector(int num_shards = 2) {
  CollectorOptions options;
  options.engine_defaults.num_shards = num_shards;
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  return *std::move(collector);
}

/// Registers a collection, ingests `rows`, and flushes.
engine::CollectionHandle Fill(Collector& collector, const std::string& id,
                              ProtocolKind kind, const ProtocolConfig& config,
                              const std::vector<uint64_t>& rows) {
  auto handle = collector.Register(id, kind, config);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(IngestRows(*handle, kind, rows, /*seed=*/1).ok());
  EXPECT_TRUE(handle->Flush().ok());
  return *std::move(handle);
}

// ---- (a) overlap agreement across every registered kind --------------------

TEST(MarginalCacheOverlap, AllRegisteredKindsAgreeOnOverlaps) {
  const int d = 6;
  const int k = 2;
  const std::vector<uint64_t> rows = SkewedRows(d, 8000, 11);
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    SCOPED_TRACE(std::string(ProtocolKindName(kind)));
    auto collector = MakeCollector();
    Fill(*collector, "c", kind, MakeConfig(d, k), rows);
    auto cache = MarginalCache::Create(collector.get(), "c");
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    auto snapshot = (*cache)->Get();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const std::vector<uint64_t> selectors = FullKWaySelectors(d, k);
    auto served = [&](uint64_t beta) {
      return MarginalTable(d, beta, (*snapshot)->Find(beta));
    };
    for (size_t i = 0; i < selectors.size(); ++i) {
      for (size_t j = i + 1; j < selectors.size(); ++j) {
        const uint64_t common = selectors[i] & selectors[j];
        if (common == 0) continue;
        auto a = MarginalizeTable(served(selectors[i]), common);
        auto b = MarginalizeTable(served(selectors[j]), common);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        const std::span<const double> canonical = (*snapshot)->Find(common);
        ASSERT_EQ(canonical.size(), a->size());
        for (uint64_t cell = 0; cell < a->size(); ++cell) {
          // The two projections disagree only by floating-point
          // re-association of one shared-coefficient reconstruction.
          EXPECT_NEAR(a->at_compact(cell), b->at_compact(cell), 1e-12)
              << "betas " << selectors[i] << " & " << selectors[j];
          // ... and both agree with the canonically served table for the
          // intersection selector itself.
          EXPECT_NEAR(a->at_compact(cell), canonical[cell], 1e-12)
              << "beta " << selectors[i] << " vs canonical " << common;
        }
      }
    }
  }
}

// ---- (b) bitwise equality with the coefficient export ---------------------

TEST(MarginalCacheBitwise, CacheEqualsCoefficientExportReconstruction) {
  // Orders 1, 2 and 3, and k = d (the full joint).
  const std::vector<std::pair<int, int>> shapes = {{6, 1}, {6, 2}, {6, 3},
                                                   {4, 4}};
  for (const auto& [d, k] : shapes) {
    for (ProtocolKind kind : RegisteredProtocolKinds()) {
      for (const int shards : {1, 2}) {
        SCOPED_TRACE(std::string(ProtocolKindName(kind)) +
                     " d=" + std::to_string(d) + " k=" + std::to_string(k) +
                     " shards=" + std::to_string(shards));
        auto collector = MakeCollector(shards);
        auto handle = Fill(*collector, "c", kind, MakeConfig(d, k),
                           SkewedRows(d, 12000, 23));

        // The rebuild's reference at the current watermark: one export
        // from the merged state, then Lemma 3.7 per selector.
        auto coefficients = handle.Coefficients(k);
        ASSERT_TRUE(coefficients.ok()) << coefficients.status().ToString();

        auto cache = MarginalCache::Create(collector.get(), "c");
        ASSERT_TRUE(cache.ok());
        auto snapshot = (*cache)->Get();
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        for (uint64_t beta : FullKWaySelectors(d, k)) {
          auto expected = coefficients->ReconstructMarginal(beta);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          const size_t bytes = expected->size() * sizeof(double);
          // Bit for bit (memcmp, so -0.0 and NaN payloads count too):
          // same merged engine state, same deterministic export.
          const std::span<const double> cells = (*snapshot)->Find(beta);
          ASSERT_EQ(cells.size(), expected->size()) << "beta=" << beta;
          EXPECT_EQ(std::memcmp(cells.data(), expected->values().data(),
                                bytes),
                    0)
              << "beta=" << beta;
          auto answer = (*cache)->Marginal(beta);
          ASSERT_TRUE(answer.ok()) << answer.status().ToString();
          EXPECT_EQ(answer->watermark, (*cache)->LiveWatermark());
          EXPECT_EQ(answer->epoch, (*snapshot)->epoch());
          EXPECT_FALSE(answer->stale);
          EXPECT_EQ(answer->table.beta(), beta);
          ASSERT_EQ(answer->table.size(), expected->size());
          EXPECT_EQ(std::memcmp(answer->table.values().data(),
                                expected->values().data(), bytes),
                    0)
              << "beta=" << beta;
        }
      }
    }
  }
}

// The cache fits the same coefficients the library pipeline does, so it
// matches Query for every selector + MakeConsistent up to rounding: the
// linear protocols export their coefficients directly instead of fitting
// them back out of the tables, and the reconstruction is an FWHT.
TEST(MarginalCacheTolerance, CacheMatchesQueryPlusMakeConsistent) {
  const int d = 6;
  const int k = 2;
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    for (const int shards : {1, 2}) {
      SCOPED_TRACE(std::string(ProtocolKindName(kind)) +
                   " shards=" + std::to_string(shards));
      auto collector = MakeCollector(shards);
      auto handle = Fill(*collector, "c", kind, MakeConfig(d, k),
                         SkewedRows(d, 12000, 29));

      const std::vector<uint64_t> selectors = FullKWaySelectors(d, k);
      std::vector<MarginalTable> raw;
      for (uint64_t beta : selectors) {
        auto table = handle.Query(beta);
        ASSERT_TRUE(table.ok()) << table.status().ToString();
        raw.push_back(*std::move(table));
      }
      auto direct = MakeConsistent(raw, d);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();

      auto cache = MarginalCache::Create(collector.get(), "c");
      ASSERT_TRUE(cache.ok());
      for (size_t i = 0; i < selectors.size(); ++i) {
        auto answer = (*cache)->Marginal(selectors[i]);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ASSERT_EQ(answer->table.size(), (*direct)[i].size());
        for (uint64_t cell = 0; cell < answer->table.size(); ++cell) {
          EXPECT_NEAR(answer->table.at_compact(cell),
                      (*direct)[i].at_compact(cell), 1e-12)
              << "beta=" << selectors[i] << " cell=" << cell;
        }
      }
    }
  }
}

// Find answers exactly the cached selectors, 1 <= |beta| <= k and every
// attribute inside [0, d), with spans that tile the snapshot's one buffer
// in selector order.
TEST(MarginalCacheSnapshot, FindIsEmptyOutsideTheCachedSet) {
  const int d = 5;
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(d, 2),
       SkewedRows(d, 2000, 17));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->max_order(), 2);
  auto snapshot = (*cache)->Get();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::span<const double> previous;
  for (uint64_t beta : FullKWaySelectors(d, 2)) {
    const std::span<const double> cells = (*snapshot)->Find(beta);
    ASSERT_EQ(cells.size(), size_t{1} << Popcount(beta)) << "beta=" << beta;
    if (!previous.empty()) {
      EXPECT_EQ(cells.data(), previous.data() + previous.size())
          << "beta=" << beta;
    }
    previous = cells;
  }
  EXPECT_TRUE((*snapshot)->Find(0).empty());          // beta = 0
  EXPECT_TRUE((*snapshot)->Find(0b00111).empty());    // |beta| = 3 > 2
  EXPECT_TRUE((*snapshot)->Find(1u << d).empty());    // attribute d
  EXPECT_TRUE((*snapshot)->Find(0b100001).empty());   // one attribute >= d
  EXPECT_TRUE((*snapshot)->Find(uint64_t{1} << 63).empty());
}

// ---- (d) accuracy envelope -------------------------------------------------

TEST(MarginalCacheAccuracy, WithinAnalyticErrorEnvelope) {
  const int d = 6;
  const int k = 2;
  const size_t n = 40000;
  const std::vector<uint64_t> rows = SkewedRows(d, n, 31);
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    SCOPED_TRACE(std::string(ProtocolKindName(kind)));
    auto collector = MakeCollector();
    Fill(*collector, "c", kind, MakeConfig(d, k), rows);
    auto cache = MarginalCache::Create(collector.get(), "c");
    ASSERT_TRUE(cache.ok());
    auto snapshot = (*cache)->Get();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

    double total_tv = 0.0;
    double uniform_tv = 0.0;
    size_t count = 0;
    for (uint64_t beta : KWaySelectors(d, k)) {
      const MarginalTable truth = test::ExactMarginal(rows, d, beta);
      const std::span<const double> cells = (*snapshot)->Find(beta);
      ASSERT_EQ(cells.size(), truth.size()) << "beta=" << beta;
      const MarginalTable served(d, beta, cells);
      total_tv += truth.TotalVariationDistance(served);
      uniform_tv +=
          truth.TotalVariationDistance(MarginalTable::Uniform(d, beta));
      ++count;
    }
    const double mean_tv = total_tv / static_cast<double>(count);

    auto predicted = PredictedError(kind, d, k, 1.0, n);
    if (predicted.ok()) {
      // The O~ bound with a generous constant allowance: consistency
      // post-processing never hurts (tested in tests/analysis), so the
      // served answers inherit each protocol's envelope.
      EXPECT_LE(mean_tv, 10.0 * *predicted);
    } else {
      // InpEM / InpES carry no worst-case guarantee; pin a loose
      // empirical envelope so regressions still surface.
      EXPECT_LE(mean_tv, 0.2);
    }
    // The served answers carry real signal: better than knowing nothing.
    EXPECT_LT(mean_tv, uniform_tv / static_cast<double>(count));
  }
}

// ---- epoch machinery -------------------------------------------------------

TEST(MarginalCacheEpochs, WatermarkInvalidatesHitsAndRefreshesCount) {
  const int d = 5;
  auto collector = MakeCollector();
  auto handle =
      Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(d, 2),
           SkewedRows(d, 2000, 5));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());

  auto first = (*cache)->Get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->epoch(), 1u);
  EXPECT_GT((*first)->watermark(), 0u);
  EXPECT_EQ((*first)->reports_absorbed(), 2000u);

  // No ingest: the same epoch serves again, lock-free.
  auto second = (*cache)->Get();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->get(), first->get());

  // Ingest advances the watermark (enqueue alone moves it); the next read
  // must rebuild.
  ASSERT_TRUE(
      IngestRows(handle, ProtocolKind::kInpHT, SkewedRows(d, 500, 6), 6).ok());
  EXPECT_GT((*cache)->LiveWatermark(), (*first)->watermark());
  auto third = (*cache)->Get();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->epoch(), 2u);
  EXPECT_GT((*third)->watermark(), (*first)->watermark());
  EXPECT_EQ((*third)->reports_absorbed(), 2500u);

  // A live restore replaces the state and advances the watermark by one:
  // the next read serves the restored state.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_cache_live_restore.ckpt"))
          .string();
  {
    auto donor = MakeCollector();
    Fill(*donor, "c", ProtocolKind::kInpHT, MakeConfig(d, 2),
         SkewedRows(d, 6000, 10));
    ASSERT_TRUE(donor->CheckpointTo(path).ok());
  }
  ASSERT_TRUE(collector->RestoreFrom(path).ok());
  std::filesystem::remove(path);
  EXPECT_EQ((*cache)->LiveWatermark(), (*third)->watermark() + 1);
  auto fourth = (*cache)->Get();
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ((*fourth)->epoch(), 3u);
  EXPECT_EQ((*fourth)->watermark(), (*third)->watermark() + 1);
  EXPECT_EQ((*fourth)->reports_absorbed(), 6000u);

  // Refresh forces one more.
  ASSERT_TRUE((*cache)->Refresh().ok());
  auto fifth = (*cache)->Get();
  ASSERT_TRUE(fifth.ok());
  EXPECT_EQ((*fifth)->epoch(), 4u);

  // The operational counters saw all of it (labeled per collection).
  obs::MetricsRegistry* metrics = collector->metrics();
  const auto name = [](const char* base) {
    return obs::WithLabels(base, {{"collection", "c"}});
  };
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_requests_total")), 5u);
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_cache_hits_total")), 2u);
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_cache_refreshes_total")),
            4u);
  auto latency = metrics->HistogramValues(name("ldpm_query_refresh_latency_ns"));
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(latency->count, 4u);
}

// The watermark is the engine's own state version, wherever the engine
// publishes its metrics: under a label other than the collection id, or in
// a registry of its own, ingest still advances it and the next read
// rebuilds.
TEST(MarginalCacheEpochs, WatermarkFollowsAnEnginePublishingElsewhere) {
  const int d = 6;
  obs::MetricsRegistry own_registry;  // outlives every engine below
  engine::EngineOptions renamed;
  renamed.metrics_collection = "renamed";
  engine::EngineOptions separate;
  separate.metrics = &own_registry;
  for (const auto& [label, overrides] :
       {std::pair{"renamed label", renamed},
        std::pair{"separate registry", separate}}) {
    SCOPED_TRACE(label);
    auto collector = MakeCollector();
    auto handle = collector->Register("c", ProtocolKind::kInpHT,
                                      MakeConfig(d, 2), overrides);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE(IngestRows(*handle, ProtocolKind::kInpHT,
                           SkewedRows(d, 5000, 7), 7)
                    .ok());
    ASSERT_TRUE(handle->Flush().ok());
    auto cache = MarginalCache::Create(collector.get(), "c");
    ASSERT_TRUE(cache.ok());

    auto first = (*cache)->Get();
    ASSERT_TRUE(first.ok());
    EXPECT_GT((*first)->watermark(), 0u);
    EXPECT_EQ((*first)->reports_absorbed(), 5000u);

    ASSERT_TRUE(IngestRows(*handle, ProtocolKind::kInpHT,
                           SkewedRows(d, 5000, 8), 8)
                    .ok());
    ASSERT_TRUE(handle->Flush().ok());
    EXPECT_GT((*cache)->LiveWatermark(), (*first)->watermark());
    auto second = (*cache)->Get();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ((*second)->epoch(), 2u);
    EXPECT_EQ((*second)->reports_absorbed(), 10000u);
  }
}

// The watermark counts only work already on a shard queue. A frame that
// waits for a shared-budget slot while a snapshot is cut is not in that
// snapshot's state; once it lands, every read serves it.
TEST(MarginalCacheEpochs, FrameWaitingForABudgetSlotIsServedOnceItLands) {
  const int d = 6;
  const ProtocolConfig config = MakeConfig(d, 2);
  CollectorOptions options;
  options.max_pending_batches_total = 1;
  auto collector = Collector::Create(options);
  ASSERT_TRUE(collector.ok());
  auto handle = (*collector)->Register("y", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 2, 5);
  ASSERT_TRUE(IngestReports(*handle, ProtocolKind::kInpHT, {reports[0]}).ok());
  ASSERT_TRUE(handle->Flush().ok());
  auto cache = MarginalCache::Create(collector->get(), "y");
  ASSERT_TRUE(cache.ok());

  // Hold the only slot, as a slow ingest on another collection would, so
  // the second frame waits for it while the reads below run.
  IngestBudget& budget = *(*collector)->shared_budget();
  budget.Acquire();
  std::thread sender([&] {
    EXPECT_TRUE(
        IngestReports(*handle, ProtocolKind::kInpHT, {reports[1]}).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t absorbed = 0;
  ASSERT_TRUE(handle->Coefficients(1, &absorbed).ok());
  EXPECT_EQ(absorbed, 1u);
  auto early = (*cache)->Get();
  ASSERT_TRUE(early.ok());
  EXPECT_EQ((*early)->reports_absorbed(), 1u);
  EXPECT_EQ((*early)->watermark(), 1u);
  budget.Release();
  sender.join();
  ASSERT_TRUE(handle->Flush().ok());

  auto total = handle->ReportsAbsorbed();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 2u);
  ASSERT_TRUE(handle->Coefficients(1, &absorbed).ok());
  EXPECT_EQ(absorbed, 2u);
  auto late = (*cache)->Get();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)->reports_absorbed(), 2u);
  EXPECT_EQ((*late)->watermark(), 2u);
  EXPECT_EQ((*late)->watermark(), (*cache)->LiveWatermark());
}

TEST(MarginalCacheEpochs, RebuildErrorPropagates) {
  failpoint::DisarmAll();
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(4, 2),
       SkewedRows(4, 500, 9));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());
  failpoint::ArmError("query.cache.rebuild");
  auto result = (*cache)->Get();
  EXPECT_FALSE(result.ok());
  failpoint::DisarmAll();
  // The failure was transient: the next read rebuilds and serves.
  auto recovered = (*cache)->Get();
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// ---- Create-time guards ----------------------------------------------------

TEST(MarginalCacheCreate, UnknownCollectionIsNotFound) {
  auto collector = MakeCollector();
  auto cache = MarginalCache::Create(collector.get(), "nope");
  EXPECT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kNotFound);
}

TEST(MarginalCacheCreate, NonBinaryCategoricalDomainRejected) {
  auto collector = MakeCollector();
  ProtocolConfig config = MakeConfig(2, 1);
  config.cardinalities = {3, 2};
  ASSERT_TRUE(
      collector->Register("cat", ProtocolKind::kInpES, config).ok());
  auto cache = MarginalCache::Create(collector.get(), "cat");
  EXPECT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(cache.status().message().find("non-binary"), std::string::npos);
}

// ---- the model over the cached 2-ways --------------------------------------

TEST(MarginalCacheModel, FitsChowLiuTreeFromSnapshotAndMemoizes) {
  const int d = 6;
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(d, 2),
       SkewedRows(d, 20000, 13));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());
  auto snapshot = (*cache)->Get();
  ASSERT_TRUE(snapshot.ok());
  auto model = (*snapshot)->Model();
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ((*model)->dimensions(), d);
  EXPECT_EQ((*model)->tree().edges.size(), static_cast<size_t>(d - 1));
  EXPECT_GE((*model)->tree().total_mutual_information, 0.0);
  EXPECT_EQ((*model)->Cpts().size(), static_cast<size_t>(d));
  // Memoized: the same snapshot hands back the same fitted model.
  auto again = (*snapshot)->Model();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *model);
}

TEST(MarginalCacheModel, ModelNeedsTwoWayMarginals) {
  // A k = 1 collection caches singletons only.
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(5, 1),
       SkewedRows(5, 1000, 3));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());
  EXPECT_TRUE((*cache)->Marginal(0b00001).ok());
  auto pair = (*cache)->Marginal(0b00011);
  EXPECT_FALSE(pair.ok());
  EXPECT_EQ(pair.status().code(), StatusCode::kInvalidArgument);
  auto snapshot = (*cache)->Get();
  ASSERT_TRUE(snapshot.ok());
  auto model = (*snapshot)->Model();
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ldpm
