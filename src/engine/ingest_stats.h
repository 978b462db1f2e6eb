// Throughput accounting for the sharded aggregation engine.
//
// Since the obs/ metrics layer landed, this struct is a *view*: the batch
// count reads the engine's monotonic registry counter (minus the window
// baseline recorded at Reset), and reports/bits read the shard protocols —
// the same sources the ldpm_engine_* series on /metrics are fed from, so the
// two can never disagree. Stats() remains the resettable, windowed,
// rate-bearing convenience; the registry remains the monotonic scrape
// surface.

#ifndef LDPM_ENGINE_INGEST_STATS_H_
#define LDPM_ENGINE_INGEST_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ldpm {
namespace engine {

/// A point-in-time throughput report for one ShardedAggregator. The window
/// opens at the first ingest after construction (or Reset) and closes when
/// the stats are taken; rates are averaged over that window.
struct IngestStats {
  /// Reports absorbed across all shards.
  uint64_t reports = 0;
  /// Work batches enqueued onto shard queues since construction/Reset
  /// (report batches, wire batch frames, and row chunks all count as one).
  uint64_t batches = 0;
  /// Total measured communication absorbed, in bits (per the paper's
  /// Table 2 accounting).
  double bits = 0.0;
  /// Length of the ingest window in seconds (0 if nothing was ingested).
  double wall_seconds = 0.0;
  /// Average ingest rates over the window (0 if the window is empty).
  double reports_per_second = 0.0;
  double bits_per_second = 0.0;
  /// Reports absorbed by each shard, in shard order.
  std::vector<uint64_t> per_shard_reports;

  /// One-line human-readable rendering, e.g.
  /// "1200000 reports in 0.52s (2.31e+06 reports/s, 2.08e+07 bits/s), shards [...]".
  std::string ToString() const;
};

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_INGEST_STATS_H_
