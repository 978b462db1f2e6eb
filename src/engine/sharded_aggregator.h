// Sharded parallel aggregation engine.
//
// The paper describes a single logical collector of user reports; at
// production scale the collector must absorb reports from millions of users
// at hardware speed. Every protocol's aggregator state is trivially
// mergeable — additive count/coefficient accumulators or append-only report
// logs (MarginalProtocol::MergeFrom) — so ingest parallelizes by sharding:
//
//   * the engine owns S independent MarginalProtocol instances, one per
//     shard;
//   * producers enqueue wire batch frames of device-perturbed reports onto
//     per-shard bounded queues; one worker thread per shard drains its
//     queue into its shard aggregator with no cross-shard synchronization;
//   * queries merge the shard states on demand into a cached combined
//     aggregator and answer from it, so an idle engine pays the merge once
//     no matter how many marginals are asked.
//
// The engine holds no randomness and never sees a raw user row: every
// report was perturbed on its device (the paper's local model), so all of
// the serving side is post-processing.
//
// Determinism: feeding a fixed report stream through any shard count yields
// bitwise-identical estimates to a single aggregator, because per-report
// state increments are integer-valued (exactly representable in doubles)
// and addition over them is associative.

#ifndef LDPM_ENGINE_SHARDED_AGGREGATOR_H_
#define LDPM_ENGINE_SHARDED_AGGREGATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "engine/ingest_budget.h"
#include "engine/shard_queue.h"
#include "obs/metrics.h"
#include "protocols/factory.h"

namespace ldpm {
namespace engine {

/// Per-shard queue bound: producers block when a shard falls this many
/// work items behind (backpressure).
inline constexpr size_t kMaxPendingBatches = 64;

/// Engine-level configuration.
struct EngineOptions {
  /// Number of shards (and worker threads). 1 reproduces the single-
  /// aggregator deployment behind the same interface.
  int num_shards = 1;
  /// Optional engine-wide backpressure budget shared with other engines
  /// (the Collector gives every collection the same one). When set, each
  /// work item acquires a slot before it is enqueued — blocking while the
  /// whole group's in-flight work is at the budget's limit — and the shard
  /// worker releases it after absorbing the item.
  std::shared_ptr<IngestBudget> shared_budget;
  /// Where this engine publishes its operational metrics (throughput
  /// counters, queue-depth gauges, absorb/budget-wait latency
  /// histograms — docs/observability.md catalogs them). Null gives the
  /// engine a private registry, so instrumentation is always on (the
  /// counters are the engine's one throughput record) but invisible until
  /// a registry is shared. The registry must outlive the engine.
  /// Two engines sharing a registry AND a metrics_collection label share
  /// series — give each engine a distinct label (the Collector does).
  obs::MetricsRegistry* metrics = nullptr;
  /// Value of the {collection="..."} label on every metric this engine
  /// emits; empty emits unlabeled series (single-engine deployments).
  std::string metrics_collection;
};

/// The multi-core collector: S shard aggregators fed by bounded queues,
/// merged on demand for queries, and snapshot-able for re-sharding and
/// for the Collector's restart-without-replay checkpoints (see the file
/// comment and docs/architecture.md for the dataflow).
class ShardedAggregator {
 public:
  /// Creates an engine whose shards run `kind` under `config`.
  static StatusOr<std::unique_ptr<ShardedAggregator>> Create(
      ProtocolKind kind, const ProtocolConfig& config,
      const EngineOptions& options = EngineOptions());

  /// Drains and joins all workers.
  ~ShardedAggregator();

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Number of shards (== worker threads) this engine runs.
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Display name of the hosted protocol ("InpHT", ...).
  std::string_view protocol_name() const {
    core::MutexLock lock(shards_[0]->state_mu);
    return shards_[0]->protocol->name();
  }
  /// The configuration every shard protocol was created with (immutable
  /// after construction, so the returned reference outlives the lock).
  const ProtocolConfig& config() const {
    core::MutexLock lock(shards_[0]->state_mu);
    return shards_[0]->protocol->config();
  }

  // ---- Ingest (thread-safe) ----------------------------------------------

  /// Enqueues a wire batch frame (protocols/wire.h: u32-length-prefixed
  /// SerializeReport records) onto the next shard (round-robin). The
  /// worker parses and absorbs the records in place via AbsorbWireBatch:
  /// no per-record copy or Report. (Collector::IngestFrames copies each
  /// routed payload once into the frame it moves in here.) A malformed
  /// record costs only its own frame: the records before it stay absorbed,
  /// the error is counted and reported once by the next Flush(), and later
  /// frames are absorbed as usual. Acquires a shared budget slot (when
  /// configured), blocks while the target shard's queue is full, and
  /// advances state_version() once per non-empty frame.
  Status IngestWireBatch(std::vector<uint8_t> frame);

  /// Barrier: blocks until every enqueued item has been absorbed, then
  /// reports the first absorb error since the previous Flush, once (every
  /// failed item is counted in ldpm_engine_absorb_errors_total).
  Status Flush();

  // ---- Query -------------------------------------------------------------

  /// Merges shard state (Merged()) and estimates the marginal for
  /// selector beta.
  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta);

  /// Drains the queues and exposes the merged aggregator, cached until
  /// state_version() advances. The caller shares ownership: the state it
  /// holds stays alive and unchanged even when a later Merged() at a newer
  /// version replaces the engine's copy.
  StatusOr<std::shared_ptr<const MarginalProtocol>> Merged();

  // ---- Introspection -----------------------------------------------------

  /// Total reports absorbed by all shards (drains the queues first).
  StatusOr<uint64_t> ReportsAbsorbed();

  // ---- State management --------------------------------------------------

  /// Drains the queues and captures one snapshot per shard. Restoring the
  /// set into an engine with ANY shard count (see RestoreShards)
  /// reproduces the merged state exactly — the crash-free re-sharding
  /// path.
  StatusOr<std::vector<AggregatorSnapshot>> SnapshotShards();

  /// Replaces all shard state with the given snapshots, distributing them
  /// round-robin over this engine's shards (snapshot count need not match
  /// the shard count), and advances state_version().
  Status RestoreShards(const std::vector<AggregatorSnapshot>& snapshots);

  /// The registry this engine's metrics live in (the options' registry,
  /// or the engine-private one when none was given). Valid for the
  /// engine's lifetime; scrape it with MetricsRegistry::TextExposition().
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// The engine's state version: advanced once per work item, after its
  /// push, and once per RestoreShards; nothing else moves it, so it is
  /// monotone. A state merged after reading version V holds every item
  /// counted in V. Merged() caches on it and query::MarginalCache keys its
  /// snapshots on it (the served watermark).
  uint64_t state_version() const {
    return state_version_.load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    /// Serializes the worker's state mutation against control-plane reads
    /// (merge, counts, snapshot); held per work item, so uncontended in
    /// steady state.
    core::Mutex state_mu;
    /// The pointer itself is set once in Create (before the worker starts);
    /// the protocol state behind it mutates only under state_mu.
    std::unique_ptr<MarginalProtocol> protocol LDPM_PT_GUARDED_BY(state_mu);
    ShardQueue queue{kMaxPendingBatches};
    std::thread worker;
    /// First absorb error since the last Flush, which reports and
    /// clears it. It never stops the worker.
    Status error LDPM_GUARDED_BY(state_mu);
    /// Live work items on this shard's queue (producer +1, worker -1
    /// after absorb) and the high-water mark it has reached.
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_depth_hwm = nullptr;
  };

  ShardedAggregator(ProtocolKind kind, const ProtocolConfig& config,
                    const EngineOptions& options);

  /// A fresh protocol instance of this engine's kind and configuration.
  StatusOr<std::unique_ptr<MarginalProtocol>> NewProtocol() const;

  /// Creates/caches this engine's metric instruments in metrics_ (labeled
  /// with options.metrics_collection). Called once from Create.
  void InitMetrics();

  void WorkerLoop(Shard& shard);
  /// Blocks until every shard queue is drained.
  void Drain();

  const ProtocolKind kind_;
  const ProtocolConfig config_;
  EngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Metrics destination (never null after Create) and, when the options
  /// brought no registry, the engine-private one backing it. These
  /// counters ARE the throughput accounting.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* reports_total_ = nullptr;        // absorbed, all shards
  obs::Counter* batches_total_ = nullptr;        // work items enqueued
  obs::Counter* report_bits_total_ = nullptr;    // paper Table-2 bits
  obs::Counter* absorb_errors_total_ = nullptr;  // work items that failed
  obs::Histogram* absorb_latency_ = nullptr;     // per work item, ns
  obs::Histogram* budget_wait_ = nullptr;        // shared-budget waits, ns

  std::atomic<uint64_t> next_shard_{0};

  /// See state_version(). The merged cache is valid only for the version
  /// it was built at; comparing versions (instead of a clearable flag)
  /// cannot lose an invalidation that lands mid-merge.
  std::atomic<uint64_t> state_version_{0};
  core::Mutex merge_mu_;
  std::shared_ptr<const MarginalProtocol> merged_ LDPM_GUARDED_BY(merge_mu_);
  uint64_t merged_version_ LDPM_GUARDED_BY(merge_mu_) = ~uint64_t{0};

  /// Makes cross-shard state transitions atomic against snapshot capture:
  /// held across the whole shard loop by SnapshotShards and by
  /// RestoreShards, so a checkpoint cut racing a restore sees all shards
  /// before or all shards after, never a mix (per-shard state_mu alone
  /// orders only within one shard). Always acquired before any state_mu,
  /// never the other way around (docs/operations.md, "Lock ordering").
  core::Mutex state_cut_mu_;
};

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_SHARDED_AGGREGATOR_H_
