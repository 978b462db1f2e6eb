// The query-serving plane's cache: epoch-snapshotted, consistency-
// post-processed marginal tables served from an immutable snapshot.
//
// The write path (net::IngestServer -> engine::Collector) absorbs
// millions of reports; the read path a deployment needs is the opposite
// shape — millions of identical cheap reads over state that changes
// rarely. `Collector::Query` estimates each marginal afresh per call from
// the merged engine state (merged once per engine state version) and
// answers each one independently, so overlapping answers disagree (the
// artifact src/analysis/consistency.h exists to remove). The MarginalCache
// closes both gaps:
//
//   * Once per *epoch* it snapshots a collection: it takes the merged
//     engine state once and exports its low-order Fourier coefficients
//     (CollectionHandle::Coefficients, one shared coefficient vector,
//     Barak-style), rebuilds every marginal selector up to the
//     collection's order k from them by Lemma 3.7 in one pass into one
//     buffer (FourierCoefficients::ReconstructAllMarginals), and freezes
//     that buffer into an immutable Snapshot. Every answer served from one
//     snapshot comes from one engine state and agrees exactly with every
//     other on all attribute overlaps, by construction.
//   * Reads never wait for a rebuild: the current snapshot hangs off one
//     shared_ptr under a small mutex that is held only to copy or swap
//     the pointer. A cache hit is that copy and an offset computation:
//     Snapshot::Find returns a span of the 2^k cells inside the snapshot's
//     buffer, and only Marginal() copies them, into its answer. No shard
//     merge.
//   * Epochs are keyed on a *watermark* — the collection engine's state
//     version (ShardedAggregator::state_version()), the same counter the
//     engine's merged state is cached on. It rises by one per enqueued
//     work item, after the push, and by one per restore
//     (Collector::RestoreFrom), so a restored state is served like new
//     ingest. A snapshot built at watermark W serves until the version
//     advances past W; the next read then rebuilds, and reads that arrive
//     meanwhile wait for that one rebuild. The watermark is captured
//     *before* the rebuild takes the
//     merged state, and the merge drains every item counted in it, so a
//     snapshot's watermark is always a lower bound on the ingest it
//     reflects — concurrent ingest during a rebuild makes the fresh
//     snapshot immediately stale, never silently under-reported.
//
// Reproducibility contract (verified bitwise in tests/query/): a cache
// answer for beta at watermark W equals
// `CollectionHandle::Coefficients(k)->ReconstructMarginal(beta)` at W. It
// also matches `CollectionHandle::Query` for every selector +
// `MakeConsistent` (equal weights) over the same selector set at W to
// within 1e-12 per cell (the same fit, up to rounding).
//
// Domains: the cache serves the binary-marginal surface
// (MarginalTable). InpES collections participate when their domain is
// all-binary (every cardinality 2); non-binary categorical domains are
// rejected at Create — their read path is Collector::QueryCategorical.
//
// Metrics (labeled {collection="<id>"}, in the collector's registry):
//   ldpm_query_requests_total        every cache read
//   ldpm_query_cache_hits_total      reads answered from the live snapshot
//   ldpm_query_cache_refreshes_total snapshot rebuilds
//   ldpm_query_refresh_latency_ns    rebuild duration histogram

#ifndef LDPM_QUERY_MARGINAL_CACHE_H_
#define LDPM_QUERY_MARGINAL_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/tree_model.h"
#include "core/contingency_table.h"
#include "core/status.h"
#include "core/sync.h"
#include "engine/collector.h"
#include "obs/metrics.h"

namespace ldpm {
namespace query {

/// One immutable epoch of served state. Shared out to readers by
/// shared_ptr; a snapshot never mutates after publication (the lazily
/// fitted model is memoized under std::call_once).
class Snapshot {
 public:
  /// Engine state version captured before the rebuild took the merged
  /// state: a lower bound on the state served.
  uint64_t watermark() const { return watermark_; }
  /// Monotone rebuild sequence number, starting at 1.
  uint64_t epoch() const { return epoch_; }
  /// Reports absorbed by the merged state the snapshot was cut from.
  uint64_t reports_absorbed() const { return reports_absorbed_; }
  int dimensions() const { return d_; }
  int max_order() const { return max_order_; }
  ProtocolKind kind() const { return kind_; }
  const std::string& collection() const { return collection_; }

  /// The 2^|beta| cells of the cached table for `beta` (compact order, as
  /// MarginalTable::at_compact), or an empty span when beta = 0, |beta|
  /// exceeds max_order, or beta selects attributes outside [0, d). The
  /// span lives as long as the snapshot.
  std::span<const double> Find(uint64_t beta) const;

  /// The Chow-Liu tree model fitted over this snapshot's 2-way
  /// marginals; fitted on first call, memoized (thread-safe). Requires
  /// max_order >= 2 (a collection with k >= 2) and d >= 2.
  StatusOr<const TreeModel*> Model() const;

 private:
  friend class MarginalCache;
  Snapshot(int d, int max_order, std::vector<double> cells)
      : d_(d), max_order_(max_order), cells_(std::move(cells)) {}

  uint64_t watermark_ = 0;
  uint64_t epoch_ = 0;
  uint64_t reports_absorbed_ = 0;
  int d_ = 0;
  int max_order_ = 0;
  ProtocolKind kind_ = ProtocolKind::kInpRR;
  std::string collection_;
  // Every table of order 1..max_order in one buffer, laid out by
  // FourierCoefficients::ReconstructAllMarginals (see MarginalCellOffset).
  std::vector<double> cells_;

  mutable std::once_flag model_once_;
  mutable std::optional<TreeModel> model_;
  mutable Status model_status_;
};

/// One answered read: the table plus the epoch it came from.
struct MarginalAnswer {
  MarginalTable table;
  uint64_t watermark = 0;
  uint64_t epoch = 0;
  /// True when ingest (or a restore) had advanced the live watermark past
  /// the snapshot's by the time this answer was taken from it: the answer
  /// may miss that work.
  bool stale = false;

  MarginalAnswer() : table(0, 0) {}
};

/// The per-collection cache (see the file comment). Thread-safe; reads
/// that hit the live snapshot take only the pointer mutex.
class MarginalCache {
 public:
  /// Builds a cache over one registered collection, serving every
  /// selector of order 1..k. Fails NotFound for an unknown id and
  /// FailedPrecondition for a non-binary categorical (InpES) domain. No
  /// snapshot is cut yet — the first read pays the first rebuild.
  static StatusOr<std::unique_ptr<MarginalCache>> Create(
      engine::Collector* collector, const std::string& collection);

  /// The current snapshot, rebuilding first when none exists or the
  /// watermark advanced; a read that finds another thread rebuilding
  /// waits for it.
  StatusOr<std::shared_ptr<const Snapshot>> Get();

  /// Get() + lookup + copy of the single table for `beta`.
  /// InvalidArgument when beta is outside the cached selector set.
  StatusOr<MarginalAnswer> Marginal(uint64_t beta);

  /// Forces a rebuild now, regardless of the watermark.
  Status Refresh();

  /// The live engine state version the staleness check reads.
  uint64_t LiveWatermark() const;

  int dimensions() const { return d_; }
  /// The highest cached order: the collection's k.
  int max_order() const { return max_order_; }
  ProtocolKind kind() const { return handle_.kind(); }
  const std::string& collection() const { return collection_; }
  /// The registration this cache serves.
  const engine::CollectionHandle& handle() const { return handle_; }

 private:
  MarginalCache(engine::Collector* collector, engine::CollectionHandle handle,
                std::string collection);

  /// Cuts and publishes a fresh snapshot.
  Status RebuildLocked() LDPM_REQUIRES(refresh_mu_);

  /// The published snapshot (null before the first rebuild).
  std::shared_ptr<const Snapshot> Current() const LDPM_EXCLUDES(snapshot_mu_);
  /// Replaces the published snapshot; the old one is released after the
  /// pointer mutex is.
  void Publish(std::shared_ptr<const Snapshot> snap)
      LDPM_EXCLUDES(snapshot_mu_);

  engine::CollectionHandle handle_;
  const std::string collection_;
  int d_ = 0;
  int max_order_ = 0;
  // The collection's engine, whose state version is the watermark.
  const engine::ShardedAggregator* engine_ = nullptr;

  // A leaf lock, held only to copy or swap the pointer, never across a
  // rebuild; refresh_mu_ may be held while taking it, never the reverse.
  mutable core::Mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_ LDPM_GUARDED_BY(snapshot_mu_);
  core::Mutex refresh_mu_;
  uint64_t epoch_seq_ LDPM_GUARDED_BY(refresh_mu_) = 0;

  obs::Counter* requests_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* refreshes_ = nullptr;
  obs::Histogram* refresh_latency_ = nullptr;
};

}  // namespace query
}  // namespace ldpm

#endif  // LDPM_QUERY_MARGINAL_CACHE_H_
