#include "engine/sharded_aggregator.h"

#include <cmath>
#include <string>
#include <utility>

#include "core/failpoint.h"

namespace ldpm {
namespace engine {

namespace {

/// Hard cap on shard count; far above any sensible core count, it only
/// guards against accidental huge values spawning thousands of threads.
constexpr int kMaxShards = 1024;

/// Series name for an engine metric, labeled with the collection id when
/// the engine runs under one (plus an optional shard label).
std::string MetricName(const char* base, const std::string& collection) {
  if (collection.empty()) return base;
  return obs::WithLabels(base, {{"collection", collection}});
}

std::string ShardMetricName(const char* base, const std::string& collection,
                            size_t shard) {
  const std::string shard_label = std::to_string(shard);
  if (collection.empty()) {
    return obs::WithLabels(base, {{"shard", shard_label}});
  }
  return obs::WithLabels(base,
                         {{"collection", collection}, {"shard", shard_label}});
}

}  // namespace

StatusOr<std::unique_ptr<ShardedAggregator>> ShardedAggregator::Create(
    ProtocolKind kind, const ProtocolConfig& config,
    const EngineOptions& options) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "ShardedAggregator: num_shards must be in [1, " +
        std::to_string(kMaxShards) + "], got " +
        std::to_string(options.num_shards));
  }
  // Build every shard aggregator up front so a bad config fails the
  // construction rather than the first ingest.
  std::unique_ptr<ShardedAggregator> engine(
      new ShardedAggregator(kind, config, options));
  for (int s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    auto protocol = engine->NewProtocol();
    if (!protocol.ok()) return protocol.status();
    {
      // No worker exists yet; the lock exists for the analysis (the
      // protocol state is guarded by state_mu) and is uncontended.
      core::MutexLock state_lock(shard->state_mu);
      shard->protocol = *std::move(protocol);
    }
    engine->shards_.push_back(std::move(shard));
  }
  // Instruments must exist before any worker runs (workers time absorbs
  // and decrement queue-depth gauges from their first item).
  engine->InitMetrics();
  for (auto& shard : engine->shards_) {
    Shard* s = shard.get();
    s->worker = std::thread([engine_ptr = engine.get(), s] {
      engine_ptr->WorkerLoop(*s);
    });
  }
  return engine;
}

ShardedAggregator::ShardedAggregator(ProtocolKind kind,
                                     const ProtocolConfig& config,
                                     const EngineOptions& options)
    : kind_(kind), config_(config), options_(options) {}

StatusOr<std::unique_ptr<MarginalProtocol>> ShardedAggregator::NewProtocol()
    const {
  return CreateProtocol(kind_, config_);
}

void ShardedAggregator::InitMetrics() {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const std::string& id = options_.metrics_collection;
  reports_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_reports_absorbed_total", id),
      "Reports absorbed across all shards");
  batches_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_batches_enqueued_total", id),
      "Work items enqueued onto shard queues");
  report_bits_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_report_bits_total", id),
      "Measured communication absorbed, in bits (paper Table 2)");
  absorb_errors_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_absorb_errors_total", id),
      "Work items whose absorb failed (their valid prefix stays absorbed)");
  absorb_latency_ = metrics_->GetHistogram(
      MetricName("ldpm_engine_absorb_latency_ns", id), obs::LatencyBuckets(),
      "Shard-worker latency absorbing one work item");
  budget_wait_ = metrics_->GetHistogram(
      MetricName("ldpm_engine_budget_wait_ns", id), obs::LatencyBuckets(),
      "Producer wait for a shared ingest-budget slot");
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->queue_depth = metrics_->GetGauge(
        ShardMetricName("ldpm_engine_queue_depth", id, s),
        "Work items pending on this shard's queue");
    shards_[s]->queue_depth_hwm = metrics_->GetGauge(
        ShardMetricName("ldpm_engine_queue_depth_high_water", id, s),
        "Highest queue depth this shard has reached");
  }
  // A shared registry can refuse a name only on a kind collision — a
  // programmer error (two subsystems fighting over one series name), not
  // a recoverable state, so fail loudly at construction.
  LDPM_CHECK(reports_total_ && batches_total_ && report_bits_total_ &&
             absorb_errors_total_ && absorb_latency_ && budget_wait_);
}

ShardedAggregator::~ShardedAggregator() {
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedAggregator::WorkerLoop(Shard& shard) {
  WorkItem frame;
  while (shard.queue.Pop(frame)) {
    // Stalls or fails one work item (docs/operations.md); an injected
    // error fails the frame as a malformed record would.
    Status status = Status::OK();
    LDPM_FAILPOINT_STATUS("engine.shard.absorb", status);
    {
      core::MutexLock state_lock(shard.state_mu);
      const uint64_t reports_before = shard.protocol->reports_absorbed();
      const double bits_before = shard.protocol->total_report_bits();
      if (status.ok()) {
        obs::ScopedTimer absorb_timer(absorb_latency_);
        status = shard.protocol->AbsorbWireBatch(frame.data(), frame.size());
      }
      // An error costs only its own item: the valid prefix stays absorbed,
      // later items are absorbed as usual, and the next Flush reports the
      // first error once.
      if (!status.ok()) {
        absorb_errors_total_->Increment();
        if (shard.error.ok()) shard.error = std::move(status);
      }
      reports_total_->Increment(shard.protocol->reports_absorbed() -
                                reports_before);
      const double bits_delta = shard.protocol->total_report_bits() - bits_before;
      if (bits_delta > 0.0) {
        report_bits_total_->Increment(
            static_cast<uint64_t>(std::llround(bits_delta)));
      }
    }
    shard.queue.Done();
    shard.queue_depth->Add(-1);
    // Release the group-wide slot no matter how absorption went; an error
    // must not leak budget and wedge sibling collections.
    if (options_.shared_budget) options_.shared_budget->Release();
  }
}

Status ShardedAggregator::IngestWireBatch(std::vector<uint8_t> frame) {
  if (frame.empty()) return Status::OK();
  const size_t target =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  if (options_.shared_budget) {
    obs::ScopedTimer wait_timer(budget_wait_);
    options_.shared_budget->Acquire();
  }
  Shard& shard = *shards_[target];
  // Bump the depth gauge before Push so a worker's decrement can never
  // land first and swing the gauge negative.
  shard.queue_depth_hwm->UpdateMax(shard.queue_depth->Add(1));
  if (!shard.queue.Push(std::move(frame))) {
    shard.queue_depth->Add(-1);
    if (options_.shared_budget) options_.shared_budget->Release();
    return Status::FailedPrecondition(
        "ShardedAggregator: engine is shutting down");
  }
  batches_total_->Increment();
  // Only after the push: a Merged() that reads the new version drains a
  // queue that already holds the item.
  state_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

void ShardedAggregator::Drain() {
  for (auto& shard : shards_) shard->queue.WaitDrained();
}

Status ShardedAggregator::Flush() {
  Drain();
  Status first = Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    core::MutexLock state_lock(shards_[s]->state_mu);
    Status& error = shards_[s]->error;
    if (!error.ok() && first.ok()) {
      first = Status(error.code(),
                     "shard " + std::to_string(s) + ": " + error.message());
    }
    error = Status::OK();
  }
  return first;
}

StatusOr<std::shared_ptr<const MarginalProtocol>> ShardedAggregator::Merged() {
  core::MutexLock merge_lock(merge_mu_);
  // Record the version, THEN drain: every item counted in it was pushed
  // before this load, so the drain absorbs it. Work that lands during the
  // drain or the merge may be included in the shard states we read but
  // not in the recorded version, so the next query conservatively
  // rebuilds.
  const uint64_t version = state_version();
  Drain();
  if (merged_ == nullptr || merged_version_ != version) {
    auto merged = NewProtocol();
    if (!merged.ok()) return merged.status();
    for (auto& shard : shards_) {
      core::MutexLock state_lock(shard->state_mu);
      LDPM_RETURN_IF_ERROR((*merged)->MergeFrom(*shard->protocol));
    }
    merged_ = *std::move(merged);
    merged_version_ = version;
  }
  return merged_;
}

StatusOr<MarginalTable> ShardedAggregator::EstimateMarginal(uint64_t beta) {
  auto merged = Merged();
  if (!merged.ok()) return merged.status();
  return (*merged)->EstimateMarginal(beta);
}

StatusOr<uint64_t> ShardedAggregator::ReportsAbsorbed() {
  Drain();
  uint64_t total = 0;
  for (auto& shard : shards_) {
    core::MutexLock state_lock(shard->state_mu);
    total += shard->protocol->reports_absorbed();
  }
  return total;
}

StatusOr<std::vector<AggregatorSnapshot>> ShardedAggregator::SnapshotShards() {
  Drain();
  std::vector<AggregatorSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  core::MutexLock cut_lock(state_cut_mu_);
  for (auto& shard : shards_) {
    core::MutexLock state_lock(shard->state_mu);
    snapshots.push_back(shard->protocol->Snapshot());
  }
  return snapshots;
}

Status ShardedAggregator::RestoreShards(
    const std::vector<AggregatorSnapshot>& snapshots) {
  Drain();
  // Stage each snapshot in a scratch instance first so a malformed snapshot
  // list cannot leave the engine half-restored.
  std::vector<std::unique_ptr<MarginalProtocol>> staged;
  staged.reserve(snapshots.size());
  for (const AggregatorSnapshot& snapshot : snapshots) {
    auto scratch = NewProtocol();
    if (!scratch.ok()) return scratch.status();
    LDPM_RETURN_IF_ERROR((*scratch)->Restore(snapshot));
    staged.push_back(*std::move(scratch));
  }
  Status restored = Status::OK();
  {
    core::MutexLock cut_lock(state_cut_mu_);
    for (auto& shard : shards_) {
      core::MutexLock state_lock(shard->state_mu);
      shard->protocol->Reset();
    }
    for (size_t i = 0; i < staged.size() && restored.ok(); ++i) {
      Shard& target = *shards_[i % shards_.size()];
      core::MutexLock state_lock(target.state_mu);
      restored = target.protocol->MergeFrom(*staged[i]);
    }
  }
  // The shards changed even when a merge failed part-way.
  state_version_.fetch_add(1, std::memory_order_acq_rel);
  return restored;
}

}  // namespace engine
}  // namespace ldpm
