#include "engine/collector.h"

#include <utility>

#include "core/file_io.h"
#include "engine/checkpoint.h"
#include "protocols/inp_es.h"
#include "protocols/wire.h"

namespace ldpm {
namespace engine {

/// One registered protocol stream: identity plus the engine backing it.
/// Immutable after construction except through the engine's own
/// synchronized interface, so handles can share it lock-free.
struct CollectionHandle::Collection {
  std::string id;
  ProtocolKind kind;
  ProtocolConfig config;
  std::unique_ptr<ShardedAggregator> engine;
  /// Multiplexed-ingest counters for this collection, owned by the
  /// collector's registry (which outlives the collection).
  obs::Counter* frames_total = nullptr;
  obs::Counter* frame_bytes_total = nullptr;
};

// ---- CollectionHandle ------------------------------------------------------

const std::string& CollectionHandle::id() const { return collection_->id; }

ProtocolKind CollectionHandle::kind() const { return collection_->kind; }

const ProtocolConfig& CollectionHandle::config() const {
  return collection_->config;
}

Status CollectionHandle::IngestWireBatch(std::vector<uint8_t> frame) {
  return collection_->engine->IngestWireBatch(std::move(frame));
}

StatusOr<MarginalTable> CollectionHandle::Query(uint64_t beta) {
  return collection_->engine->EstimateMarginal(beta);
}

StatusOr<FourierCoefficients> CollectionHandle::Coefficients(
    int max_order, uint64_t* reports_absorbed) {
  auto merged = collection_->engine->Merged();
  if (!merged.ok()) return merged.status();
  if (reports_absorbed != nullptr) {
    *reports_absorbed = (*merged)->reports_absorbed();
  }
  return (*merged)->EstimateCoefficients(max_order);
}

StatusOr<CategoricalMarginal> CollectionHandle::QueryCategorical(
    const std::vector<int>& attrs) {
  auto merged = collection_->engine->Merged();
  if (!merged.ok()) return merged.status();
  const auto* es = dynamic_cast<const InpEsProtocol*>(merged->get());
  if (es == nullptr) {
    return Status::InvalidArgument(
        "collection \"" + collection_->id + "\" runs " +
        std::string((*merged)->name()) +
        "; categorical marginals need an InpES collection");
  }
  return es->EstimateCategorical(attrs);
}

Status CollectionHandle::Flush() { return collection_->engine->Flush(); }

StatusOr<uint64_t> CollectionHandle::ReportsAbsorbed() {
  return collection_->engine->ReportsAbsorbed();
}

ShardedAggregator& CollectionHandle::aggregator() {
  return *collection_->engine;
}

// ---- Collector -------------------------------------------------------------

Collector::Collector(const CollectorOptions& options) : options_(options) {
  if (options_.max_pending_batches_total > 0) {
    budget_ =
        std::make_shared<IngestBudget>(options_.max_pending_batches_total);
  }
  collections_gauge_ = metrics_->GetGauge("ldpm_collector_collections",
                                          "Live registered collections");
  unknown_collection_total_ = metrics_->GetCounter(
      "ldpm_collector_unknown_collection_total",
      "Multiplexed frames rejected for naming no registered collection");
  ckpt_writes_total_ = metrics_->GetCounter(
      "ldpm_collector_checkpoint_writes_total",
      "Successful all-collection container checkpoint writes");
  ckpt_errors_total_ =
      metrics_->GetCounter("ldpm_collector_checkpoint_errors_total",
                           "Failed container checkpoint attempts");
  ckpt_bytes_total_ = metrics_->GetCounter(
      "ldpm_collector_checkpoint_bytes_total",
      "Encoded container checkpoint bytes successfully written");
  ckpt_quarantined_total_ = metrics_->GetCounter(
      "ldpm_collector_checkpoint_quarantined_total",
      "Corrupt checkpoint generation files quarantined as *.corrupt "
      "during restore");
  ckpt_duration_ = metrics_->GetHistogram(
      "ldpm_collector_checkpoint_duration_ns", obs::LatencyBuckets(),
      "Container checkpoint capture+encode+write duration");
  LDPM_CHECK(collections_gauge_ && unknown_collection_total_ &&
             ckpt_writes_total_ && ckpt_errors_total_ && ckpt_bytes_total_ &&
             ckpt_quarantined_total_ && ckpt_duration_);
}

StatusOr<std::unique_ptr<Collector>> Collector::Create(
    const CollectorOptions& options) {
  if (options.max_worker_threads < 0) {
    return Status::InvalidArgument(
        "Collector: max_worker_threads must be >= 0");
  }
  return std::unique_ptr<Collector>(new Collector(options));
}

Collector::~Collector() {
  if (!options_.checkpoint_path.empty()) {
    // Best effort: Drain() flushes and writes the checkpoint even when the
    // flush reports an absorb error. Use Drain() when the Status matters.
    (void)Drain();
  }
}

StatusOr<CollectionHandle> Collector::Register(std::string id,
                                               ProtocolKind kind,
                                               const ProtocolConfig& config) {
  return Register(std::move(id), kind, config, options_.engine_defaults);
}

StatusOr<CollectionHandle> Collector::Register(std::string id,
                                               ProtocolKind kind,
                                               const ProtocolConfig& config,
                                               const EngineOptions& overrides) {
  EngineOptions options = overrides;
  options.shared_budget = budget_;
  // Engines publish into the collector's registry (labeled by collection
  // id below) unless an override brought its own.
  if (options.metrics == nullptr) options.metrics = metrics_.get();
  if (options.metrics_collection.empty()) options.metrics_collection = id;
  if (id.empty() || id.size() > kMaxCollectionIdBytes) {
    return Status::InvalidArgument(
        "Collector: collection id must be 1.." +
        std::to_string(kMaxCollectionIdBytes) + " bytes");
  }
  // The whole registration runs under the registry lock: the duplicate-id
  // and thread-budget checks must precede engine construction (a rejected
  // registration must never spawn shard workers past the budget), and
  // nothing here calls back into the collector, so holding mu_ across the
  // (rare, registration-time-only) engine build cannot deadlock.
  core::MutexLock lock(mu_);
  if (collections_.count(id) != 0) {
    return Status::AlreadyExists("Collector: collection \"" + id +
                                 "\" is already registered");
  }
  if (options_.max_worker_threads > 0 &&
      threads_in_use_ + options.num_shards > options_.max_worker_threads) {
    return Status::ResourceExhausted(
        "Collector: registering \"" + id + "\" needs " +
        std::to_string(options.num_shards) + " worker threads but only " +
        std::to_string(options_.max_worker_threads - threads_in_use_) +
        " of " + std::to_string(options_.max_worker_threads) + " remain");
  }
  auto engine = ShardedAggregator::Create(kind, config, options);
  if (!engine.ok()) return engine.status();

  auto collection = std::make_shared<CollectionHandle::Collection>();
  collection->id = std::move(id);
  collection->kind = kind;
  collection->config = (*engine)->config();
  collection->engine = *std::move(engine);
  collection->frames_total = metrics_->GetCounter(
      obs::WithLabels("ldpm_collector_frames_routed_total",
                      {{"collection", collection->id}}),
      "Multiplexed collection frames routed to this collection");
  collection->frame_bytes_total = metrics_->GetCounter(
      obs::WithLabels("ldpm_collector_frame_bytes_total",
                      {{"collection", collection->id}}),
      "Whole-frame bytes (header + payload) routed to this collection");
  threads_in_use_ += options.num_shards;
  CollectionHandle handle(collection);
  collections_.emplace(collection->id, std::move(collection));
  collections_gauge_->Set(static_cast<int64_t>(collections_.size()));
  return handle;
}

Status Collector::Unregister(std::string_view id) {
  std::shared_ptr<CollectionHandle::Collection> released;
  int shards = 0;
  {
    core::MutexLock lock(mu_);
    auto it = collections_.find(id);
    if (it == collections_.end()) {
      return Status::NotFound("Collector: no collection \"" + std::string(id) +
                              "\"");
    }
    shards = it->second->engine->num_shards();
    released = std::move(it->second);
    collections_.erase(it);
    collections_gauge_->Set(static_cast<int64_t>(collections_.size()));
  }
  // The release happens OUTSIDE mu_. When this was the last reference,
  // the engine teardown drains its queues and joins every shard worker —
  // arbitrarily slow work that must not stall concurrent Find/Query/
  // Register on the registry lock. The thread budget is returned only
  // AFTER the drop, so a racing Register cannot oversubscribe the cap
  // while the old workers still run. (With outstanding handles the drop
  // is trivially cheap — and the budget is returned while their engine
  // lives on, as documented.)
  released.reset();
  {
    core::MutexLock lock(mu_);
    threads_in_use_ -= shards;
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<CollectionHandle::Collection>> Collector::Find(
    std::string_view id) const {
  core::MutexLock lock(mu_);
  auto it = collections_.find(id);
  if (it == collections_.end()) {
    return Status::NotFound("Collector: no collection \"" + std::string(id) +
                            "\"");
  }
  return it->second;
}

StatusOr<CollectionHandle> Collector::Handle(std::string_view id) const {
  auto collection = Find(id);
  if (!collection.ok()) return collection.status();
  return CollectionHandle(*std::move(collection));
}

std::vector<std::string> Collector::CollectionIds() const {
  core::MutexLock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(collections_.size());
  for (const auto& [id, collection] : collections_) ids.push_back(id);
  return ids;
}

size_t Collector::collection_count() const {
  core::MutexLock lock(mu_);
  return collections_.size();
}

int Collector::worker_threads_in_use() const {
  core::MutexLock lock(mu_);
  return threads_in_use_;
}

Status Collector::IngestFrames(const uint8_t* data, size_t size,
                               IngestFramesResult* result) {
  IngestFramesResult scratch;
  if (result == nullptr) result = &scratch;
  *result = IngestFramesResult();
  CollectionFrameReader reader(data, size);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  while (reader.Next(id, payload, payload_size)) {
    auto collection = Find(id);
    if (!collection.ok()) {
      unknown_collection_total_->Increment();
      return Status::InvalidArgument(
          "collection frame at byte " + std::to_string(reader.frame_offset()) +
          ": unknown collection id \"" + std::string(id) + "\"");
    }
    if (payload_size > 0) {
      LDPM_RETURN_IF_ERROR((*collection)->engine->IngestWireBatch(
          std::vector<uint8_t>(payload, payload + payload_size)));
      ++result->batches_enqueued;
    }
    // The frame counts as consumed only once it is fully routed: on any
    // error above, bytes_consumed still points at the frame that failed.
    result->bytes_consumed = reader.frame_end_offset();
    ++result->frames_routed;
    (*collection)->frames_total->Increment();
    (*collection)->frame_bytes_total->Increment(reader.frame_end_offset() -
                                                reader.frame_offset());
  }
  return reader.status();
}

Status Collector::IngestFrames(const std::vector<uint8_t>& stream,
                               IngestFramesResult* result) {
  return IngestFrames(stream.data(), stream.size(), result);
}

StatusOr<MarginalTable> Collector::Query(std::string_view collection,
                                         uint64_t beta) {
  auto handle = Handle(collection);
  if (!handle.ok()) return handle.status();
  return handle->Query(beta);
}

StatusOr<CategoricalMarginal> Collector::QueryCategorical(
    std::string_view collection, const std::vector<int>& attrs) {
  auto handle = Handle(collection);
  if (!handle.ok()) return handle.status();
  return handle->QueryCategorical(attrs);
}

Status Collector::Flush() {
  std::vector<std::shared_ptr<CollectionHandle::Collection>> live;
  {
    core::MutexLock lock(mu_);
    live.reserve(collections_.size());
    for (const auto& [id, collection] : collections_) live.push_back(collection);
  }
  Status first = Status::OK();
  for (const auto& collection : live) {
    Status status = collection->engine->Flush();
    if (!status.ok() && first.ok()) {
      first = Status(status.code(), "collection \"" + collection->id +
                                        "\": " + status.message());
    }
  }
  return first;
}

Status Collector::CheckpointTo(const std::string& path) {
  Status status = CheckpointToInternal(path);
  if (!status.ok()) ckpt_errors_total_->Increment();
  core::MutexLock lock(ckpt_mu_);
  // The sticky error tracks the *unresolved* failure: a later successful
  // write means the durable state is current again and clears it.
  ckpt_error_ = status;
  return status;
}

Status Collector::CheckpointToInternal(const std::string& path) {
  obs::ScopedTimer ckpt_timer(ckpt_duration_);
  // Snapshot under a registry copy: collections registered mid-call may or
  // may not be included, but every included collection's cut is exact.
  std::vector<std::shared_ptr<CollectionHandle::Collection>> live;
  {
    core::MutexLock lock(mu_);
    live.reserve(collections_.size());
    for (const auto& [id, collection] : collections_) live.push_back(collection);
  }
  std::vector<CollectionCheckpoint> checkpoint;
  checkpoint.reserve(live.size());
  for (const auto& collection : live) {
    auto snapshots = collection->engine->SnapshotShards();
    if (!snapshots.ok()) {
      return Status(snapshots.status().code(),
                    "collection \"" + collection->id +
                        "\": " + snapshots.status().message());
    }
    CollectionCheckpoint entry;
    entry.id = collection->id;
    entry.snapshots = *std::move(snapshots);
    checkpoint.push_back(std::move(entry));
  }
  // Encode and write as separate steps (rather than through
  // WriteCollectorCheckpoint) so the image size is observable.
  auto image = EncodeCollectorCheckpoint(checkpoint);
  if (!image.ok()) return image.status();
  LDPM_RETURN_IF_ERROR(
      RotateCheckpointGenerations(path, options_.checkpoint_generations));
  LDPM_RETURN_IF_ERROR(WriteBinaryFileAtomic(path, *image));
  ckpt_writes_total_->Increment();
  ckpt_bytes_total_->Increment(image->size());
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Collector::LastCheckpointError() const {
  core::MutexLock lock(ckpt_mu_);
  return ckpt_error_;
}

Status Collector::Checkpoint() {
  if (options_.checkpoint_path.empty()) {
    return Status::FailedPrecondition(
        "Collector: no checkpoint_path configured");
  }
  return CheckpointTo(options_.checkpoint_path);
}

Status Collector::RestoreFrom(const std::string& path) {
  // Newest-to-oldest generation walk: a corrupt newest file (torn write,
  // bit rot) is quarantined as *.corrupt and the restore falls back to
  // the previous generation instead of failing the restart.
  CheckpointFallbackInfo fallback;
  auto collections = ReadCollectorCheckpointWithFallback(
      path, options_.checkpoint_generations, &fallback);
  if (!fallback.quarantined.empty()) {
    ckpt_quarantined_total_->Increment(fallback.quarantined.size());
  }
  if (!collections.ok()) return collections.status();

  // Resolve every id before restoring anything, so an unknown collection
  // fails the whole restore with no state touched.
  std::vector<std::shared_ptr<CollectionHandle::Collection>> targets;
  targets.reserve(collections->size());
  for (const CollectionCheckpoint& entry : *collections) {
    auto target = Find(entry.id);
    if (!target.ok()) {
      return Status::InvalidArgument(
          path + ": checkpoint names collection \"" + entry.id +
          "\", which is not registered");
    }
    targets.push_back(*std::move(target));
  }
  for (size_t i = 0; i < collections->size(); ++i) {
    Status status = targets[i]->engine->RestoreShards((*collections)[i].snapshots);
    if (!status.ok()) {
      return Status(status.code(), "collection \"" + targets[i]->id +
                                       "\": " + status.message());
    }
  }
  return Status::OK();
}

Status Collector::Drain() {
  // An absorb error cost only its own work item, so it must not skip the
  // shutdown checkpoint (which drains again before its cut).
  Status flushed = Flush();
  if (!options_.checkpoint_path.empty()) {
    LDPM_RETURN_IF_ERROR(CheckpointTo(options_.checkpoint_path));
  }
  return flushed;
}

}  // namespace engine
}  // namespace ldpm
