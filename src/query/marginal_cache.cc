#include "query/marginal_cache.h"

#include <utility>

#include "core/failpoint.h"
#include "core/hadamard.h"
#include "protocols/inp_es.h"

namespace ldpm {
namespace query {

namespace {

/// Conditional-probability floor of the lazily fitted Chow-Liu tree model
/// (Snapshot::Model).
constexpr double kModelSmoothing = 1e-6;

std::string QueryMetricName(const char* base, const std::string& collection) {
  return obs::WithLabels(base, {{"collection", collection}});
}

}  // namespace

// ---- Snapshot --------------------------------------------------------------

std::span<const double> Snapshot::Find(uint64_t beta) const {
  const int order = Popcount(beta);
  if (order < 1 || order > max_order_ || (beta >> d_) != 0) return {};
  return {cells_.data() + MarginalCellOffset(d_, beta), size_t{1} << order};
}

StatusOr<const TreeModel*> Snapshot::Model() const {
  std::call_once(model_once_, [this] {
    if (d_ < 2 || max_order_ < 2) {
      model_status_ = Status::FailedPrecondition(
          "Snapshot: the tree model needs d >= 2 and cached 2-way "
          "marginals (max_order >= 2)");
      return;
    }
    auto provider = [this](uint64_t beta) -> StatusOr<MarginalTable> {
      const std::span<const double> cells = Find(beta);
      if (cells.empty()) {
        return Status::Internal("Snapshot: 2-way marginal missing from cache");
      }
      return MarginalTable(d_, beta, cells);
    };
    auto model = TreeModel::LearnAndFit(d_, provider, kModelSmoothing);
    if (!model.ok()) {
      model_status_ = model.status();
      return;
    }
    model_.emplace(*std::move(model));
  });
  if (!model_status_.ok()) return model_status_;
  return &*model_;
}

// ---- MarginalCache ---------------------------------------------------------

MarginalCache::MarginalCache(engine::Collector* collector,
                             engine::CollectionHandle handle,
                             std::string collection)
    : handle_(std::move(handle)),
      collection_(std::move(collection)),
      d_(handle_.config().d),
      max_order_(handle_.config().k),
      engine_(&handle_.aggregator()) {
  obs::MetricsRegistry* metrics = collector->metrics();
  requests_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_requests_total", collection_),
      "Marginal-cache reads");
  hits_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_cache_hits_total", collection_),
      "Reads answered from the live snapshot without a rebuild");
  refreshes_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_cache_refreshes_total", collection_),
      "Snapshot rebuilds (epoch advances)");
  refresh_latency_ = metrics->GetHistogram(
      QueryMetricName("ldpm_query_refresh_latency_ns", collection_),
      obs::LatencyBuckets(), "Snapshot rebuild duration in nanoseconds");
}

StatusOr<std::unique_ptr<MarginalCache>> MarginalCache::Create(
    engine::Collector* collector, const std::string& collection) {
  if (collector == nullptr) {
    return Status::InvalidArgument("MarginalCache: collector must not be null");
  }
  auto handle = collector->Handle(collection);
  if (!handle.ok()) return handle.status();
  const ProtocolConfig& config = handle->config();
  if (handle->kind() == ProtocolKind::kInpES) {
    for (uint32_t r : EsCardinalities(config)) {
      if (r != 2) {
        return Status::FailedPrecondition(
            "MarginalCache: collection \"" + collection +
            "\" has a non-binary categorical domain; its read path is "
            "Collector::QueryCategorical");
      }
    }
  }
  return std::unique_ptr<MarginalCache>(
      new MarginalCache(collector, *std::move(handle), collection));
}

uint64_t MarginalCache::LiveWatermark() const {
  return engine_->state_version();
}

StatusOr<std::shared_ptr<const Snapshot>> MarginalCache::Get() {
  requests_->Increment();
  auto snap = Current();
  if (snap != nullptr && snap->watermark() == LiveWatermark()) {
    hits_->Increment();
    return snap;
  }
  core::MutexLock lock(refresh_mu_);
  auto current = Current();
  if (current != nullptr && current->watermark() == LiveWatermark()) {
    // A concurrent reader rebuilt while we waited for the lock.
    hits_->Increment();
    return current;
  }
  LDPM_RETURN_IF_ERROR(RebuildLocked());
  return Current();
}

StatusOr<MarginalAnswer> MarginalCache::Marginal(uint64_t beta) {
  auto snap = Get();
  if (!snap.ok()) return snap.status();
  const std::span<const double> cells = (*snap)->Find(beta);
  if (cells.empty()) {
    return Status::InvalidArgument(
        "MarginalCache: selector outside the cached set (order must be in "
        "[1, " +
        std::to_string(max_order_) + "], attributes in [0, " +
        std::to_string(d_) + "))");
  }
  MarginalAnswer answer;
  answer.table = MarginalTable(d_, beta, cells);
  answer.watermark = (*snap)->watermark();
  answer.epoch = (*snap)->epoch();
  answer.stale = (*snap)->watermark() != LiveWatermark();
  return answer;
}

Status MarginalCache::Refresh() {
  core::MutexLock lock(refresh_mu_);
  return RebuildLocked();
}

std::shared_ptr<const Snapshot> MarginalCache::Current() const {
  core::MutexLock lock(snapshot_mu_);
  return snapshot_;
}

void MarginalCache::Publish(std::shared_ptr<const Snapshot> snap) {
  {
    core::MutexLock lock(snapshot_mu_);
    snapshot_.swap(snap);
  }
  // `snap` now holds the previous epoch; it is freed here, unlocked.
}

Status MarginalCache::RebuildLocked() {
  // Injection seam for rebuild stalls and failures (the error-propagation
  // test drives through it).
  LDPM_FAILPOINT("query.cache.rebuild");
  obs::ScopedTimer timer(refresh_latency_);
  // Captured before the export: concurrent ingest during the rebuild
  // leaves the fresh snapshot already stale (conservative), never
  // serving unseen data under a current watermark.
  const uint64_t watermark = LiveWatermark();
  // One merged engine state answers every table and the report count.
  uint64_t reports = 0;
  auto coefficients = handle_.Coefficients(max_order_, &reports);
  if (!coefficients.ok()) return coefficients.status();
  auto cells = coefficients->ReconstructAllMarginals();
  if (!cells.ok()) return cells.status();

  std::shared_ptr<Snapshot> snap(
      new Snapshot(d_, max_order_, *std::move(cells)));
  snap->watermark_ = watermark;
  snap->epoch_ = ++epoch_seq_;
  snap->reports_absorbed_ = reports;
  snap->kind_ = handle_.kind();
  snap->collection_ = collection_;
  Publish(std::move(snap));
  refreshes_->Increment();
  return Status::OK();
}

}  // namespace query
}  // namespace ldpm
