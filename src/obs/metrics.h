// Lock-friendly operational metrics for the whole pipeline.
//
// The paper's deployment is telemetry collection from millions of clients;
// the collector itself must therefore be observable the way any production
// telemetry service is: live counters, gauges, and latency histograms an
// operator (or the /metrics endpoint, net/query_server.h) can scrape while
// ingest runs at full speed. Three rules shape the design:
//
//   * Hot-path writes are relaxed atomics, never locks. Counter increments
//     stripe across cache-line-padded slots (one write per increment, no
//     contention between shard workers); gauge and histogram updates are
//     single relaxed RMWs. The bench regression gate proves wire ingest
//     stays in-gate with instrumentation enabled.
//   * Reads never stop writers. Snapshots and TextExposition() read the
//     same atomics; a snapshot taken mid-write is a valid recent state
//     (every monotone series it reports is <= the true value at return).
//   * Registration is rare and locked. MetricsRegistry::Get* takes a mutex
//     and returns a pointer that stays valid for the registry's lifetime —
//     instrument by caching the pointer once at construction, not by
//     looking names up per event.
//
// Metric names follow the Prometheus data model: `ldpm_<layer>_<what>`
// base names, `_total` for counters, `_ns` for nanosecond-valued series,
// and label sets rendered into the name with WithLabels() (the registry
// treats every distinct label set as its own series, which is exactly the
// Prometheus text exposition contract). docs/observability.md catalogs
// every metric the pipeline emits.

#ifndef LDPM_OBS_METRICS_H_
#define LDPM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace ldpm {
namespace obs {

/// A monotonically increasing counter. Increments stripe over
/// cache-line-padded atomic slots keyed by thread, so concurrent writers
/// (shard workers, connection readers) never contend on one line; Value()
/// sums the stripes. All operations are wait-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    stripes_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all stripes. Monotone: never exceeds the true total at the
  /// time this call returns, never decreases between calls.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 16;  // power of two for mask indexing

  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };

  /// Stable per-thread stripe index: threads are assigned round-robin on
  /// first use, so a fixed worker set spreads evenly and two workers never
  /// share a line unless there are more than kStripes of them.
  static size_t ThreadStripe() {
    static std::atomic<size_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
    return stripe;
  }

  Stripe stripes_[kStripes];
};

/// A signed instantaneous value (queue depth, live connections, ...).
/// Single atomic: gauges are updated by few writers and a high-water
/// companion needs one total order anyway.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }

  /// Adds (negative to subtract) and returns the new value — feed it to a
  /// high-water gauge's UpdateMax for an exact depth/high-water pair.
  int64_t Add(int64_t delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }

  /// Monotone ratchet: raises the gauge to `value` if it is higher. The
  /// high-water primitive (never lowers).
  void UpdateMax(int64_t value) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A point-in-time copy of a Histogram (or a merge of several). `buckets`
/// has one entry per finite bound plus a final overflow (+Inf) bucket;
/// `count` is always the bucket sum, so cumulative `le` series derived
/// from it are internally consistent even when the copy raced writers.
struct HistogramSnapshot {
  /// Inclusive upper bounds ("le"), strictly increasing.
  std::vector<uint64_t> bounds;
  /// Observations per bucket; buckets.size() == bounds.size() + 1.
  std::vector<uint64_t> buckets;
  /// Total observations (== sum of buckets).
  uint64_t count = 0;
  /// Sum of observed values. May transiently lag `count` while writers
  /// race the snapshot; exact once writers quiesce.
  uint64_t sum = 0;

  /// Adds another snapshot taken over the SAME bucket bounds (the
  /// mergeable-state contract, mirroring the aggregators').
  Status MergeFrom(const HistogramSnapshot& other);

  /// Estimated q-quantile (q in [0,1]) by linear interpolation within the
  /// containing bucket; observations in the overflow bucket answer the
  /// last finite bound. 0 when empty.
  double Quantile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A fixed-bucket histogram: one relaxed add per bucket/sum on Observe,
/// no locks, snapshot-while-writing safe. Bounds are fixed at creation
/// (log-spaced for latencies — see LatencyBuckets/ExponentialBuckets).
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds and must be strictly increasing
  /// and non-empty (checked; violations abort via LDPM_CHECK at the
  /// registry boundary, which validates before constructing).
  explicit Histogram(std::vector<uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value) {
    // Branch-free enough: bounds_ is small (<= ~30) and read-only, so the
    // binary search touches shared cache lines nobody invalidates.
    size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (value <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    buckets_[lo].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  const std::vector<uint64_t>& bounds() const { return bounds_; }

  /// Copies the current state. `count` is computed as the bucket sum, so
  /// the snapshot is always self-consistent (see HistogramSnapshot).
  HistogramSnapshot Snapshot() const;

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> sum_{0};
};

/// Log-spaced bucket bounds: start, start*factor, ... (`count` bounds).
std::vector<uint64_t> ExponentialBuckets(uint64_t start, double factor,
                                         int count);

/// The default latency bucket ladder: 26 power-of-two bounds from 256 ns
/// to ~8.6 s — wide enough for a single relaxed increment and a full
/// collector drain on the same scale.
const std::vector<uint64_t>& LatencyBuckets();

/// RAII latency probe: records elapsed nanoseconds into a histogram when
/// destroyed (or at an explicit ObserveNow). A null histogram makes every
/// operation a no-op, so call sites need no "metrics enabled?" branches.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { ObserveNow(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records once and returns the elapsed nanoseconds (0 if disabled or
  /// already recorded). The destructor then does nothing.
  uint64_t ObserveNow() {
    if (histogram_ == nullptr) return 0;
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    const uint64_t ns = elapsed < 0 ? 0 : static_cast<uint64_t>(elapsed);
    histogram_->Observe(ns);
    histogram_ = nullptr;
    return ns;
  }

  /// Forgets the measurement (e.g. the timed operation was aborted).
  void Cancel() { histogram_ = nullptr; }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Renders `base{key="value",...}` — the one way label sets enter the
/// registry. Values are escaped per the Prometheus text format (backslash,
/// quote, newline). Every distinct rendered name is its own series;
/// TextExposition groups series of one base name under one HELP/TYPE.
std::string WithLabels(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// The named-metric registry (see the file comment for the contract).
/// Metrics are created on first Get and never removed, so returned
/// pointers are valid for the registry's lifetime. Each component of the
/// pipeline takes a registry in its options; one registry per process
/// (Default()) gives one /metrics page for everything.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Returns null only on a contract violation: an
  /// invalid name, a name already registered as a different metric kind,
  /// or (histograms) the same name with different bucket bounds.
  Counter* GetCounter(const std::string& name, std::string_view help = "");
  Gauge* GetGauge(const std::string& name, std::string_view help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<uint64_t>& bounds,
                          std::string_view help = "");

  /// Point reads by full series name (base + rendered labels), for tests
  /// and reconciliation. Zero / empty when the series does not exist.
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  /// Null when the series does not exist or is not a histogram.
  StatusOr<HistogramSnapshot> HistogramValues(std::string_view name) const;

  /// All registered series names, sorted.
  std::vector<std::string> Names() const;

  /// The Prometheus text exposition (format version 0.0.4) of every
  /// registered metric: HELP/TYPE per family, one line per series,
  /// histograms expanded into cumulative `_bucket{le=...}`, `_sum`, and
  /// `_count`. Safe to call while writers run.
  std::string TextExposition() const;

  /// The process-wide registry, for deployments that want every subsystem
  /// on one /metrics page without threading a pointer through.
  static MetricsRegistry* Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  const Entry* FindEntry(std::string_view name) const LDPM_REQUIRES(mu_);

  mutable core::Mutex mu_;
  /// Keyed by full series name. std::map: pointers stable, iteration
  /// sorted (so one family's series are contiguous in the exposition).
  std::map<std::string, Entry, std::less<>> metrics_ LDPM_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace ldpm

#endif  // LDPM_OBS_METRICS_H_
