// Shared machinery for the marginal-perturbation protocols MargRR, MargPS
// and MargHT (Section 4.3).
//
// All three share the same outer structure: each user uniformly samples one
// of the C(d, k) exactly-k-way marginal selectors, materializes *their own*
// (sparse, one-hot) marginal, and releases it through a mechanism that
// differs per protocol. The aggregator keeps per-selector state in the base
// class's flat arrays: the C(d, k) selector report counts lead counts_, and
// selector idx's 2^k cells start at idx << k. Queries for a lower-order
// marginal beta' (|beta'| < k) are answered by marginalizing every sampled
// superset's estimate and averaging, weighted by how many users reported
// each superset.

#ifndef LDPM_PROTOCOLS_MARG_COMMON_H_
#define LDPM_PROTOCOLS_MARG_COMMON_H_

#include <memory>
#include <span>
#include <vector>

#include "core/bits.h"
#include "protocols/protocol.h"

namespace ldpm {

class MargProtocolBase : public MarginalProtocol {
 public:
  /// The C(d, k) selectors users sample from.
  const std::vector<uint64_t>& selectors() const { return selectors_; }

  /// Number of users that sampled each selector so far.
  std::span<const uint64_t> selector_counts() const {
    return {counts_.data(), selectors_.size()};
  }

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;

 protected:
  MargProtocolBase(const ProtocolConfig& config);

  /// Validates (d, k) bounds shared by the Marg protocols: the per-user
  /// marginal has 2^k cells, which must stay materializable.
  static Status ValidateMarg(const ProtocolConfig& config);

  /// Uniformly samples a selector index in [0, C(d,k)).
  size_t SampleSelectorIndex(Rng& rng) const {
    return rng.UniformInt(selectors_.size());
  }

  /// Index of a selector, or NotFound for selectors outside the k-way set.
  StatusOr<size_t> SelectorIndexOf(uint64_t beta) const;

  /// Status-free selector index for batch hot loops: selectors() holds the
  /// C(d,k) exactly-k-way masks in increasing numeric order, whose position
  /// is their colex CombinationRank — dense rank arithmetic, no hash map.
  /// Returns kNoSelector for masks outside the set.
  static constexpr size_t kNoSelector = ~size_t{0};
  size_t SelectorIndexFast(uint64_t beta) const {
    if (Popcount(beta) != config_.k || beta >= (uint64_t{1} << config_.d)) {
      return kNoSelector;
    }
    return static_cast<size_t>(CombinationRank(beta));
  }

  /// Per-user effective sample size for the selector at `idx` under the
  /// configured estimator: the observed count (ratio) or N / C(d,k)
  /// (Horvitz–Thompson).
  double EffectiveSelectorCount(size_t idx) const;

  /// Bookkeeping: record that a report for selector `idx` arrived.
  void NoteSelectorReport(size_t idx) { ++counts_[idx]; }

  /// Estimates the exactly-k-way marginal for the selector at index `idx`
  /// *without* post-processing. Implemented by each concrete protocol.
  /// Selectors with zero reports should return the all-zero table.
  virtual StatusOr<MarginalTable> EstimateExactKWay(size_t idx) const = 0;

 private:
  std::vector<uint64_t> selectors_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_MARG_COMMON_H_
