#include "protocols/marg_common.h"

#include <string>

#include "core/marginal.h"

namespace ldpm {

MargProtocolBase::MargProtocolBase(const ProtocolConfig& config)
    : MarginalProtocol(config),
      selectors_(KWaySelectors(config.d, config.k)) {}

Status MargProtocolBase::ValidateMarg(const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.k > 24) {
    return Status::InvalidArgument(
        "Marg protocols materialize 2^k cells per selector; k = " +
        std::to_string(config.k) + " is too large");
  }
  // Guard total aggregator state C(d,k) * 2^k.
  const double state =
      static_cast<double>(BinomialCoefficient(config.d, config.k)) *
      static_cast<double>(uint64_t{1} << config.k);
  if (state > 1e9) {
    return Status::InvalidArgument(
        "Marg protocols: aggregator state C(d,k)*2^k too large");
  }
  return Status::OK();
}

StatusOr<size_t> MargProtocolBase::SelectorIndexOf(uint64_t beta) const {
  const size_t idx = SelectorIndexFast(beta);
  if (idx == kNoSelector) {
    return Status::NotFound("selector is not an exactly-k-way marginal");
  }
  return idx;
}

double MargProtocolBase::EffectiveSelectorCount(size_t idx) const {
  if (config_.estimator == EstimatorKind::kRatio) {
    return static_cast<double>(counts_[idx]);
  }
  return static_cast<double>(reports_absorbed()) /
         static_cast<double>(selectors_.size());
}

StatusOr<MarginalTable> MargProtocolBase::EstimateMarginal(uint64_t beta) const {
  if (config_.d < 64 && beta >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange(std::string(name()) + ": beta outside domain");
  }
  const int order = Popcount(beta);
  if (order > config_.k) {
    return Status::InvalidArgument(
        std::string(name()) +
        ": query order exceeds configured k; the protocol only materializes "
        "k-way marginals");
  }
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition(std::string(name()) +
                                      ": no reports absorbed");
  }

  if (order == config_.k) {
    auto idx = SelectorIndexOf(beta);
    if (!idx.ok()) return idx.status();
    return EstimateExactKWay(*idx);
  }

  // Lower-order query: average the marginalized estimates of every sampled
  // superset selector, weighting each superset by its report count (so the
  // pooled estimate is the average over the contributing users).
  MarginalTable pooled(config_.d, beta);
  double total_weight = 0.0;
  for (size_t i = 0; i < selectors_.size(); ++i) {
    if (!IsSubset(beta, selectors_[i])) continue;
    const double weight = static_cast<double>(counts_[i]);
    if (weight <= 0.0) continue;
    auto super = EstimateExactKWay(i);
    if (!super.ok()) return super.status();
    auto sub = MarginalizeTable(*super, beta);
    if (!sub.ok()) return sub.status();
    for (uint64_t c = 0; c < pooled.size(); ++c) {
      pooled.at_compact(c) += weight * sub->at_compact(c);
    }
    total_weight += weight;
  }
  if (total_weight <= 0.0) {
    return Status::FailedPrecondition(
        std::string(name()) + ": no reports cover the queried marginal");
  }
  for (uint64_t c = 0; c < pooled.size(); ++c) {
    pooled.at_compact(c) /= total_weight;
  }
  return pooled;
}

}  // namespace ldpm
