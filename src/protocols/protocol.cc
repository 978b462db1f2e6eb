#include "protocols/protocol.h"

#include <cmath>
#include <string>

#include "analysis/consistency.h"
#include "core/bits.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace ldpm {

Status MarginalProtocol::ValidateCommon(const ProtocolConfig& config) {
  if (config.d < 1 || config.d > kMaxDimensions) {
    return Status::InvalidArgument("ProtocolConfig: d must be in [1, " +
                                   std::to_string(kMaxDimensions) + "], got " +
                                   std::to_string(config.d));
  }
  if (config.k < 1 || config.k > config.d) {
    return Status::InvalidArgument(
        "ProtocolConfig: k must be in [1, d], got k = " +
        std::to_string(config.k) + " with d = " + std::to_string(config.d));
  }
  if (!(config.epsilon > 0.0) || !std::isfinite(config.epsilon)) {
    return Status::InvalidArgument(
        "ProtocolConfig: epsilon must be finite and > 0");
  }
  return Status::OK();
}

Status MarginalProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  auto kind = ProtocolKindFromName(name());
  if (!kind.ok()) {
    return Status::Unimplemented(std::string(name()) +
                                 ": no wire format for this protocol");
  }
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  while (reader.Next(record, record_size)) {
    auto report = DeserializeReport(*kind, config_, record, record_size);
    if (!report.ok()) return report.status();
    LDPM_RETURN_IF_ERROR(Absorb(*report));
  }
  return reader.status();
}

Status MarginalProtocol::AbsorbPopulation(const std::vector<uint64_t>& rows,
                                          Rng& rng) {
  for (uint64_t row : rows) {
    LDPM_RETURN_IF_ERROR(Absorb(Encode(row, rng)));
  }
  return Status::OK();
}

Status MarginalProtocol::CheckCoefficientExport(int max_order) const {
  if (max_order < 1 || max_order > config_.k) {
    return Status::InvalidArgument(
        std::string(name()) + ": coefficient order must be in [1, k = " +
        std::to_string(config_.k) + "], got " + std::to_string(max_order));
  }
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition(std::string(name()) +
                                      ": no reports absorbed");
  }
  return Status::OK();
}

StatusOr<FourierCoefficients> MarginalProtocol::EstimateCoefficients(
    int max_order) const {
  LDPM_RETURN_IF_ERROR(CheckCoefficientExport(max_order));
  const std::vector<uint64_t> selectors = LowOrderMasks(config_.d, max_order);
  std::vector<MarginalTable> tables;
  tables.reserve(selectors.size());
  for (uint64_t beta : selectors) {
    auto table = EstimateMarginal(beta);
    if (!table.ok()) return table.status();
    tables.push_back(*std::move(table));
  }
  return FitSharedCoefficients(tables, config_.d);
}

Status MarginalProtocol::CheckMergeCompatible(
    const MarginalProtocol& other) const {
  if (name() != other.name()) {
    return Status::InvalidArgument(
        std::string(name()) + "::MergeFrom: protocol mismatch (other is " +
        std::string(other.name()) + ")");
  }
  const ProtocolConfig& o = other.config_;
  if (config_.d != o.d || config_.k != o.k ||
      config_.epsilon != o.epsilon || config_.estimator != o.estimator ||
      config_.unary_variant != o.unary_variant ||
      config_.sample_zero_coefficient != o.sample_zero_coefficient) {
    return Status::InvalidArgument(
        std::string(name()) +
        "::MergeFrom: aggregator configurations are not state-compatible");
  }
  return Status::OK();
}

AggregatorSnapshot MarginalProtocol::Snapshot() const {
  AggregatorSnapshot snapshot;
  snapshot.protocol = std::string(name());
  snapshot.d = config_.d;
  snapshot.k = config_.k;
  snapshot.epsilon = config_.epsilon;
  snapshot.estimator = config_.estimator;
  snapshot.unary_variant = config_.unary_variant;
  snapshot.sample_zero_coefficient = config_.sample_zero_coefficient;
  snapshot.reports_absorbed = reports_absorbed_;
  snapshot.total_report_bits = total_report_bits_;
  SaveState(snapshot);
  return snapshot;
}

Status MarginalProtocol::Restore(const AggregatorSnapshot& snapshot) {
  if (snapshot.protocol != name()) {
    return Status::InvalidArgument(
        std::string(name()) + "::Restore: snapshot was taken from " +
        snapshot.protocol);
  }
  if (snapshot.d != config_.d || snapshot.k != config_.k ||
      snapshot.epsilon != config_.epsilon ||
      snapshot.estimator != config_.estimator ||
      snapshot.unary_variant != config_.unary_variant ||
      snapshot.sample_zero_coefficient != config_.sample_zero_coefficient) {
    return Status::InvalidArgument(
        std::string(name()) +
        "::Restore: snapshot configuration does not match this aggregator");
  }
  LDPM_RETURN_IF_ERROR(LoadState(snapshot));
  reports_absorbed_ = snapshot.reports_absorbed;
  total_report_bits_ = snapshot.total_report_bits;
  return Status::OK();
}

}  // namespace ldpm
