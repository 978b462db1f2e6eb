#include "protocols/protocol.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "analysis/consistency.h"
#include "core/bits.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace ldpm {

Status CheckReportPositions(const std::vector<uint64_t>& ones, uint64_t bound,
                            const std::string& where) {
  for (size_t i = 0; i < ones.size(); ++i) {
    if (ones[i] >= bound) {
      return Status::InvalidArgument(where + ": position outside domain");
    }
    if (i > 0 && ones[i] <= ones[i - 1]) {
      return Status::InvalidArgument(where +
                                     ": positions not strictly ascending");
    }
  }
  return Status::OK();
}

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
  if (state_header_ != other.state_header_ ||
      reals_.size() != other.reals_.size() ||
      counts_.size() != other.counts_.size()) {
    return Status::InvalidArgument(
        std::string(name()) +
        "::MergeFrom: aggregator states have different shapes or headers");
  }
  return Status::OK();
}

void MarginalProtocol::SetStateShape(size_t reals, size_t counts,
                                     std::vector<uint64_t> header) {
  reals_.assign(reals, 0.0);
  counts_.assign(counts, 0);
  state_header_ = std::move(header);
}

void MarginalProtocol::Reset() {
  std::fill(reals_.begin(), reals_.end(), 0.0);
  std::fill(counts_.begin(), counts_.end(), 0);
  ResetBookkeeping();
}

Status MarginalProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  for (size_t i = 0; i < reals_.size(); ++i) reals_[i] += other.reals_[i];
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  MergeBookkeeping(other);
  return Status::OK();
}

void MarginalProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.reals = reals_;
  snapshot.counts.reserve(state_header_.size() + counts_.size());
  snapshot.counts.assign(state_header_.begin(), state_header_.end());
  snapshot.counts.insert(snapshot.counts.end(), counts_.begin(), counts_.end());
}

Status MarginalProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  const size_t header = state_header_.size();
  if (snapshot.reals.size() != reals_.size() ||
      snapshot.counts.size() != header + counts_.size()) {
    return Status::InvalidArgument(
        std::string(name()) + "::Restore: snapshot holds " +
        std::to_string(snapshot.reals.size()) + " reals and " +
        std::to_string(snapshot.counts.size()) + " counts, expected " +
        std::to_string(reals_.size()) + " and " +
        std::to_string(header + counts_.size()));
  }
  for (size_t i = 0; i < header; ++i) {
    if (snapshot.counts[i] != state_header_[i]) {
      return Status::InvalidArgument(
          std::string(name()) + "::Restore: snapshot header word " +
          std::to_string(i) + " is " + std::to_string(snapshot.counts[i]) +
          ", this aggregator's is " + std::to_string(state_header_[i]));
    }
  }
  reals_ = snapshot.reals;
  counts_.assign(snapshot.counts.begin() + header, snapshot.counts.end());
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
