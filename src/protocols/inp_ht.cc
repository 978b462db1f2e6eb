#include "protocols/inp_ht.h"

#include <string>

#include "core/bits.h"
#include "protocols/wire.h"

namespace ldpm {

InpHtProtocol::InpHtProtocol(const ProtocolConfig& config,
                             RandomizedResponse rr,
                             std::vector<uint64_t> alphas)
    : MarginalProtocol(config),
      rr_(rr),
      alphas_(std::move(alphas)),
      index_(config.d, config.k) {
  // Per coefficient of T: reals_ the sum of reported signs, counts_ the
  // number of reports.
  SetStateShape(alphas_.size(), alphas_.size());
}

StatusOr<std::unique_ptr<InpHtProtocol>> InpHtProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  const uint64_t t_size = LowOrderCoefficientCount(config.d, config.k);
  // Keep the coefficient table addressable; |T| = O(d^k) so this only
  // triggers for extreme (d, k) combinations.
  if (t_size > (uint64_t{1} << 28)) {
    return Status::InvalidArgument(
        "InpHT: coefficient set too large (|T| = " + std::to_string(t_size) +
        ")");
  }
  auto rr = RandomizedResponse::FromEpsilon(config.epsilon);
  if (!rr.ok()) return rr.status();
  return std::unique_ptr<InpHtProtocol>(
      new InpHtProtocol(config, *rr, LowOrderMasks(config.d, config.k)));
}

Report InpHtProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  const size_t pick = rng.UniformInt(alphas_.size());
  const uint64_t alpha = alphas_[pick];
  const int sign = HadamardSignInt(user_value, alpha);
  report.selector = alpha;
  report.sign = rr_.PerturbSign(sign, rng);
  report.bits = static_cast<double>(config_.d) + 1.0;
  return report;
}

Status InpHtProtocol::Absorb(const Report& report) {
  const size_t idx = index_.Of(report.selector);
  if (idx == LowOrderIndex::kNone) {
    return Status::InvalidArgument(
        "InpHT::Absorb: coefficient index not in the sampled set T");
  }
  if (report.sign != -1 && report.sign != 1) {
    return Status::InvalidArgument("InpHT::Absorb: sign must be -1 or +1");
  }
  reals_[idx] += static_cast<double>(report.sign);
  counts_[idx] += 1;
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpHtProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const size_t payload_bytes = (static_cast<size_t>(d) + 1 + 7) / 8;
  const uint64_t selector_mask = (uint64_t{1} << d) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpHT::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    const uint64_t word = LoadWireWord(record, record_size);
    const uint64_t alpha = word & selector_mask;
    const size_t idx = index_.Of(alpha);
    if (idx == LowOrderIndex::kNone) {
      error = Status::InvalidArgument(
          "InpHT::Absorb: coefficient index not in the sampled set T");
      break;
    }
    reals_[idx] += ((word >> d) & 1) ? 1.0 : -1.0;
    counts_[idx] += 1;
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, static_cast<double>(d) + 1.0);
  return error;
}

double InpHtProtocol::UnbiasedCoefficient(size_t index) const {
  double raw_mean = 0.0;
  if (config_.estimator == EstimatorKind::kRatio) {
    raw_mean = counts_[index] > 0
                   ? reals_[index] / static_cast<double>(counts_[index])
                   : 0.0;
  } else {
    const double expected_per_coeff =
        static_cast<double>(reports_absorbed()) /
        static_cast<double>(alphas_.size());
    raw_mean = reals_[index] / expected_per_coeff;
  }
  return rr_.UnbiasSignMean(raw_mean);
}

StatusOr<FourierCoefficients> InpHtProtocol::EstimateCoefficients(
    int max_order) const {
  LDPM_RETURN_IF_ERROR(CheckCoefficientExport(max_order));
  FourierCoefficients fc(config_.d, max_order);
  // The coefficients of order <= max_order are a prefix of T.
  const uint64_t count = LowOrderCoefficientCount(config_.d, max_order);
  for (size_t i = 0; i < count; ++i) fc.Set(alphas_[i], UnbiasedCoefficient(i));
  return fc;
}

StatusOr<MarginalTable> InpHtProtocol::EstimateMarginal(uint64_t beta) const {
  if (config_.d < 64 && beta >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange("InpHT: beta outside domain");
  }
  if (Popcount(beta) > config_.k) {
    return Status::InvalidArgument(
        "InpHT: query order exceeds configured k = " +
        std::to_string(config_.k));
  }
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition("InpHT: no reports absorbed");
  }
  // Lemma 3.7 reads only the coefficients alpha ⪯ beta: unbias those
  // 2^|beta| - 1 instead of all of T. Every nonzero alpha ⪯ beta has
  // |alpha| <= k, so it is in T.
  return MarginalFromCoefficients(config_.d, beta, [this](uint64_t alpha) {
    return UnbiasedCoefficient(index_.Of(alpha));
  });
}

}  // namespace ldpm
