#include "protocols/inp_ps.h"

#include <string>

#include "core/marginal.h"
#include "protocols/wire.h"

namespace ldpm {

StatusOr<std::unique_ptr<InpPsProtocol>> InpPsProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.d > kMaxDenseDimensions) {
    return Status::InvalidArgument(
        "InpPS: d = " + std::to_string(config.d) +
        " exceeds the dense-table limit");
  }
  auto direct =
      DirectEncoding::Create(config.epsilon, uint64_t{1} << config.d);
  if (!direct.ok()) return direct.status();
  return std::unique_ptr<InpPsProtocol>(new InpPsProtocol(config, *direct));
}

Report InpPsProtocol::Encode(uint64_t user_value, Rng& rng) const {
  LDPM_DCHECK(user_value < (uint64_t{1} << config_.d));
  Report report;
  report.value = direct_.Perturb(user_value, rng);
  report.bits = static_cast<double>(config_.d);
  return report;
}

Status InpPsProtocol::Absorb(const Report& report) {
  if (report.value >= reals_.size()) {
    return Status::InvalidArgument("InpPS::Absorb: value outside domain");
  }
  reals_[report.value] += 1.0;
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpPsProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const size_t payload_bytes = (static_cast<size_t>(d) + 7) / 8;
  const uint64_t value_mask = (uint64_t{1} << d) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpPS::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    reals_[LoadWireWord(record, record_size) & value_mask] += 1.0;
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, static_cast<double>(d));
  return error;
}

StatusOr<MarginalTable> InpPsProtocol::EstimateMarginal(uint64_t beta) const {
  if (beta >= reals_.size()) {
    return Status::OutOfRange("InpPS: beta outside domain");
  }
  const uint64_t n = reports_absorbed();
  if (n == 0) {
    return Status::FailedPrecondition("InpPS: no reports absorbed");
  }
  MarginalTable m(config_.d, beta);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (uint64_t cell = 0; cell < reals_.size(); ++cell) {
    const double f_hat = direct_.UnbiasFrequency(reals_[cell] * inv_n);
    m.at_compact(ExtractBits(cell, beta)) += f_hat;
  }
  return m;
}

}  // namespace ldpm
