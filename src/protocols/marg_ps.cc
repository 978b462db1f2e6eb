#include "protocols/marg_ps.h"

#include <string>

#include "protocols/wire.h"

namespace ldpm {

MargPsProtocol::MargPsProtocol(const ProtocolConfig& config,
                               DirectEncoding direct)
    : MargProtocolBase(config), direct_(direct) {
  // reals_: selector idx's 2^k report counts start at idx << k; counts_:
  // the C(d,k) selector report counts.
  SetStateShape(selectors().size() << config_.k, selectors().size());
}

StatusOr<std::unique_ptr<MargPsProtocol>> MargPsProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateMarg(config));
  auto direct =
      DirectEncoding::Create(config.epsilon, uint64_t{1} << config.k);
  if (!direct.ok()) return direct.status();
  return std::unique_ptr<MargPsProtocol>(new MargPsProtocol(config, *direct));
}

Report MargPsProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  const size_t idx = SampleSelectorIndex(rng);
  const uint64_t beta = selectors()[idx];
  const uint64_t hot = ExtractBits(user_value, beta);
  report.selector = beta;
  report.value = direct_.Perturb(hot, rng);
  report.bits = TheoreticalBitsPerUser();
  return report;
}

Status MargPsProtocol::Absorb(const Report& report) {
  auto idx = SelectorIndexOf(report.selector);
  if (!idx.ok()) {
    return Status::InvalidArgument("MargPS::Absorb: unknown selector");
  }
  if (report.value >= (uint64_t{1} << config_.k)) {
    return Status::InvalidArgument("MargPS::Absorb: cell outside marginal");
  }
  reals_[(*idx << config_.k) + report.value] += 1.0;
  NoteSelectorReport(*idx);
  NoteAbsorbed(report);
  return Status::OK();
}

Status MargPsProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const int k = config_.k;
  const uint64_t total_bits = static_cast<uint64_t>(d) + k;
  if (total_bits > 64) {
    return MarginalProtocol::AbsorbWireBatch(data, size);
  }
  const size_t payload_bytes = (total_bits + 7) / 8;
  const uint64_t selector_mask = (uint64_t{1} << d) - 1;
  const uint64_t value_mask = (uint64_t{1} << k) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "MargPS::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    const uint64_t word = LoadWireWord(record, record_size);
    const size_t idx = SelectorIndexFast(word & selector_mask);
    if (idx == kNoSelector) {
      error = Status::InvalidArgument("MargPS::Absorb: unknown selector");
      break;
    }
    // A k-bit field cannot exceed the 2^k cells, so no range check needed.
    reals_[(idx << k) + ((word >> d) & value_mask)] += 1.0;
    NoteSelectorReport(idx);
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, TheoreticalBitsPerUser());
  return error;
}

StatusOr<MarginalTable> MargPsProtocol::EstimateExactKWay(size_t idx) const {
  MarginalTable m(config_.d, selectors()[idx]);
  const double n = EffectiveSelectorCount(idx);
  if (n <= 0.0) return m;
  const double* row = reals_.data() + (idx << config_.k);
  for (uint64_t c = 0; c < m.size(); ++c) {
    m.at_compact(c) = direct_.UnbiasFrequency(row[c] / n);
  }
  return m;
}

}  // namespace ldpm
