#include "protocols/marg_rr.h"

#include <bit>
#include <string>

#include "protocols/wire.h"

namespace ldpm {

MargRrProtocol::MargRrProtocol(const ProtocolConfig& config,
                               UnaryEncoding unary)
    : MargProtocolBase(config), unary_(unary) {
  // reals_: selector idx's 2^k reported-one counts start at idx << k;
  // counts_: the C(d,k) selector report counts.
  SetStateShape(selectors().size() << config_.k, selectors().size());
}

StatusOr<std::unique_ptr<MargRrProtocol>> MargRrProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateMarg(config));
  auto unary = UnaryEncoding::Create(config.epsilon, config.unary_variant);
  if (!unary.ok()) return unary.status();
  return std::unique_ptr<MargRrProtocol>(new MargRrProtocol(config, *unary));
}

Report MargRrProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  const size_t idx = SampleSelectorIndex(rng);
  const uint64_t beta = selectors()[idx];
  const uint64_t hot = ExtractBits(user_value, beta);
  report.selector = beta;
  report.ones = unary_.PerturbOneHot(uint64_t{1} << config_.k, hot, rng);
  report.bits = TheoreticalBitsPerUser();
  return report;
}

Status MargRrProtocol::Absorb(const Report& report) {
  auto idx = SelectorIndexOf(report.selector);
  if (!idx.ok()) {
    return Status::InvalidArgument("MargRR::Absorb: unknown selector");
  }
  LDPM_RETURN_IF_ERROR(CheckReportPositions(
      report.ones, uint64_t{1} << config_.k, "MargRR::Absorb"));
  double* row = reals_.data() + (*idx << config_.k);
  for (uint64_t pos : report.ones) row[pos] += 1.0;
  NoteSelectorReport(*idx);
  NoteAbsorbed(report);
  return Status::OK();
}

Status MargRrProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const uint64_t cells = uint64_t{1} << config_.k;
  const uint64_t total_bits = static_cast<uint64_t>(d) + cells;
  if (total_bits > 64) {
    // Record wider than one word: take the generic parse-and-absorb path.
    return MarginalProtocol::AbsorbWireBatch(data, size);
  }
  const size_t payload_bytes = (total_bits + 7) / 8;
  const uint64_t selector_mask = (uint64_t{1} << d) - 1;
  const uint64_t cell_mask =
      cells == 64 ? ~uint64_t{0} : (uint64_t{1} << cells) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "MargRR::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    const uint64_t word = LoadWireWord(record, record_size);
    const size_t idx = SelectorIndexFast(word & selector_mask);
    if (idx == kNoSelector) {
      error = Status::InvalidArgument("MargRR::Absorb: unknown selector");
      break;
    }
    // The reported cells arrive as a packed bitmap; absorb its set bits in
    // ascending order, exactly like the `ones` walk of the report path.
    uint64_t reported = (word >> d) & cell_mask;
    double* row = reals_.data() + (idx << config_.k);
    while (reported != 0) {
      row[std::countr_zero(reported)] += 1.0;
      reported &= reported - 1;
    }
    NoteSelectorReport(idx);
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, TheoreticalBitsPerUser());
  return error;
}

StatusOr<MarginalTable> MargRrProtocol::EstimateExactKWay(size_t idx) const {
  MarginalTable m(config_.d, selectors()[idx]);
  const double n = EffectiveSelectorCount(idx);
  if (n <= 0.0) return m;  // no reports for this selector: all-zero table
  const double* row = reals_.data() + (idx << config_.k);
  for (uint64_t c = 0; c < m.size(); ++c) {
    m.at_compact(c) = unary_.UnbiasCount(row[c], n) / n;
  }
  return m;
}

}  // namespace ldpm
