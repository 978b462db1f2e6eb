// Fuzz harness: wire-batch walking and per-record report decoding
// (protocols/wire.h).
//
// The first two bytes pick a protocol kind and a bounded dimension d (d
// is trusted registration data in production — collections are created by
// operators, not by the byte stream — so the harness bounds it the same
// way; an unbounded d would just make the harness enumerate 2^d cells).
// The rest of the input is walked as a wire batch; every record that
// deserializes must re-serialize canonically (serialize(parse(b)) parses
// back to the same bytes — the decode/encode fixed point). For InpRR,
// whose AbsorbWireBatch sums packed bitmaps with its own kernel, and
// InpES, whose AbsorbWireBatch parses each record with one word load, the
// whole input must also absorb to the same outcome and bitwise state as
// per-record DeserializeReport + Absorb stopping at the first failure.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "fuzz/fuzz_input.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

void CheckWireAbsorbMatchesParse(ldpm::ProtocolKind kind,
                                 const ldpm::ProtocolConfig& config,
                                 const uint8_t* data, size_t size) {
  auto wire = ldpm::CreateProtocol(kind, config);
  auto parsed = ldpm::CreateProtocol(kind, config);
  LDPM_FUZZ_ASSERT(wire.ok() && parsed.ok(), "protocol refused its config");
  const ldpm::Status wire_status = (*wire)->AbsorbWireBatch(data, size);

  ldpm::Status parsed_status = ldpm::Status::OK();
  ldpm::WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  while (parsed_status.ok() && reader.Next(record, record_size)) {
    auto report = ldpm::DeserializeReport(kind, config, record, record_size);
    parsed_status = report.ok() ? (*parsed)->Absorb(*report) : report.status();
  }
  if (parsed_status.ok()) parsed_status = reader.status();

  LDPM_FUZZ_ASSERT(wire_status.ok() == parsed_status.ok(),
                   "wire absorb and parse + Absorb disagree on the outcome");
  const ldpm::AggregatorSnapshot a = (*wire)->Snapshot();
  const ldpm::AggregatorSnapshot b = (*parsed)->Snapshot();
  LDPM_FUZZ_ASSERT(a.reports_absorbed == b.reports_absorbed &&
                       a.total_report_bits == b.total_report_bits &&
                       SameBits(a.reals, b.reals) && a.counts == b.counts,
                   "wire absorb and parse + Absorb left different state");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (64u << 10)) return 0;
  ldpm::fuzz::FuzzInput input(data, size);

  const auto& kinds = ldpm::RegisteredProtocolKinds();
  const ldpm::ProtocolKind kind =
      kinds[input.TakeByte() % kinds.size()];
  ldpm::ProtocolConfig config;
  config.d = input.TakeInRange(1, 12);
  config.k = 2;
  config.epsilon = 1.0;

  ldpm::WireBatchReader reader(input.remaining_data(),
                               input.remaining_size());
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  while (reader.Next(record, record_size)) {
    LDPM_FUZZ_ASSERT(record >= input.remaining_data() &&
                         record + record_size <=
                             input.remaining_data() + input.remaining_size(),
                     "record view out of bounds");
    auto report = ldpm::DeserializeReport(kind, config, record, record_size);
    if (!report.ok()) continue;
    auto bytes = ldpm::SerializeReport(kind, config, *report);
    LDPM_FUZZ_ASSERT(bytes.ok(), "accepted report refused to serialize");
    auto again = ldpm::DeserializeReport(kind, config, *bytes);
    LDPM_FUZZ_ASSERT(again.ok(), "serialized report refused to parse");
    auto bytes_again = ldpm::SerializeReport(kind, config, *again);
    LDPM_FUZZ_ASSERT(bytes_again.ok() && *bytes_again == *bytes,
                     "serialize/parse is not a fixed point");
  }
  // reader.status() may be OK (clean end) or a framing error; both are
  // fine — the walk just must terminate in bounds, which ASan enforces.
  if (kind == ldpm::ProtocolKind::kInpRR ||
      kind == ldpm::ProtocolKind::kInpES) {
    // An aggregator needs k <= d (the InpRR wire format ignores k; InpES
    // at d = 1 samples the one-way coefficients).
    ldpm::ProtocolConfig absorb_config = config;
    absorb_config.k = std::min(config.d, config.k);
    CheckWireAbsorbMatchesParse(kind, absorb_config, input.remaining_data(),
                                input.remaining_size());
  }
  return 0;
}
