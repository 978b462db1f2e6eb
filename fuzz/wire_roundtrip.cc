// Fuzz harness: structure-aware report round trips (protocols/wire.h).
//
// Instead of parsing hostile bytes, this harness generates *valid*
// reports — a protocol instance encodes fuzz-chosen inputs with a
// fuzz-seeded RNG — and asserts the differential round-trip property the
// wire format promises: deserialize(serialize(r)) is accepted by the
// protocol's Absorb() and re-serializes to the identical bytes. Finds
// encoder/decoder disagreements that pure byte-mangling rarely reaches
// (those inputs live deep in the accepted set).
//
// Input bytes left after the valid rounds build one hostile report from
// fuzz-chosen fields (selector, value, sign, positions), and the harness
// asserts that the in-memory and wire paths agree on it: Absorb(r) and
// AbsorbWireBatch of SerializeReport(r) either both refuse or both end in
// identical snapshots. A serializer that truncates an out-of-range field
// turns a refused report into another, valid one, and fails here.

#include <cstdint>
#include <vector>

#include "core/random.h"
#include "fuzz/fuzz_input.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace {

bool SameState(const ldpm::AggregatorSnapshot& a,
               const ldpm::AggregatorSnapshot& b) {
  return a.reports_absorbed == b.reports_absorbed &&
         a.total_report_bits == b.total_report_bits && a.reals == b.reals &&
         a.counts == b.counts;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ldpm::fuzz::FuzzInput input(data, size);

  const auto& kinds = ldpm::RegisteredProtocolKinds();
  const ldpm::ProtocolKind kind = kinds[input.TakeByte() % kinds.size()];
  ldpm::ProtocolConfig config;
  config.d = input.TakeInRange(1, 12);
  config.k = 2;
  config.epsilon = 0.125 * input.TakeInRange(1, 32);

  auto protocol = ldpm::CreateProtocol(kind, config);
  if (!protocol.ok()) return 0;  // not every (kind, config) is valid

  ldpm::Rng rng(input.TakeU64() | 1);
  const int rounds = input.TakeInRange(1, 8);
  for (int i = 0; i < rounds; ++i) {
    const uint64_t cell =
        input.TakeU64() % (uint64_t{1} << (config.d < 62 ? config.d : 62));
    const ldpm::Report report = (*protocol)->Encode(cell, rng);

    auto bytes = ldpm::SerializeReport(kind, config, report);
    LDPM_FUZZ_ASSERT(bytes.ok(), "encoder output refused to serialize");
    auto parsed = ldpm::DeserializeReport(kind, config, *bytes);
    LDPM_FUZZ_ASSERT(parsed.ok(), "serialized report refused to parse");
    auto bytes_again = ldpm::SerializeReport(kind, config, *parsed);
    LDPM_FUZZ_ASSERT(bytes_again.ok() && *bytes_again == *bytes,
                     "round trip changed the wire bytes");
    LDPM_FUZZ_ASSERT((*protocol)->Absorb(*parsed).ok(),
                     "round-tripped report rejected by Absorb");
  }
  if (input.remaining_size() == 0) return 0;

  ldpm::Report hostile;
  hostile.selector = input.TakeU64();
  hostile.value = input.TakeU64();
  hostile.sign = input.TakeInRange(-1, 1);
  const int positions = input.TakeInRange(0, 4);
  for (int i = 0; i < positions; ++i) {
    const uint64_t low = input.TakeByte();
    hostile.ones.push_back(low | uint64_t{input.TakeByte()} << 8);
  }
  hostile.bits = static_cast<double>(*ldpm::WireBits(kind, config));

  auto direct = ldpm::CreateProtocol(kind, config);
  auto wire = ldpm::CreateProtocol(kind, config);
  LDPM_FUZZ_ASSERT(direct.ok() && wire.ok(), "protocol re-creation failed");
  const bool direct_ok = (*direct)->Absorb(hostile).ok();
  auto batch = ldpm::SerializeReportBatch(kind, config, {hostile});
  if (!batch.ok()) {
    LDPM_FUZZ_ASSERT(!direct_ok,
                     "a report Absorb accepts was refused by the serializer");
    return 0;
  }
  const bool wire_ok =
      (*wire)->AbsorbWireBatch(batch->data(), batch->size()).ok();
  LDPM_FUZZ_ASSERT(direct_ok == wire_ok,
                   "Absorb and the wire path disagree on accepting a report");
  LDPM_FUZZ_ASSERT(SameState((*direct)->Snapshot(), (*wire)->Snapshot()),
                   "Absorb and the wire path absorbed different reports");
  return 0;
}
