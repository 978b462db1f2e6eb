// Fuzz harness: structure-aware checkpoint round trips
// (engine/checkpoint.h).
//
// Builds syntactically valid snapshots out of fuzz-chosen field values —
// including hostile doubles smuggled in as raw bit patterns — and asserts
// container encode/decode is the identity. Field comparison is bitwise for
// doubles (NaNs must survive a checkpoint unchanged, not compare-false
// their way into a miss).

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/checkpoint.h"
#include "fuzz/fuzz_input.h"

namespace {

using ldpm::AggregatorSnapshot;
using ldpm::fuzz::FuzzInput;

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

AggregatorSnapshot TakeSnapshot(FuzzInput& input) {
  AggregatorSnapshot s;
  const int name_len = input.TakeInRange(0, 12);
  for (int i = 0; i < name_len; ++i) {
    s.protocol.push_back(static_cast<char>(input.TakeByte()));
  }
  s.d = input.TakeInRange(0, 62);
  s.k = input.TakeInRange(0, 8);
  s.epsilon = std::bit_cast<double>(input.TakeU64());
  s.estimator = static_cast<ldpm::EstimatorKind>(input.TakeInRange(0, 1));
  s.unary_variant = static_cast<ldpm::UnaryVariant>(input.TakeInRange(0, 1));
  s.sample_zero_coefficient = (input.TakeByte() & 1) != 0;
  s.reports_absorbed = input.TakeU64();
  s.total_report_bits = std::bit_cast<double>(input.TakeU64());
  const int reals = input.TakeInRange(0, 64);
  for (int i = 0; i < reals; ++i) {
    s.reals.push_back(std::bit_cast<double>(input.TakeU64()));
  }
  const int counts = input.TakeInRange(0, 64);
  for (int i = 0; i < counts; ++i) s.counts.push_back(input.TakeU64());
  return s;
}

void AssertSnapshotsEqual(const AggregatorSnapshot& a,
                          const AggregatorSnapshot& b) {
  LDPM_FUZZ_ASSERT(a.protocol == b.protocol, "protocol name changed");
  LDPM_FUZZ_ASSERT(a.d == b.d && a.k == b.k, "dimensions changed");
  LDPM_FUZZ_ASSERT(BitEqual(a.epsilon, b.epsilon), "epsilon changed");
  LDPM_FUZZ_ASSERT(a.estimator == b.estimator &&
                       a.unary_variant == b.unary_variant &&
                       a.sample_zero_coefficient == b.sample_zero_coefficient,
                   "flags changed");
  LDPM_FUZZ_ASSERT(a.reports_absorbed == b.reports_absorbed,
                   "reports_absorbed changed");
  LDPM_FUZZ_ASSERT(BitEqual(a.total_report_bits, b.total_report_bits),
                   "total_report_bits changed");
  LDPM_FUZZ_ASSERT(a.reals.size() == b.reals.size(), "reals length changed");
  for (size_t i = 0; i < a.reals.size(); ++i) {
    LDPM_FUZZ_ASSERT(BitEqual(a.reals[i], b.reals[i]), "reals entry changed");
  }
  LDPM_FUZZ_ASSERT(a.counts == b.counts, "counts changed");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (16u << 10)) return 0;
  FuzzInput input(data, size);

  std::vector<AggregatorSnapshot> snapshots;
  const int n = input.TakeInRange(0, 3);
  for (int i = 0; i < n; ++i) snapshots.push_back(TakeSnapshot(input));

  // Non-empty unique ids required.
  std::vector<ldpm::engine::CollectionCheckpoint> collections;
  collections.push_back({"c0", snapshots});
  if (input.TakeByte() & 1) collections.push_back({"c1", {}});
  auto image = ldpm::engine::EncodeCollectorCheckpoint(collections);
  LDPM_FUZZ_ASSERT(image.ok(), "bounded collections refused to encode");
  auto decoded =
      ldpm::engine::DecodeCollectorCheckpoint(image->data(), image->size());
  LDPM_FUZZ_ASSERT(decoded.ok(), "own encoding refused to decode");
  LDPM_FUZZ_ASSERT(decoded->size() == collections.size(),
                   "round trip changed the collection count");
  for (size_t c = 0; c < collections.size(); ++c) {
    LDPM_FUZZ_ASSERT((*decoded)[c].id == collections[c].id, "id changed");
    LDPM_FUZZ_ASSERT(
        (*decoded)[c].snapshots.size() == collections[c].snapshots.size(),
        "round trip changed the snapshot count");
    for (size_t i = 0; i < collections[c].snapshots.size(); ++i) {
      AssertSnapshotsEqual(collections[c].snapshots[i],
                           (*decoded)[c].snapshots[i]);
    }
  }
  return 0;
}
