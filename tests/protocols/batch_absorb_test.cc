// Batched-equals-sequential regression suite: for every protocol,
// AbsorbWireBatch over a fixed report stream must produce bitwise-identical
// aggregator state to per-report Absorb — including the prefix semantics
// when a malformed record appears mid-frame.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/factory.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using test::EncodeReportStream;
using test::ExpectIdenticalSnapshots;
using test::MakeConfig;

class BatchAbsorbTest : public ::testing::TestWithParam<ProtocolKind> {};

// One wire frame and many uneven frames must both match per-report Absorb
// exactly.
TEST_P(BatchAbsorbTest, BatchedMatchesSequentialBitwise) {
  const ProtocolKind kind = GetParam();
  // Every d up to 13. The InpRR bitmap is 2^d bits: at d <= 2 its one
  // byte carries padding bits above 2^d, at d <= 5 it is a single partial
  // word, at d = 6 one full word, at d = 7 two full words, at d = 12 the
  // 64 words of one absorb tile and at d = 13 two tiles. Padding bits
  // exist only at d <= 2, a partial tail word only at d <= 5. 2000 reports
  // span several 240-record absorb groups.
  for (int d = 1; d <= 13; ++d) {
    SCOPED_TRACE("d = " + std::to_string(d));
    const ProtocolConfig config = MakeConfig(d, std::min(d, 2));
    auto sequential = CreateProtocol(kind, config);
    ASSERT_TRUE(sequential.ok());
    const std::vector<Report> reports =
        EncodeReportStream(**sequential, 2000, 77);
    for (const Report& r : reports) {
      ASSERT_TRUE((*sequential)->Absorb(r).ok());
    }
    const AggregatorSnapshot want = (*sequential)->Snapshot();

    // The whole stream in one frame.
    auto frame = SerializeReportBatch(kind, config, reports);
    ASSERT_TRUE(frame.ok());
    auto wire = CreateProtocol(kind, config);
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE((*wire)->AbsorbWireBatch(frame->data(), frame->size()).ok());
    ExpectIdenticalSnapshots(want, (*wire)->Snapshot());

    // Uneven frames: empty and single, either side of InpRR's 16-record
    // carry-save block (15, 16, 17) and of its 240-record group (239..241,
    // 254..256, 511), so frames end mid-block and mid-group.
    const size_t slice_sizes[] = {0,   1,   7,   15,  16,  17,  64,
                                  239, 240, 241, 254, 255, 256, 511};
    const size_t num_slices = std::size(slice_sizes);
    auto wire_sliced = CreateProtocol(kind, config);
    ASSERT_TRUE(wire_sliced.ok());
    size_t cursor = 0;
    size_t which = 0;
    while (cursor < reports.size()) {
      const size_t n =
          std::min(slice_sizes[which % num_slices], reports.size() - cursor);
      auto sub = SerializeReportBatch(
          kind, config,
          std::vector<Report>(reports.begin() + cursor,
                              reports.begin() + cursor + n));
      ASSERT_TRUE(sub.ok());
      ASSERT_TRUE((*wire_sliced)->AbsorbWireBatch(sub->data(), sub->size()).ok());
      cursor += n;
      ++which;
    }
    ExpectIdenticalSnapshots(want, (*wire_sliced)->Snapshot());
  }
}

// A malformed record mid-frame: a corrupt length prefix and a frame cut
// mid-record both leave exactly the records before it absorbed — the state
// a sequential Absorb loop stopping there would leave.
TEST_P(BatchAbsorbTest, MalformedWireRecordKeepsPrefixOnly) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto encoder = CreateProtocol(kind, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 100, 321);
  const size_t bad_at = 33;

  // Reference state: the first `bad_at` reports.
  auto prefix = CreateProtocol(kind, config);
  ASSERT_TRUE(prefix.ok());
  for (size_t i = 0; i < bad_at; ++i) {
    ASSERT_TRUE((*prefix)->Absorb(reports[i]).ok());
  }

  // Corrupt length prefix mid-frame (claims more bytes than remain).
  auto frame = SerializeReportBatch(
      kind, config, std::vector<Report>(reports.begin(), reports.end()));
  ASSERT_TRUE(frame.ok());
  auto bits = WireBits(kind, config);
  ASSERT_TRUE(bits.ok());
  const size_t record_stride = 4 + (*bits + 7) / 8;
  std::vector<uint8_t> corrupt = *frame;
  corrupt[bad_at * record_stride] = 0xFF;  // absurd length
  corrupt[bad_at * record_stride + 1] = 0xFF;
  auto wire = CreateProtocol(kind, config);
  ASSERT_TRUE(wire.ok());
  const Status error = (*wire)->AbsorbWireBatch(corrupt.data(), corrupt.size());
  ASSERT_FALSE(error.ok());
  ExpectIdenticalSnapshots((*prefix)->Snapshot(), (*wire)->Snapshot());

  // Truncated frame: cut mid-record.
  std::vector<uint8_t> truncated(
      frame->begin(), frame->begin() + bad_at * record_stride + 2);
  auto wire2 = CreateProtocol(kind, config);
  ASSERT_TRUE(wire2.ok());
  const Status error2 =
      (*wire2)->AbsorbWireBatch(truncated.data(), truncated.size());
  ASSERT_FALSE(error2.ok());
  ExpectIdenticalSnapshots((*prefix)->Snapshot(), (*wire2)->Snapshot());
}

// Empty frames are well-defined no-ops.
TEST_P(BatchAbsorbTest, EmptyBatchesAreNoOps) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto protocol = CreateProtocol(kind, config);
  ASSERT_TRUE(protocol.ok());
  EXPECT_TRUE((*protocol)->AbsorbWireBatch(nullptr, 0).ok());
  EXPECT_EQ((*protocol)->reports_absorbed(), 0u);
}

// Batched ingest must feed the estimators identically: spot-check that a
// wire-ingested aggregator answers every query bitwise-identically to the
// sequential one.
TEST_P(BatchAbsorbTest, WireIngestedEstimatesMatch) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto sequential = CreateProtocol(kind, config);
  ASSERT_TRUE(sequential.ok());
  const std::vector<Report> reports =
      EncodeReportStream(**sequential, 3000, 55);
  for (const Report& r : reports) ASSERT_TRUE((*sequential)->Absorb(r).ok());

  auto frame = SerializeReportBatch(kind, config, reports);
  ASSERT_TRUE(frame.ok());
  auto wire = CreateProtocol(kind, config);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE((*wire)->AbsorbWireBatch(frame->data(), frame->size()).ok());
  test::ExpectBitwiseEqualEstimates(**sequential, **wire);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BatchAbsorbTest, ::testing::ValuesIn(RegisteredProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

}  // namespace
}  // namespace ldpm
