// Batched-equals-sequential regression suite: for every protocol,
// AbsorbBatch and AbsorbWireBatch over a fixed report stream must produce
// bitwise-identical aggregator state to per-report Absorb — including the
// prefix semantics when a malformed report appears mid-batch.

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

/// A report the protocol's Absorb rejects, for mid-batch error injection.
Report MalformedReport(ProtocolKind kind, const ProtocolConfig& config) {
  const uint64_t domain = uint64_t{1} << config.d;
  Report report;
  switch (kind) {
    case ProtocolKind::kInpRR:
      report.ones = {domain};  // position outside the domain
      report.bits = static_cast<double>(domain);
      break;
    case ProtocolKind::kInpPS:
    case ProtocolKind::kInpEM:
      report.value = domain;  // value outside the domain
      report.bits = config.d;
      break;
    case ProtocolKind::kInpHT:
      report.selector = 0;  // |alpha| = 0 is never sampled
      report.sign = 1;
      report.bits = config.d + 1;
      break;
    case ProtocolKind::kMargRR:
    case ProtocolKind::kMargPS:
    case ProtocolKind::kMargHT:
      // An order-(k+1) selector is outside the exactly-k-way set.
      report.selector = (uint64_t{1} << (config.k + 1)) - 1;
      report.value = 1;
      report.sign = 1;
      break;
    case ProtocolKind::kInpES:
      report.value = uint64_t{1} << 30;  // far beyond any coefficient set
      report.sign = 1;
      break;
  }
  return report;
}

class BatchAbsorbTest : public ::testing::TestWithParam<ProtocolKind> {};

// One AbsorbBatch call, several uneven AbsorbBatch slices, and the generic
// plus columnar wire paths must all match per-report Absorb exactly.
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

    // Whole stream in one batch.
    auto batched = CreateProtocol(kind, config);
    ASSERT_TRUE(batched.ok());
    ASSERT_TRUE((*batched)->AbsorbBatch(reports.data(), reports.size()).ok());
    ExpectIdenticalSnapshots(want, (*batched)->Snapshot());

    // Uneven slices: empty and single, either side of InpRR's 16-record
    // carry-save block (15, 16, 17) and of its 240-record group (239..241,
    // 254..256, 511), so slices end mid-block and mid-group.
    auto sliced = CreateProtocol(kind, config);
    ASSERT_TRUE(sliced.ok());
    const size_t slice_sizes[] = {0,   1,   7,   15,  16,  17,  64,
                                  239, 240, 241, 254, 255, 256, 511};
    const size_t num_slices = std::size(slice_sizes);
    size_t cursor = 0;
    size_t which = 0;
    while (cursor < reports.size()) {
      const size_t n =
          std::min(slice_sizes[which % num_slices], reports.size() - cursor);
      ASSERT_TRUE((*sliced)->AbsorbBatch(reports.data() + cursor, n).ok());
      cursor += n;
      ++which;
    }
    ExpectIdenticalSnapshots(want, (*sliced)->Snapshot());

    // Wire batches, in one frame and in uneven frames.
    auto frame = SerializeReportBatch(kind, config, reports);
    ASSERT_TRUE(frame.ok());
    auto wire = CreateProtocol(kind, config);
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE((*wire)->AbsorbWireBatch(frame->data(), frame->size()).ok());
    ExpectIdenticalSnapshots(want, (*wire)->Snapshot());

    auto wire_sliced = CreateProtocol(kind, config);
    ASSERT_TRUE(wire_sliced.ok());
    cursor = 0;
    which = 0;
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

// A malformed report mid-batch: the reports before it stay absorbed, its
// error is returned, and the reports after it are not absorbed — exactly
// the state a sequential Absorb loop stopping at the error would leave.
TEST_P(BatchAbsorbTest, MalformedMidBatchKeepsPrefixOnly) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto encoder = CreateProtocol(kind, config);
  ASSERT_TRUE(encoder.ok());
  std::vector<Report> reports = EncodeReportStream(**encoder, 100, 123);
  const size_t bad_at = 40;
  reports[bad_at] = MalformedReport(kind, config);

  // Sequential reference: absorb until the error.
  auto sequential = CreateProtocol(kind, config);
  ASSERT_TRUE(sequential.ok());
  Status sequential_error = Status::OK();
  for (const Report& r : reports) {
    sequential_error = (*sequential)->Absorb(r);
    if (!sequential_error.ok()) break;
  }
  ASSERT_FALSE(sequential_error.ok());
  ASSERT_EQ((*sequential)->reports_absorbed(), bad_at);

  auto batched = CreateProtocol(kind, config);
  ASSERT_TRUE(batched.ok());
  const Status batch_error =
      (*batched)->AbsorbBatch(reports.data(), reports.size());
  ASSERT_FALSE(batch_error.ok());
  EXPECT_EQ(batch_error.code(), sequential_error.code());
  ExpectIdenticalSnapshots((*sequential)->Snapshot(), (*batched)->Snapshot());
}

// Same prefix semantics through the wire: a record whose content is invalid
// (where representable) and a frame with a corrupt length prefix both leave
// exactly the prefix absorbed.
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
  ASSERT_TRUE((*prefix)->AbsorbBatch(reports.data(), bad_at).ok());

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

// Empty batches are well-defined no-ops.
TEST_P(BatchAbsorbTest, EmptyBatchesAreNoOps) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto protocol = CreateProtocol(kind, config);
  ASSERT_TRUE(protocol.ok());
  EXPECT_TRUE((*protocol)->AbsorbBatch(nullptr, 0).ok());
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
