#include "protocols/inp_rr.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/wire.h"
#include "test_util.h"

namespace ldpm {
namespace {

ProtocolConfig Config(int d, int k, double eps) {
  ProtocolConfig c;
  c.d = d;
  c.k = k;
  c.epsilon = eps;
  return c;
}

/// Appends one length-prefixed wire-batch record holding `payload` as is.
void AppendRecord(const std::vector<uint8_t>& payload,
                  std::vector<uint8_t>& frame) {
  const uint32_t size = static_cast<uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) {
    frame.push_back(static_cast<uint8_t>(size >> (8 * b)));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
}

TEST(InpRr, CreateValidatesConfig) {
  EXPECT_TRUE(InpRrProtocol::Create(Config(4, 2, 1.0)).ok());
  EXPECT_FALSE(InpRrProtocol::Create(Config(0, 1, 1.0)).ok());
  EXPECT_FALSE(InpRrProtocol::Create(Config(4, 5, 1.0)).ok());
  EXPECT_FALSE(InpRrProtocol::Create(Config(4, 2, 0.0)).ok());
  EXPECT_FALSE(InpRrProtocol::Create(Config(kMaxDenseDimensions + 1, 2, 1.0)).ok());
}

TEST(InpRr, ReportShapeAndBits) {
  auto p = InpRrProtocol::Create(Config(5, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Rng rng(1);
  const Report r = (*p)->Encode(7, rng);
  EXPECT_EQ(r.bits, 32.0);  // 2^5 bits, Table 2
  EXPECT_EQ((*p)->TheoreticalBitsPerUser(), 32.0);
  for (uint64_t pos : r.ones) EXPECT_LT(pos, 32u);
}

TEST(InpRr, AbsorbRejectsOutOfDomainPositions) {
  auto p = InpRrProtocol::Create(Config(3, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Report bad;
  bad.ones = {9};  // domain is [0, 8)
  EXPECT_EQ((*p)->Absorb(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*p)->reports_absorbed(), 0u);
}

TEST(InpRr, EstimateBeforeAbsorbFails) {
  auto p = InpRrProtocol::Create(Config(3, 2, 1.0));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->EstimateMarginal(0b011).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InpRr, RecoversMarginalsPerUserPath) {
  const int d = 4;
  auto p = InpRrProtocol::Create(Config(d, 2, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 60000, 11);
  test::RunPerUser(**p, rows, 12);
  for (uint64_t beta : KWaySelectors(d, 2)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.08);
  }
}

TEST(InpRr, FastPathMatchesTruth) {
  const int d = 6;
  auto p = InpRrProtocol::Create(Config(d, 2, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 100000, 13);
  Rng rng(14);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());
  EXPECT_EQ((*p)->reports_absorbed(), rows.size());
  for (uint64_t beta : KWaySelectors(d, 2)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.08);
  }
}

TEST(InpRr, FastAndSlowPathsAgreeInDistribution) {
  // Same population through both paths (different randomness); the two
  // estimates must agree within joint noise.
  const int d = 4;
  const auto rows = test::SkewedRows(d, 80000, 17);
  auto slow = InpRrProtocol::Create(Config(d, 2, 1.0));
  auto fast = InpRrProtocol::Create(Config(d, 2, 1.0));
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  test::RunPerUser(**slow, rows, 18);
  Rng rng(19);
  ASSERT_TRUE((*fast)->AbsorbPopulation(rows, rng).ok());
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto a = (*slow)->EstimateMarginal(beta);
    auto b = (*fast)->EstimateMarginal(beta);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_LE(a->TotalVariationDistance(*b), 0.1) << "beta=" << beta;
  }
}

TEST(InpRr, AnswersAnyOrderUpToD) {
  // InpRR reconstructs the full distribution, so queries above k work too.
  const int d = 4;
  auto p = InpRrProtocol::Create(Config(d, 2, 2.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 50000, 21);
  Rng rng(22);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());
  auto full = (*p)->EstimateMarginal((1u << d) - 1);
  EXPECT_TRUE(full.ok());
}

TEST(InpRr, EstimateSumsToApproximatelyOne) {
  const int d = 5;
  auto p = InpRrProtocol::Create(Config(d, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 50000, 23);
  Rng rng(24);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());
  auto m = (*p)->EstimateMarginal(0b00011);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->Total(), 1.0, 0.05);
}

TEST(InpRr, VanillaVariantAlsoWorks) {
  ProtocolConfig c = Config(4, 2, std::log(3.0));
  c.unary_variant = UnaryVariant::kVanilla;
  auto p = InpRrProtocol::Create(c);
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 60000, 25);
  Rng rng(26);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());
  test::ExpectEstimateClose(**p, rows, 4, 0b0011, 0.08);
}

TEST(InpRr, ResetClearsState) {
  auto p = InpRrProtocol::Create(Config(3, 1, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(3, 1000, 29);
  Rng rng(30);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());
  EXPECT_GT((*p)->reports_absorbed(), 0u);
  (*p)->Reset();
  EXPECT_EQ((*p)->reports_absorbed(), 0u);
  EXPECT_EQ((*p)->total_report_bits(), 0.0);
  EXPECT_FALSE((*p)->EstimateMarginal(0b001).ok());
}

TEST(InpRr, MeasuredBitsMatchTheory) {
  auto p = InpRrProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 100, 31);
  test::RunPerUser(**p, rows, 32);
  EXPECT_DOUBLE_EQ((*p)->total_report_bits() / 100.0,
                   (*p)->TheoreticalBitsPerUser());
}

// At d <= 2 the bitmap's one byte has bits above 2^d; they are padding,
// which the wire path must ignore exactly as DeserializeReport does.
TEST(InpRr, WireAbsorbIgnoresPaddingBits) {
  for (int d : {1, 2}) {
    const ProtocolConfig config = Config(d, 1, 1.0);
    const uint8_t padding = static_cast<uint8_t>(0xFF << (1 << d));
    auto reference = InpRrProtocol::Create(config);
    ASSERT_TRUE(reference.ok());
    Rng rng(40 + d);
    std::vector<uint8_t> frame;
    for (int i = 0; i < 600; ++i) {
      const std::vector<uint8_t> payload = {
          static_cast<uint8_t>((rng() & 0xFF) | padding)};
      AppendRecord(payload, frame);
      auto report = DeserializeReport(ProtocolKind::kInpRR, config, payload);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE((*reference)->Absorb(*report).ok());
    }
    auto wire = InpRrProtocol::Create(config);
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE((*wire)->AbsorbWireBatch(frame.data(), frame.size()).ok());
    test::ExpectIdenticalSnapshots((*reference)->Snapshot(),
                                   (*wire)->Snapshot());
  }
}

// All-ones bitmaps carry every cell's count through all eight bit planes
// (255 = 0b11111111); the wire path must still count exactly n per cell,
// across group boundaries, and all-zeros bitmaps exactly 0.
TEST(InpRr, WireAbsorbCountsSaturatedBitmapsExactly) {
  for (int d : {2, 7, 12}) {
    const ProtocolConfig config = Config(d, 2, 1.0);
    const size_t payload_bytes = ((size_t{1} << d) + 7) / 8;
    for (size_t n : {240, 255, 256, 1000}) {
      for (uint8_t fill : {0x00, 0xFF}) {
        SCOPED_TRACE("d = " + std::to_string(d) + ", n = " +
                     std::to_string(n) + ", fill = " + std::to_string(fill));
        std::vector<uint8_t> frame;
        for (size_t i = 0; i < n; ++i) {
          AppendRecord(std::vector<uint8_t>(payload_bytes, fill), frame);
        }
        auto p = InpRrProtocol::Create(config);
        ASSERT_TRUE(p.ok());
        ASSERT_TRUE((*p)->AbsorbWireBatch(frame.data(), frame.size()).ok());
        const AggregatorSnapshot snapshot = (*p)->Snapshot();
        EXPECT_EQ(snapshot.reports_absorbed, n);
        ASSERT_EQ(snapshot.reals.size(), size_t{1} << d);
        const double want = fill == 0 ? 0.0 : static_cast<double>(n);
        for (double count : snapshot.reals) ASSERT_EQ(count, want);
      }
    }
  }
}

// A wrong-size record at index 300, inside the second absorb group, stops
// the batch with InvalidArgument and leaves exactly the 300 records before
// it absorbed, including the part of the group already collected.
TEST(InpRr, WrongSizeRecordMidGroupKeepsPrefix) {
  const ProtocolConfig config = Config(12, 2, 1.0);
  auto prefix = InpRrProtocol::Create(config);
  ASSERT_TRUE(prefix.ok());
  const std::vector<Report> reports =
      test::EncodeReportStream(**prefix, 400, 45);
  const size_t bad_at = 300;
  std::vector<uint8_t> frame;
  for (size_t i = 0; i < reports.size(); ++i) {
    auto payload = SerializeReport(ProtocolKind::kInpRR, config, reports[i]);
    ASSERT_TRUE(payload.ok());
    if (i == bad_at) payload->push_back(0);  // one byte too long
    if (i < bad_at) ASSERT_TRUE((*prefix)->Absorb(reports[i]).ok());
    AppendRecord(*payload, frame);
  }
  auto wire = InpRrProtocol::Create(config);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ((*wire)->AbsorbWireBatch(frame.data(), frame.size()).code(),
            StatusCode::kInvalidArgument);
  test::ExpectIdenticalSnapshots((*prefix)->Snapshot(), (*wire)->Snapshot());
}

}  // namespace
}  // namespace ldpm
