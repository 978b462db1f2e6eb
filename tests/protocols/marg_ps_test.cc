#include "protocols/marg_ps.h"

#include <cmath>

#include <gtest/gtest.h>

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

TEST(MargPs, MechanismRunsOverMarginalCells) {
  auto p = MargPsProtocol::Create(Config(8, 3, 1.0));
  ASSERT_TRUE(p.ok());
  // PS over 2^k = 8 cells: ps = e^eps/(e^eps + 7).
  EXPECT_EQ((*p)->mechanism().domain_size(), 8u);
  EXPECT_NEAR((*p)->mechanism().ps(),
              std::exp(1.0) / (std::exp(1.0) + 7.0), 1e-12);
}

TEST(MargPs, ReportBitsAreDPlusK) {
  auto p = MargPsProtocol::Create(Config(8, 3, 1.0));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->TheoreticalBitsPerUser(), 11.0);  // d + k, Table 2
  Rng rng(111);
  const Report r = (*p)->Encode(7, rng);
  EXPECT_EQ(r.bits, 11.0);
  EXPECT_LT(r.value, 8u);
}

TEST(MargPs, AbsorbRejectsMalformedReports) {
  auto p = MargPsProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Report bad;
  bad.selector = 0b1;  // 1-way selector, not a 2-way marginal
  bad.value = 0;
  EXPECT_EQ((*p)->Absorb(bad).code(), StatusCode::kInvalidArgument);
  Report bad_cell;
  bad_cell.selector = 0b11;
  bad_cell.value = 4;
  EXPECT_EQ((*p)->Absorb(bad_cell).code(), StatusCode::kInvalidArgument);
}

TEST(MargPs, RecoversKWayMarginals) {
  const int d = 6;
  auto p = MargPsProtocol::Create(Config(d, 2, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 200000, 113);
  test::RunPerUser(**p, rows, 114);
  for (uint64_t beta : KWaySelectors(d, 2)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.1);
  }
}

TEST(MargPs, RecoversThreeWayMarginals) {
  const int d = 5;
  auto p = MargPsProtocol::Create(Config(d, 3, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 250000, 115);
  test::RunPerUser(**p, rows, 116);
  for (uint64_t beta : KWaySelectors(d, 3)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.12);
  }
}

TEST(MargPs, LowerOrderPooling) {
  const int d = 6;
  auto p = MargPsProtocol::Create(Config(d, 2, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 150000, 117);
  test::RunPerUser(**p, rows, 118);
  for (uint64_t beta : KWaySelectors(d, 1)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.08);
  }
}

TEST(MargPs, EstimateBeforeAbsorbFails) {
  auto p = MargPsProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->EstimateMarginal(0b0011).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MargPs, HorvitzThompsonEstimator) {
  ProtocolConfig c = Config(5, 2, std::log(3.0));
  c.estimator = EstimatorKind::kHorvitzThompson;
  auto p = MargPsProtocol::Create(c);
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(5, 150000, 119);
  test::RunPerUser(**p, rows, 120);
  test::ExpectEstimateClose(**p, rows, 5, 0b00101, 0.1);
}

TEST(MargPs, ResetClearsState) {
  auto p = MargPsProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 500, 123);
  test::RunPerUser(**p, rows, 124);
  (*p)->Reset();
  EXPECT_EQ((*p)->reports_absorbed(), 0u);
  EXPECT_FALSE((*p)->EstimateMarginal(0b0011).ok());
}

}  // namespace
}  // namespace ldpm
