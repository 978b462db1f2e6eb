#include "protocols/inp_ht.h"

#include <cmath>
#include <map>
#include <utility>

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

TEST(InpHt, CoefficientSetMatchesTheory) {
  auto p = InpHtProtocol::Create(Config(8, 2, 1.0));
  ASSERT_TRUE(p.ok());
  // |T| = C(8,1) + C(8,2) = 8 + 28 = 36.
  EXPECT_EQ((*p)->coefficient_indices().size(), 36u);
  for (uint64_t alpha : (*p)->coefficient_indices()) {
    EXPECT_GE(Popcount(alpha), 1);
    EXPECT_LE(Popcount(alpha), 2);
  }
}

TEST(InpHt, ReportBitsAreDPlusOne) {
  auto p = InpHtProtocol::Create(Config(10, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Rng rng(61);
  const Report r = (*p)->Encode(5, rng);
  EXPECT_EQ(r.bits, 11.0);  // d + 1, Table 2
  EXPECT_TRUE(r.sign == 1 || r.sign == -1);
  EXPECT_TRUE((*p)->coefficient_indices().end() !=
              std::find((*p)->coefficient_indices().begin(),
                        (*p)->coefficient_indices().end(), r.selector));
}

TEST(InpHt, AbsorbRejectsUnknownCoefficient) {
  auto p = InpHtProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Report bad;
  bad.selector = 0b111;  // popcount 3 > k
  bad.sign = 1;
  EXPECT_EQ((*p)->Absorb(bad).code(), StatusCode::kInvalidArgument);
  Report bad_sign;
  bad_sign.selector = 0b11;
  bad_sign.sign = 0;
  EXPECT_EQ((*p)->Absorb(bad_sign).code(), StatusCode::kInvalidArgument);
}

TEST(InpHt, QueryAboveKRejected) {
  auto p = InpHtProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(6, 1000, 63);
  test::RunPerUser(**p, rows, 64);
  EXPECT_EQ((*p)->EstimateMarginal(0b000111).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InpHt, RecoversMarginals) {
  const int d = 8;
  auto p = InpHtProtocol::Create(Config(d, 2, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 150000, 65);
  test::RunPerUser(**p, rows, 66);
  for (uint64_t beta : KWaySelectors(d, 2)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.08);
  }
}

TEST(InpHt, LowerOrderQueriesShareCoefficients) {
  const int d = 8;
  auto p = InpHtProtocol::Create(Config(d, 3, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 150000, 67);
  test::RunPerUser(**p, rows, 68);
  for (uint64_t beta : KWaySelectors(d, 1)) {
    test::ExpectEstimateClose(**p, rows, d, beta, 0.08);
  }
}

TEST(InpHt, EstimatedCoefficientsNearTruth) {
  const int d = 5;
  auto p = InpHtProtocol::Create(Config(d, 2, std::log(3.0)));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 200000, 69);
  test::RunPerUser(**p, rows, 70);
  auto fc = (*p)->EstimateCoefficients(2);
  ASSERT_TRUE(fc.ok());

  // Exact coefficients from the population histogram.
  auto hist = ContingencyTable::Zero(d);
  ASSERT_TRUE(hist.ok());
  for (uint64_t r : rows) hist->Add(r, 1.0 / rows.size());
  for (uint64_t alpha : (*p)->coefficient_indices()) {
    auto est = fc->Get(alpha);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(*est, FourierCoefficient(*hist, alpha), 0.12)
        << "alpha=" << alpha;
  }
}

TEST(InpHt, HorvitzThompsonEstimatorAlsoUnbiased) {
  ProtocolConfig c = Config(6, 2, std::log(3.0));
  c.estimator = EstimatorKind::kHorvitzThompson;
  auto p = InpHtProtocol::Create(c);
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(6, 150000, 71);
  test::RunPerUser(**p, rows, 72);
  test::ExpectEstimateClose(**p, rows, 6, 0b000011, 0.08);
}

TEST(InpHt, RatioEstimatorHandlesEmptyCoefficients) {
  // With only a few users some coefficients get zero reports; estimation
  // must still succeed (estimate 0 for those).
  auto p = InpHtProtocol::Create(Config(8, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(8, 5, 73);
  test::RunPerUser(**p, rows, 74);
  EXPECT_TRUE((*p)->EstimateMarginal(0b11).ok());
}

TEST(InpHt, ErrorShrinksWithPopulation) {
  const int d = 6;
  auto tv_at = [&](size_t n) {
    auto p = InpHtProtocol::Create(Config(d, 2, 1.0));
    EXPECT_TRUE(p.ok());
    const auto rows = test::SkewedRows(d, n, 75);
    test::RunPerUser(**p, rows, 76);
    double total = 0.0;
    int count = 0;
    for (uint64_t beta : KWaySelectors(d, 2)) {
      auto est = (*p)->EstimateMarginal(beta);
      EXPECT_TRUE(est.ok());
      total += test::ExactMarginal(rows, d, beta).TotalVariationDistance(*est);
      ++count;
    }
    return total / count;
  };
  // Quadrupling N should roughly halve the error; require at least a 1.5x
  // improvement to keep the test robust to noise.
  EXPECT_GT(tv_at(8000), 1.5 * tv_at(128000));
}

TEST(InpHt, ZeroCoefficientNeverSampled) {
  auto p = InpHtProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_NE((*p)->Encode(0, rng).selector, 0u);
  }
}

TEST(InpHt, EstimateMarginalMatchesFullCoefficientReconstruction) {
  // EstimateMarginal unbiases only the coefficients under beta; it must
  // equal reconstructing from the whole estimated set, bit for bit. The
  // small population leaves some coefficients without reports.
  const int d = 8;
  const int k = 3;
  for (const EstimatorKind estimator :
       {EstimatorKind::kRatio, EstimatorKind::kHorvitzThompson}) {
    for (const size_t users : {size_t{200}, size_t{20000}}) {
      ProtocolConfig c = Config(d, k, 1.0);
      c.estimator = estimator;
      auto p = InpHtProtocol::Create(c);
      ASSERT_TRUE(p.ok());
      const std::vector<Report> reports =
          test::EncodeReportStream(**p, users, 71);
      std::map<uint64_t, std::pair<double, uint64_t>> tally;
      for (const Report& r : reports) {
        ASSERT_TRUE((*p)->Absorb(r).ok());
        tally[r.selector].first += r.sign;
        tally[r.selector].second += 1;
      }
      auto fc = (*p)->EstimateCoefficients(k);
      ASSERT_TRUE(fc.ok());
      ASSERT_EQ(fc->size(), (*p)->coefficient_indices().size());
      // Algorithm 2's per-coefficient arithmetic, pinned bit for bit.
      const double t_size =
          static_cast<double>((*p)->coefficient_indices().size());
      for (uint64_t alpha : (*p)->coefficient_indices()) {
        const auto [sum, count] = tally[alpha];
        double raw_mean = 0.0;
        if (estimator == EstimatorKind::kRatio) {
          raw_mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
        } else {
          raw_mean = sum / (static_cast<double>(users) / t_size);
        }
        ASSERT_EQ(*fc->Get(alpha), (*p)->mechanism().UnbiasSignMean(raw_mean))
            << "alpha=" << alpha;
      }
      for (uint64_t beta : test::AllQueries(d, k)) {
        auto expected = fc->ReconstructMarginal(beta);
        ASSERT_TRUE(expected.ok());
        auto actual = (*p)->EstimateMarginal(beta);
        ASSERT_TRUE(actual.ok());
        ASSERT_EQ(actual->values(), expected->values())
            << "beta=" << beta << " estimator="
            << static_cast<int>(estimator) << " users=" << users;
      }
    }
  }
}

TEST(InpHt, ResetClearsState) {
  auto p = InpHtProtocol::Create(Config(5, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(5, 1000, 79);
  test::RunPerUser(**p, rows, 80);
  (*p)->Reset();
  EXPECT_EQ((*p)->reports_absorbed(), 0u);
  EXPECT_EQ((*p)->EstimateCoefficients(2).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*p)->EstimateMarginal(0b11).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InpHt, LargeDimensionStillCheap) {
  // d = 20, k = 2: |T| = 210, far below the 2^20 cells InpRR would need.
  auto p = InpHtProtocol::Create(Config(20, 2, 1.0));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->coefficient_indices().size(), 20u + 190u);
  const auto rows = test::SkewedRows(20, 50000, 81);
  test::RunPerUser(**p, rows, 82);
  test::ExpectEstimateClose(**p, rows, 20, 0b11, 0.15);
}

}  // namespace
}  // namespace ldpm
