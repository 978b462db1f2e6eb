// Cross-protocol property sweeps (TEST_P): every protocol built through the
// factory must (a) recover marginals within a sane tolerance at moderate N,
// (b) report exactly its Table 2 communication cost, and (c) behave
// identically when re-run with the same seed.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "protocols/factory.h"
#include "test_util.h"

namespace ldpm {
namespace {

using PropertyParam = std::tuple<ProtocolKind, int /*d*/, int /*k*/>;

class ProtocolPropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  ProtocolConfig MakeConfig() const {
    ProtocolConfig c;
    c.d = std::get<1>(GetParam());
    c.k = std::get<2>(GetParam());
    c.epsilon = std::log(3.0);
    return c;
  }
  ProtocolKind Kind() const { return std::get<0>(GetParam()); }
};

TEST_P(ProtocolPropertyTest, RecoversMarginalsAtModerateN) {
  const ProtocolConfig config = MakeConfig();
  auto p = CreateProtocol(Kind(), config);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const auto rows = test::SkewedRows(config.d, 120000, 7u * config.d + config.k);
  Rng rng(1000 + config.d);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());

  // InpEM is a biased heuristic; give it a looser budget.
  const double tolerance = Kind() == ProtocolKind::kInpEM ? 0.25 : 0.12;
  double mean_tv = 0.0;
  int count = 0;
  for (uint64_t beta : KWaySelectors(config.d, config.k)) {
    auto est = (*p)->EstimateMarginal(beta);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    mean_tv += test::ExactMarginal(rows, config.d, beta)
                   .TotalVariationDistance(*est);
    ++count;
  }
  mean_tv /= count;
  EXPECT_LE(mean_tv, tolerance)
      << ProtocolKindName(Kind()) << " d=" << config.d << " k=" << config.k;
}

TEST_P(ProtocolPropertyTest, MeasuredBitsEqualTheoretical) {
  const ProtocolConfig config = MakeConfig();
  auto p = CreateProtocol(Kind(), config);
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(config.d, 200, 3);
  test::RunPerUser(**p, rows, 4);
  EXPECT_DOUBLE_EQ((*p)->total_report_bits() / 200.0,
                   (*p)->TheoreticalBitsPerUser());
}

TEST_P(ProtocolPropertyTest, DeterministicUnderFixedSeed) {
  const ProtocolConfig config = MakeConfig();
  auto a = CreateProtocol(Kind(), config);
  auto b = CreateProtocol(Kind(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto rows = test::SkewedRows(config.d, 20000, 5);
  Rng rng_a(42), rng_b(42);
  ASSERT_TRUE((*a)->AbsorbPopulation(rows, rng_a).ok());
  ASSERT_TRUE((*b)->AbsorbPopulation(rows, rng_b).ok());
  const uint64_t beta = KWaySelectors(config.d, config.k).front();
  auto ma = (*a)->EstimateMarginal(beta);
  auto mb = (*b)->EstimateMarginal(beta);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  for (uint64_t i = 0; i < ma->size(); ++i) {
    EXPECT_DOUBLE_EQ(ma->at_compact(i), mb->at_compact(i));
  }
}

TEST_P(ProtocolPropertyTest, SubMarginalConsistentWithDirectQuery) {
  // A 1-way marginal asked directly vs derived by marginalizing the k-way
  // estimate of a superset must roughly agree (both estimate the truth).
  const ProtocolConfig config = MakeConfig();
  if (config.k < 2) GTEST_SKIP();
  auto p = CreateProtocol(Kind(), config);
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(config.d, 150000, 6);
  Rng rng(7);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());

  const uint64_t sub = 1;  // attribute 0
  auto direct = (*p)->EstimateMarginal(sub);
  ASSERT_TRUE(direct.ok());
  const uint64_t super = KWaySelectors(config.d, config.k).front();
  ASSERT_TRUE(IsSubset(sub, super));
  auto super_est = (*p)->EstimateMarginal(super);
  ASSERT_TRUE(super_est.ok());
  auto derived = MarginalizeTable(*super_est, sub);
  ASSERT_TRUE(derived.ok());
  EXPECT_LE(direct->TotalVariationDistance(*derived), 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsGrid, ProtocolPropertyTest,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kInpRR, ProtocolKind::kInpPS,
                          ProtocolKind::kInpHT, ProtocolKind::kMargRR,
                          ProtocolKind::kMargPS, ProtocolKind::kMargHT,
                          ProtocolKind::kInpEM),
        ::testing::Values(4, 6),
        ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return std::string(ProtocolKindName(std::get<0>(info.param))) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// The coefficient export (MarginalProtocol::EstimateCoefficients) of every
// registered kind: overrides (InpRR: one FWHT of the unbiased 2^d
// estimate; InpHT: the unbiased coefficients) must match the default,
// which fits the coefficients back out of EstimateMarginal's tables, at
// every order m in [1, k]; the argument and state checks hold for all.
class CoefficientExportTest : public ::testing::TestWithParam<PropertyParam> {
};

TEST_P(CoefficientExportTest, MatchesTheDefaultFitAtEveryOrder) {
  const auto [kind, d, k] = GetParam();
  ProtocolConfig config;
  config.d = d;
  config.k = k;
  config.epsilon = std::log(3.0);
  auto p = CreateProtocol(kind, config);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const MarginalProtocol& protocol = **p;

  for (int m = 1; m <= k; ++m) {
    EXPECT_EQ(protocol.EstimateCoefficients(m).status().code(),
              StatusCode::kFailedPrecondition)
        << "m=" << m;
  }
  const auto rows = test::SkewedRows(d, 20000, 13u * d + k);
  Rng rng(2000 + d);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());
  for (int m : {-1, 0, k + 1}) {
    EXPECT_EQ(protocol.EstimateCoefficients(m).status().code(),
              StatusCode::kInvalidArgument)
        << "m=" << m;
  }

  for (int m = 1; m <= k; ++m) {
    auto exported = protocol.EstimateCoefficients(m);
    auto fitted = protocol.MarginalProtocol::EstimateCoefficients(m);
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    EXPECT_EQ(exported->dimensions(), d);
    EXPECT_EQ(exported->max_order(), m);
    EXPECT_EQ(exported->size(), LowOrderCoefficientCount(d, m));
    EXPECT_EQ(fitted->size(), LowOrderCoefficientCount(d, m));
    ForEachLowOrderMask(d, m, [&](uint64_t alpha) {
      EXPECT_NEAR(*exported->Get(alpha), *fitted->Get(alpha), 1e-12)
          << "m=" << m << " alpha=" << alpha;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    RegisteredKinds, CoefficientExportTest,
    ::testing::Combine(::testing::ValuesIn(RegisteredProtocolKinds()),
                       ::testing::Values(4, 6), ::testing::Values(1, 3)),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return std::string(ProtocolKindName(std::get<0>(info.param))) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace ldpm
