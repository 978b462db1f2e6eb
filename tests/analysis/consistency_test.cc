#include "analysis/consistency.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "core/random.h"
#include "protocols/inp_ht.h"
#include "protocols/marg_ps.h"

namespace ldpm {
namespace {

// A random distribution over d attributes and its exact k-way marginals.
ContingencyTable RandomDistribution(int d, uint64_t seed) {
  Rng rng(seed);
  auto t = ContingencyTable::Zero(d);
  LDPM_CHECK(t.ok());
  for (uint64_t c = 0; c < t->size(); ++c) (*t)[c] = rng.UniformDouble();
  LDPM_CHECK(t->Normalize().ok());
  return *std::move(t);
}

TEST(FitSharedCoefficients, ValidatesInputs) {
  EXPECT_FALSE(FitSharedCoefficients({}, 4).ok());
  std::vector<MarginalTable> ms = {MarginalTable::Uniform(4, 0b11)};
  EXPECT_FALSE(FitSharedCoefficients(ms, 4, {1.0, 2.0}).ok());
  EXPECT_FALSE(FitSharedCoefficients(ms, 5).ok());  // dimension mismatch
  EXPECT_FALSE(FitSharedCoefficients(ms, 4, {-1.0}).ok());
}

TEST(FitSharedCoefficients, ExactMarginalsGiveExactCoefficients) {
  const ContingencyTable t = RandomDistribution(5, 31);
  std::vector<MarginalTable> marginals;
  for (uint64_t beta : KWaySelectors(5, 2)) {
    auto m = ComputeMarginal(t, beta);
    ASSERT_TRUE(m.ok());
    marginals.push_back(*std::move(m));
  }
  auto fitted = FitSharedCoefficients(marginals, 5);
  ASSERT_TRUE(fitted.ok());
  for (uint64_t alpha : LowOrderMasks(5, 2)) {
    auto f = fitted->Get(alpha);
    ASSERT_TRUE(f.ok());
    EXPECT_NEAR(*f, FourierCoefficient(t, alpha), 1e-9) << "alpha=" << alpha;
  }
}

TEST(MakeConsistent, ExactInputsAreFixedPoints) {
  const ContingencyTable t = RandomDistribution(5, 37);
  std::vector<MarginalTable> marginals;
  for (uint64_t beta : KWaySelectors(5, 2)) {
    auto m = ComputeMarginal(t, beta);
    ASSERT_TRUE(m.ok());
    marginals.push_back(*std::move(m));
  }
  auto consistent = MakeConsistent(marginals, 5);
  ASSERT_TRUE(consistent.ok());
  for (size_t i = 0; i < marginals.size(); ++i) {
    EXPECT_NEAR(marginals[i].TotalVariationDistance((*consistent)[i]), 0.0,
                1e-9);
  }
}

TEST(MakeConsistent, OutputsAgreeOnOverlaps) {
  // Noisy MargPS estimates disagree on shared attributes; the consistent
  // versions must agree exactly.
  const int d = 5;
  ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 0.8;
  auto p = MargPsProtocol::Create(config);
  ASSERT_TRUE(p.ok());
  Rng data_rng(41);
  std::vector<uint64_t> rows;
  for (int i = 0; i < 60000; ++i) rows.push_back(data_rng.UniformInt(32));
  Rng rng(42);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());

  std::vector<MarginalTable> estimates;
  std::vector<uint64_t> selectors = KWaySelectors(d, 2);
  for (uint64_t beta : selectors) {
    auto m = (*p)->EstimateMarginal(beta);
    ASSERT_TRUE(m.ok());
    estimates.push_back(*std::move(m));
  }

  // Raw MargPS estimates of {0,1} and {0,2} should disagree about attr 0.
  auto sub_a = MarginalizeTable(estimates[0], 1);  // beta 0b00011 -> attr 0
  auto sub_b = MarginalizeTable(estimates[1], 1);  // beta 0b00101 -> attr 0
  ASSERT_TRUE(sub_a.ok());
  ASSERT_TRUE(sub_b.ok());
  const double raw_gap = sub_a->TotalVariationDistance(*sub_b);
  EXPECT_GT(raw_gap, 0.0);

  auto consistent = MakeConsistent(estimates, d);
  ASSERT_TRUE(consistent.ok());
  for (size_t i = 0; i < selectors.size(); ++i) {
    for (size_t j = i + 1; j < selectors.size(); ++j) {
      const uint64_t common = selectors[i] & selectors[j];
      if (common == 0) continue;
      auto ca = MarginalizeTable((*consistent)[i], common);
      auto cb = MarginalizeTable((*consistent)[j], common);
      ASSERT_TRUE(ca.ok());
      ASSERT_TRUE(cb.ok());
      EXPECT_NEAR(ca->TotalVariationDistance(*cb), 0.0, 1e-9)
          << "selectors " << selectors[i] << " & " << selectors[j];
    }
  }
}

TEST(MakeConsistent, DoesNotHurtAccuracy) {
  // Averaging shared coefficients should help (or at least not hurt) the
  // mean error against the truth.
  const int d = 5;
  ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 1.0;
  auto p = MargPsProtocol::Create(config);
  ASSERT_TRUE(p.ok());
  Rng data_rng(51);
  std::vector<uint64_t> rows;
  for (int i = 0; i < 80000; ++i) {
    uint64_t row = data_rng.UniformInt(2);
    row |= (data_rng.Bernoulli(0.75) ? (row & 1) : data_rng.UniformInt(2)) << 1;
    row |= data_rng.UniformInt(8) << 2;
    rows.push_back(row);
  }
  Rng rng(52);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());

  std::vector<MarginalTable> estimates;
  std::vector<uint64_t> selectors = KWaySelectors(d, 2);
  for (uint64_t beta : selectors) {
    auto m = (*p)->EstimateMarginal(beta);
    ASSERT_TRUE(m.ok());
    estimates.push_back(*std::move(m));
  }
  auto consistent = MakeConsistent(estimates, d);
  ASSERT_TRUE(consistent.ok());

  double raw_tv = 0.0, consistent_tv = 0.0;
  for (size_t i = 0; i < selectors.size(); ++i) {
    auto truth = MarginalFromRows(rows, d, selectors[i]);
    ASSERT_TRUE(truth.ok());
    raw_tv += truth->TotalVariationDistance(estimates[i]);
    consistent_tv += truth->TotalVariationDistance((*consistent)[i]);
  }
  EXPECT_LE(consistent_tv, raw_tv * 1.05);
}

TEST(MakeConsistent, SingleMarginalIsAFixedPoint) {
  // One marginal, even a deliberately lopsided one, fits its own
  // coefficients exactly: the rebuild is the identity.
  MarginalTable m(4, 0b0110);
  m.at_compact(0) = 0.55;
  m.at_compact(1) = 0.05;
  m.at_compact(2) = 0.30;
  m.at_compact(3) = 0.10;
  auto consistent = MakeConsistent({m}, 4);
  ASSERT_TRUE(consistent.ok());
  ASSERT_EQ(consistent->size(), 1u);
  for (uint64_t cell = 0; cell < m.size(); ++cell) {
    EXPECT_NEAR((*consistent)[0].at_compact(cell), m.at_compact(cell), 1e-12);
  }
}

TEST(MakeConsistent, EmptyWeightsAndReportCountWeightsDisagree) {
  // Two estimates of the same 1-way marginal from unequal report counts:
  // the equal-weight fit (empty weights) lands midway, the count-weighted
  // fit lands at the counts' weighted mean — distinct outputs, so a
  // caller choosing one over the other is making a real decision.
  MarginalTable light(3, 0b001), heavy(3, 0b001);
  light.at_compact(0) = 0.9;
  light.at_compact(1) = 0.1;  // 1k reports said P[a0=1] = 0.1
  heavy.at_compact(0) = 0.5;
  heavy.at_compact(1) = 0.5;  // 9k reports said P[a0=1] = 0.5
  const std::vector<MarginalTable> inputs = {light, heavy};

  auto equal = MakeConsistent(inputs, 3);
  auto counted = MakeConsistent(inputs, 3, {1000.0, 9000.0});
  ASSERT_TRUE(equal.ok());
  ASSERT_TRUE(counted.ok());
  EXPECT_NEAR((*equal)[0].at_compact(1), 0.3, 1e-9);  // (0.1 + 0.5) / 2
  EXPECT_NEAR((*counted)[0].at_compact(1), 0.46, 1e-9);  // 0.1·0.1 + 0.9·0.5
  EXPECT_GT(std::abs((*equal)[0].at_compact(1) - (*counted)[0].at_compact(1)),
            0.1);
  // Each fit is still internally consistent: both inputs rebuilt equal.
  EXPECT_NEAR((*equal)[0].TotalVariationDistance((*equal)[1]), 0.0, 1e-12);
  EXPECT_NEAR((*counted)[0].TotalVariationDistance((*counted)[1]), 0.0,
              1e-12);
}

TEST(MakeConsistent, InpHtEstimatesPassThroughUnchanged) {
  // The header's documented invariant: InpHT already reconstructs every
  // marginal from one shared per-coefficient estimate, so its estimate
  // set is a fixed point of the consistency fit.
  const int d = 5;
  ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 1.0;
  auto p = InpHtProtocol::Create(config);
  ASSERT_TRUE(p.ok());
  Rng data_rng(61);
  std::vector<uint64_t> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(data_rng() & 0x1F);
  }
  Rng rng(62);
  ASSERT_TRUE((*p)->AbsorbPopulation(rows, rng).ok());

  std::vector<MarginalTable> estimates;
  const std::vector<uint64_t> selectors = FullKWaySelectors(d, 2);
  for (uint64_t beta : selectors) {
    auto m = (*p)->EstimateMarginal(beta);
    ASSERT_TRUE(m.ok());
    estimates.push_back(*std::move(m));
  }
  auto consistent = MakeConsistent(estimates, d);
  ASSERT_TRUE(consistent.ok());
  for (size_t i = 0; i < estimates.size(); ++i) {
    for (uint64_t cell = 0; cell < estimates[i].size(); ++cell) {
      EXPECT_NEAR((*consistent)[i].at_compact(cell),
                  estimates[i].at_compact(cell), 1e-9)
          << "beta=" << selectors[i] << " cell=" << cell;
    }
  }
}

TEST(MakeConsistent, WeightsShiftTheFit) {
  // Two conflicting 1-way estimates: weights decide the blend.
  MarginalTable a(3, 0b001), b(3, 0b001);
  a.at_compact(0) = 1.0;  // says attr0 = 0 always
  b.at_compact(1) = 1.0;  // says attr0 = 1 always
  auto blended = MakeConsistent({a, b}, 3, {3.0, 1.0});
  ASSERT_TRUE(blended.ok());
  EXPECT_NEAR((*blended)[0].at_compact(0), 0.75, 1e-9);
  EXPECT_NEAR((*blended)[0].at_compact(1), 0.25, 1e-9);
  // Both outputs identical (same selector, shared fit).
  EXPECT_NEAR((*blended)[1].at_compact(0), 0.75, 1e-9);
}

// MakeConsistent fits only the coefficients under its inputs, yet rebuilds
// exactly what FitSharedCoefficients + ReconstructMarginal give, bit for
// bit: a partial selector set of mixed orders with unequal weights.
TEST(MakeConsistent, MatchesTheDenseFitBitwise) {
  const int d = 9;
  const ContingencyTable t = RandomDistribution(d, 43);
  const std::vector<uint64_t> selectors = {0b000000111, 0b000001100,
                                           0b110000000, 0b000000001,
                                           0b011110000};
  const std::vector<double> weights = {1.0, 2.5, 0.5, 3.0, 1.5};
  Rng rng(44);
  std::vector<MarginalTable> noisy;
  for (uint64_t beta : selectors) {
    auto m = ComputeMarginal(t, beta);
    ASSERT_TRUE(m.ok());
    for (double& v : m->values()) v += 0.02 * (rng.UniformDouble() - 0.5);
    noisy.push_back(*std::move(m));
  }
  auto consistent = MakeConsistent(noisy, d, weights);
  auto fitted = FitSharedCoefficients(noisy, d, weights);
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  for (size_t i = 0; i < selectors.size(); ++i) {
    auto rebuilt = fitted->ReconstructMarginal(selectors[i]);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ((*consistent)[i].values(), rebuilt->values())
        << "beta=" << selectors[i];
  }
}

// The fit follows the inputs, not the domain: one 5-way table on the top
// attributes of the widest domain (every alpha up to order 5 would be
// about 7e6 coefficients) is rebuilt as itself.
TEST(MakeConsistent, WideDomainTableIsAFixedPoint) {
  const int d = kMaxDimensions;
  const uint64_t beta = uint64_t{0b11111} << (d - 5);
  MarginalTable m(d, beta);
  Rng rng(45);
  double total = 0.0;
  for (double& v : m.values()) total += (v = rng.UniformDouble());
  for (double& v : m.values()) v /= total;
  auto consistent = MakeConsistent({m}, d);
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  for (uint64_t cell = 0; cell < m.size(); ++cell) {
    EXPECT_NEAR((*consistent)[0].at_compact(cell), m.at_compact(cell), 1e-12);
  }
}

// An alpha only zero-weight inputs cover has no vote: the fit cannot
// rebuild that input, as before.
TEST(MakeConsistent, CoefficientWithOnlyZeroWeightVotesIsNotFound) {
  const std::vector<MarginalTable> inputs = {MarginalTable::Uniform(4, 0b0011),
                                             MarginalTable::Uniform(4, 0b0001)};
  EXPECT_EQ(MakeConsistent(inputs, 4, {0.0, 1.0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(MakeConsistent(inputs, 4, {1.0, 0.0}).ok());
}

}  // namespace
}  // namespace ldpm
