#include "core/hadamard.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "core/random.h"

namespace ldpm {
namespace {

TEST(FastWalshHadamard, MatchesDirectDefinitionSmall) {
  // Direct O(4^d) evaluation vs the fast transform, d = 4.
  Rng rng(7);
  const int d = 4;
  std::vector<double> data(1 << d);
  for (double& v : data) v = rng.UniformDouble();

  std::vector<double> direct(1 << d, 0.0);
  for (uint64_t alpha = 0; alpha < data.size(); ++alpha) {
    for (uint64_t eta = 0; eta < data.size(); ++eta) {
      direct[alpha] += HadamardSign(alpha, eta) * data[eta];
    }
  }
  std::vector<double> fast = data;
  FastWalshHadamard(fast);
  for (uint64_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(fast[i], direct[i], 1e-9);
  }
}

TEST(FastWalshHadamard, SelfInverseUpToScale) {
  Rng rng(13);
  std::vector<double> data(64);
  for (double& v : data) v = rng.UniformDouble() - 0.5;
  std::vector<double> twice = data;
  FastWalshHadamard(twice);
  FastWalshHadamard(twice);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(twice[i], 64.0 * data[i], 1e-9);
  }
}

TEST(InverseFastWalshHadamard, RoundTrip) {
  Rng rng(17);
  std::vector<double> data(128);
  for (double& v : data) v = rng.Gaussian();
  std::vector<double> round = data;
  FastWalshHadamard(round);
  InverseFastWalshHadamard(round);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(round[i], data[i], 1e-9);
  }
}

TEST(FastWalshHadamard, ParsevalHolds) {
  // sum x^2 = 2^-d * sum X^2 for the unnormalized transform.
  Rng rng(19);
  std::vector<double> data(256);
  double energy = 0.0;
  for (double& v : data) {
    v = rng.Gaussian();
    energy += v * v;
  }
  std::vector<double> spec = data;
  FastWalshHadamard(spec);
  double spectral = 0.0;
  for (double v : spec) spectral += v * v;
  EXPECT_NEAR(energy, spectral / 256.0, 1e-6 * energy);
}

TEST(FastWalshHadamardDeathTest, RejectsNonPowerOfTwo) {
  std::vector<double> bad(3, 1.0);
  EXPECT_DEATH(FastWalshHadamard(bad), "LDPM_CHECK");
}

TEST(FourierCoefficient, ConstantCoefficientIsTotal) {
  auto t = ContingencyTable::FromCells({0.1, 0.2, 0.3, 0.4});
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(FourierCoefficient(*t, 0), 1.0, 1e-12);
}

TEST(FourierCoefficient, OneHotInputIsSignedBit) {
  // For a one-hot t at index j, f_alpha = (-1)^{<alpha, j>} — the quantity
  // InpHT releases (Algorithm 1 line 4).
  const int d = 5;
  for (uint64_t j = 0; j < (1u << d); j += 7) {
    auto t = ContingencyTable::Zero(d);
    ASSERT_TRUE(t.ok());
    (*t)[j] = 1.0;
    for (uint64_t alpha = 0; alpha < (1u << d); alpha += 3) {
      EXPECT_DOUBLE_EQ(FourierCoefficient(*t, alpha), HadamardSign(alpha, j));
    }
  }
}

TEST(FourierCoefficient, MatchesFwhtOutput) {
  Rng rng(23);
  auto t = ContingencyTable::Zero(6);
  ASSERT_TRUE(t.ok());
  for (uint64_t c = 0; c < t->size(); ++c) (*t)[c] = rng.UniformDouble();
  std::vector<double> spec = t->cells();
  FastWalshHadamard(spec);
  for (uint64_t alpha = 0; alpha < t->size(); ++alpha) {
    EXPECT_NEAR(FourierCoefficient(*t, alpha), spec[alpha], 1e-9);
  }
}

TEST(FourierCoefficients, GetZeroAlwaysOne) {
  FourierCoefficients fc(4, 2);
  auto v = fc.Get(0);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 1.0);
}

TEST(FourierCoefficients, MissingCoefficientIsNotFound) {
  FourierCoefficients fc(4, 2);
  EXPECT_EQ(fc.Get(0b0011).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(fc.Contains(0b0011));
  fc.Set(0b0011, 0.5);
  EXPECT_TRUE(fc.Contains(0b0011));
  EXPECT_DOUBLE_EQ(*fc.Get(0b0011), 0.5);
}

TEST(FourierCoefficients, ReconstructRejectsMissing) {
  FourierCoefficients fc(4, 2);
  fc.Set(0b0001, 0.2);
  // beta = 0011 needs alphas 0001, 0010, 0011; only one present.
  EXPECT_EQ(fc.ReconstructMarginal(0b0011).status().code(),
            StatusCode::kNotFound);
}

// The heart of the Hadamard protocols: Lemma 3.7 reconstruction from exact
// low-order coefficients must equal the direct marginal, for every k-way
// selector, across dimensions.
class Lemma37Test : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma37Test, ReconstructionMatchesDirectMarginal) {
  const int d = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  if (k > d) GTEST_SKIP();

  Rng rng(29 + d * 8 + k);
  auto t = ContingencyTable::Zero(d);
  ASSERT_TRUE(t.ok());
  for (uint64_t c = 0; c < t->size(); ++c) (*t)[c] = rng.UniformDouble();
  ASSERT_TRUE(t->Normalize().ok());

  const FourierCoefficients fc = FourierCoefficients::FromCells(t->cells(), k);
  EXPECT_EQ(fc.size(), LowOrderCoefficientCount(d, k));

  for (uint64_t beta : KWaySelectors(d, k)) {
    auto reconstructed = fc.ReconstructMarginal(beta);
    ASSERT_TRUE(reconstructed.ok());
    auto direct = ComputeMarginal(*t, beta);
    ASSERT_TRUE(direct.ok());
    for (uint64_t i = 0; i < direct->size(); ++i) {
      EXPECT_NEAR(reconstructed->at_compact(i), direct->at_compact(i), 1e-9)
          << "d=" << d << " k=" << k << " beta=" << beta << " cell=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, Lemma37Test,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 8),
                       ::testing::Values(1, 2, 3)));

TEST(Lemma37, LowerOrderQueriesUseSubsetOfCoefficients) {
  // Coefficients sufficient for k = 2 answer 1-way queries too.
  Rng rng(31);
  auto t = ContingencyTable::Zero(6);
  ASSERT_TRUE(t.ok());
  for (uint64_t c = 0; c < t->size(); ++c) (*t)[c] = rng.UniformDouble();
  ASSERT_TRUE(t->Normalize().ok());
  const FourierCoefficients fc = FourierCoefficients::FromCells(t->cells(), 2);
  for (uint64_t beta : KWaySelectors(6, 1)) {
    auto rec = fc.ReconstructMarginal(beta);
    ASSERT_TRUE(rec.ok());
    auto direct = ComputeMarginal(*t, beta);
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(rec->TotalVariationDistance(*direct), 0.0, 1e-9);
  }
}

TEST(FourierCoefficients, ReconstructRejectsBetaOutsideDomain) {
  FourierCoefficients fc(3, 3);
  EXPECT_EQ(fc.ReconstructMarginal(1 << 4).status().code(),
            StatusCode::kOutOfRange);
}

TEST(FourierCoefficients, OrdersAboveMaxOrderAreNotFound) {
  FourierCoefficients fc(4, 2);
  ForEachLowOrderMask(4, 2, [&](uint64_t alpha) { fc.Set(alpha, 0.1); });
  EXPECT_EQ(fc.size(), LowOrderCoefficientCount(4, 2));
  EXPECT_TRUE(fc.ReconstructMarginal(0b0011).ok());
  EXPECT_FALSE(fc.Contains(0b0111));
  EXPECT_EQ(fc.Get(0b0111).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fc.ReconstructMarginal(0b0111).status().code(),
            StatusCode::kNotFound);
}

// ReconstructMarginal gathers the 2^|beta| coefficients under beta and runs
// one FWHT. Lemma 3.7's direct sum, kept here as the reference, must agree
// for every selector up to order 6 over d = 8, beta = 0 included.
TEST(FourierCoefficients, FwhtReconstructionMatchesDirectLemma37Sum) {
  const int d = 8;
  const int max_order = 6;
  Rng rng(41);
  FourierCoefficients fc(d, max_order);
  ForEachLowOrderMask(d, max_order, [&](uint64_t alpha) {
    fc.Set(alpha, 2.0 * rng.UniformDouble() - 1.0);
  });
  int selectors = 0;
  for (uint64_t beta = 0; beta < (uint64_t{1} << d); ++beta) {
    const int k = Popcount(beta);
    if (k > max_order) continue;
    ++selectors;
    auto fast = fc.ReconstructMarginal(beta);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_EQ(fast->beta(), beta);
    for (uint64_t idx = 0; idx < fast->size(); ++idx) {
      const uint64_t gamma = fast->CompactToCell(idx);
      double direct = 0.0;
      ForEachSubset(beta, [&](uint64_t alpha) {
        direct += *fc.Get(alpha) * HadamardSign(alpha, gamma);
      });
      direct /= static_cast<double>(uint64_t{1} << k);
      EXPECT_NEAR(fast->at_compact(idx), direct, 1e-14)
          << "beta=" << beta << " cell=" << idx;
    }
  }
  EXPECT_EQ(selectors, 247);  // sum_{r <= 6} C(8, r)
}

// The one-pass snapshot rebuild: every table of order 1..k in one buffer,
// each bit for bit ReconstructMarginal(beta) at MarginalCellOffset(d, beta),
// in LowOrderIndex order with no gaps. Covers the d = 12, k = 3 snapshot
// shape, k = 1 and k = d.
TEST(FourierCoefficients, ReconstructAllMarginalsIsReconstructMarginalBitwise) {
  for (const auto& [d, k] : {std::pair{12, 3}, std::pair{7, 1},
                             std::pair{5, 5}}) {
    SCOPED_TRACE("d=" + std::to_string(d) + " k=" + std::to_string(k));
    Rng rng(43 + d);
    FourierCoefficients fc(d, k);
    ForEachLowOrderMask(d, k, [&](uint64_t alpha) {
      fc.Set(alpha, 2.0 * rng.UniformDouble() - 1.0);
    });
    auto all = fc.ReconstructAllMarginals();
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    size_t offset = 0;
    ForEachLowOrderMask(d, k, [&](uint64_t beta) {
      auto table = fc.ReconstructMarginal(beta);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_EQ(MarginalCellOffset(d, beta), offset) << "beta=" << beta;
      ASSERT_LE(offset + table->size(), all->size());
      EXPECT_EQ(std::memcmp(all->data() + offset, table->values().data(),
                            table->size() * sizeof(double)),
                0)
          << "beta=" << beta;
      offset += table->size();
    });
    EXPECT_EQ(offset, all->size());
  }
}

TEST(FourierCoefficients, ReconstructAllMarginalsRejectsAnIncompleteExport) {
  const int d = 12;
  const int k = 3;
  EXPECT_EQ(FourierCoefficients(d, k).ReconstructAllMarginals().status().code(),
            StatusCode::kFailedPrecondition);
  // Every coefficient but the last of order 3.
  FourierCoefficients fc(d, k);
  const uint64_t missing = uint64_t{0b111} << (d - 3);
  ForEachLowOrderMask(d, k, [&](uint64_t alpha) {
    if (alpha != missing) fc.Set(alpha, 0.25);
  });
  EXPECT_EQ(fc.ReconstructAllMarginals().status().code(),
            StatusCode::kFailedPrecondition);
  fc.Set(missing, 0.25);
  EXPECT_TRUE(fc.ReconstructAllMarginals().ok());
}

}  // namespace
}  // namespace ldpm
