#include "sim/simulator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace ldpm {
namespace {

BinaryDataset MakeSource() {
  auto data = GenerateIndependent(50000, {0.3, 0.5, 0.7, 0.4, 0.6, 0.2}, 301);
  LDPM_CHECK(data.ok());
  return *std::move(data);
}

SimulationOptions MakeOptions(ProtocolKind kind, int k, double eps) {
  SimulationOptions o;
  o.kind = kind;
  o.config.k = k;
  o.config.epsilon = eps;
  o.num_users = 40000;
  o.seed = 5;
  return o;
}

TEST(RunSimulation, ValidatesInputs) {
  const BinaryDataset source = MakeSource();
  SimulationOptions o = MakeOptions(ProtocolKind::kInpHT, 2, 1.0);
  o.num_users = 0;
  EXPECT_FALSE(RunSimulation(source, o).ok());
  o = MakeOptions(ProtocolKind::kInpHT, 2, 1.0);
  o.eval_order = 5;  // > k
  EXPECT_FALSE(RunSimulation(source, o).ok());
}

TEST(RunSimulation, RunsEveryProtocol) {
  const BinaryDataset source = MakeSource();
  for (ProtocolKind kind : AllProtocolKinds()) {
    auto result = RunSimulation(source, MakeOptions(kind, 2, std::log(3.0)));
    ASSERT_TRUE(result.ok()) << ProtocolKindName(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->protocol, ProtocolKindName(kind));
    EXPECT_EQ(result->num_marginals, 15);  // C(6,2)
    EXPECT_GT(result->mean_tv, 0.0);
    EXPECT_LE(result->mean_tv, result->max_tv + 1e-12);
    EXPECT_GT(result->bits_per_user, 0.0);
  }
}

TEST(RunSimulation, DeterministicGivenSeed) {
  const BinaryDataset source = MakeSource();
  const SimulationOptions o = MakeOptions(ProtocolKind::kMargPS, 2, 1.0);
  auto a = RunSimulation(source, o);
  auto b = RunSimulation(source, o);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->mean_tv, b->mean_tv);
  EXPECT_DOUBLE_EQ(a->max_tv, b->max_tv);
}

TEST(RunSimulation, SeedChangesOutcome) {
  const BinaryDataset source = MakeSource();
  SimulationOptions o = MakeOptions(ProtocolKind::kMargPS, 2, 1.0);
  auto a = RunSimulation(source, o);
  o.seed = 6;
  auto b = RunSimulation(source, o);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->mean_tv, b->mean_tv);
}

TEST(RunSimulation, EvalOrderBelowK) {
  const BinaryDataset source = MakeSource();
  SimulationOptions o = MakeOptions(ProtocolKind::kInpHT, 2, 1.0);
  o.eval_order = 1;
  auto result = RunSimulation(source, o);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_marginals, 6);  // C(6,1)
}

TEST(RunSimulation, SlowPathAgreesWithFastPath) {
  const BinaryDataset source = MakeSource();
  SimulationOptions fast = MakeOptions(ProtocolKind::kInpRR, 2, 1.0);
  SimulationOptions slow = fast;
  slow.use_fast_path = false;
  auto a = RunSimulation(source, fast);
  auto b = RunSimulation(source, slow);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different randomness, same distribution: mean TVs must be within joint
  // noise of each other.
  EXPECT_NEAR(a->mean_tv, b->mean_tv, 0.05);
}

TEST(RunSimulation, BitsPerUserMatchTheory) {
  const BinaryDataset source = MakeSource();
  auto result = RunSimulation(source, MakeOptions(ProtocolKind::kMargHT, 2, 1.0));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->bits_per_user, 6.0 + 2.0 + 1.0);  // d + k + 1
}

// Regression for the categorical gap: RunSimulation used to run the
// binary-marginal loop even when the collection was InpES over a
// categorical domain — the estimate phase then either errored (binary
// queries over r > 2 attributes) or scored a mismatched domain. With
// cardinalities wired through SimulationOptions, the run hosts the real
// mixed-radix domain end to end and scores EstimateCategorical against
// the derived tuples' exact marginals.
TEST(RunSimulation, CategoricalInpEsRunsOnTheMixedRadixDomain) {
  const BinaryDataset source = MakeSource();
  SimulationOptions o = MakeOptions(ProtocolKind::kInpES, 2, 4.0);
  o.cardinalities = {3, 4, 2};
  auto result = RunSimulation(source, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->protocol, "InpES");
  EXPECT_EQ(result->num_marginals, 3);  // C(3,2) pairs over 3 attributes
  EXPECT_GT(result->bits_per_user, 0.0);
  // The scored error is a real total-variation distance on the
  // categorical simplex: positive (noise is live) but far from the
  // garbage a binary/categorical domain mismatch produces.
  EXPECT_GT(result->mean_tv, 0.0);
  EXPECT_LT(result->max_tv, 0.5);

  // Deterministic per seed, and the seed matters.
  auto repeat = RunSimulation(source, o);
  ASSERT_TRUE(repeat.ok());
  EXPECT_DOUBLE_EQ(repeat->mean_tv, result->mean_tv);
  o.seed = 9;
  auto reseeded = RunSimulation(source, o);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(reseeded->mean_tv, result->mean_tv);
}

TEST(RunSimulation, CardinalitiesRejectBinaryProtocols) {
  const BinaryDataset source = MakeSource();
  SimulationOptions o = MakeOptions(ProtocolKind::kInpHT, 2, 1.0);
  o.cardinalities = {3, 4, 2};
  auto result = RunSimulation(source, o);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunSimulation, TimingsPopulated) {
  const BinaryDataset source = MakeSource();
  auto result = RunSimulation(source, MakeOptions(ProtocolKind::kInpHT, 2, 1.0));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->encode_absorb_seconds, 0.0);
  EXPECT_GE(result->estimate_seconds, 0.0);
}

}  // namespace
}  // namespace ldpm
