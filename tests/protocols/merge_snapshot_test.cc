// MergeFrom / Snapshot / Restore invariants for every protocol aggregator:
// merging split streams must reproduce the unsplit aggregator bitwise, and
// a snapshot restored into a fresh instance must be indistinguishable from
// the original.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crc32c.h"
#include "core/marginal.h"
#include "engine/checkpoint.h"
#include "oracle/cms.h"
#include "oracle/olh.h"
#include "protocols/factory.h"
#include "protocols/inp_es.h"
#include "test_util.h"

namespace ldpm {
namespace {

using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

class MergeSnapshotTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(MergeSnapshotTest, MergedHalvesMatchWholeStream) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto whole = CreateProtocol(kind, config);
  auto left = CreateProtocol(kind, config);
  auto right = CreateProtocol(kind, config);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());

  const std::vector<Report> reports = EncodeReportStream(**whole, 3000, 7);
  const size_t half = reports.size() / 2;
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE((*whole)->Absorb(reports[i]).ok());
    ASSERT_TRUE(((i < half ? *left : *right))->Absorb(reports[i]).ok());
  }

  ASSERT_TRUE((*left)->MergeFrom(**right).ok());
  EXPECT_EQ((*left)->reports_absorbed(), (*whole)->reports_absorbed());
  EXPECT_EQ((*left)->total_report_bits(), (*whole)->total_report_bits());
  ExpectBitwiseEqualEstimates(**whole, **left);
}

TEST_P(MergeSnapshotTest, SnapshotRoundTripsThroughFreshInstance) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto original = CreateProtocol(kind, config);
  auto restored = CreateProtocol(kind, config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(restored.ok());
  for (const Report& r : EncodeReportStream(**original, 2500, 13)) {
    ASSERT_TRUE((*original)->Absorb(r).ok());
  }

  const AggregatorSnapshot snapshot = (*original)->Snapshot();
  EXPECT_EQ(snapshot.protocol, (*original)->name());
  EXPECT_EQ(snapshot.reports_absorbed, (*original)->reports_absorbed());

  // Dirty the target first: Restore must fully overwrite, not accumulate.
  for (const Report& r : EncodeReportStream(**restored, 100, 14)) {
    ASSERT_TRUE((*restored)->Absorb(r).ok());
  }
  ASSERT_TRUE((*restored)->Restore(snapshot).ok());
  EXPECT_EQ((*restored)->reports_absorbed(), (*original)->reports_absorbed());
  EXPECT_EQ((*restored)->total_report_bits(),
            (*original)->total_report_bits());
  ExpectBitwiseEqualEstimates(**original, **restored);
}

TEST_P(MergeSnapshotTest, MergeRejectsIncompatiblePeers) {
  const ProtocolKind kind = GetParam();
  auto protocol = CreateProtocol(kind, MakeConfig(6, 2));
  ASSERT_TRUE(protocol.ok());

  // Different epsilon: state shapes match but the mechanisms differ.
  ProtocolConfig other_config = MakeConfig(6, 2);
  other_config.epsilon = 2.0;
  auto other_eps = CreateProtocol(kind, other_config);
  ASSERT_TRUE(other_eps.ok());
  EXPECT_FALSE((*protocol)->MergeFrom(**other_eps).ok());

  // Different protocol entirely.
  const ProtocolKind different = kind == ProtocolKind::kInpHT
                                     ? ProtocolKind::kInpPS
                                     : ProtocolKind::kInpHT;
  auto other_kind = CreateProtocol(different, MakeConfig(6, 2));
  ASSERT_TRUE(other_kind.ok());
  EXPECT_FALSE((*protocol)->MergeFrom(**other_kind).ok());
}

TEST_P(MergeSnapshotTest, RestoreRejectsMismatchedSnapshots) {
  const ProtocolKind kind = GetParam();
  auto protocol = CreateProtocol(kind, MakeConfig(6, 2));
  ASSERT_TRUE(protocol.ok());
  for (const Report& r : EncodeReportStream(**protocol, 500, 19)) {
    ASSERT_TRUE((*protocol)->Absorb(r).ok());
  }
  const AggregatorSnapshot before = (*protocol)->Snapshot();

  AggregatorSnapshot wrong_name = (*protocol)->Snapshot();
  wrong_name.protocol = "NotAProtocol";
  EXPECT_FALSE((*protocol)->Restore(wrong_name).ok());

  AggregatorSnapshot wrong_d = (*protocol)->Snapshot();
  wrong_d.d = 7;
  EXPECT_FALSE((*protocol)->Restore(wrong_d).ok());

  // Same state shape, different interpretation: must also be rejected.
  AggregatorSnapshot wrong_estimator = (*protocol)->Snapshot();
  wrong_estimator.estimator = EstimatorKind::kHorvitzThompson;
  EXPECT_FALSE((*protocol)->Restore(wrong_estimator).ok());

  AggregatorSnapshot truncated = (*protocol)->Snapshot();
  if (!truncated.reals.empty()) {
    truncated.reals.pop_back();
    EXPECT_FALSE((*protocol)->Restore(truncated).ok());
  }
  if (!truncated.counts.empty()) {
    truncated = (*protocol)->Snapshot();
    truncated.counts.pop_back();
    EXPECT_FALSE((*protocol)->Restore(truncated).ok());
  }

  AggregatorSnapshot long_reals = (*protocol)->Snapshot();
  long_reals.reals.push_back(0.0);
  EXPECT_FALSE((*protocol)->Restore(long_reals).ok());

  AggregatorSnapshot long_counts = (*protocol)->Snapshot();
  long_counts.counts.push_back(0);
  EXPECT_FALSE((*protocol)->Restore(long_counts).ok());

  // Failed restores must leave the aggregator untouched.
  test::ExpectIdenticalSnapshots((*protocol)->Snapshot(), before);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MergeSnapshotTest, ::testing::ValuesIn(RegisteredProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

// The serialized snapshot bytes are the checkpoint format: a fixed report
// stream, absorbed one report at a time, as one wire batch and through one
// merge, must serialize to the same bytes in every release. The constants
// are the CRC-32C of engine::SerializeSnapshot(Snapshot()) per registered
// kind, in RegisteredProtocolKinds() order.
TEST(MergeSnapshotBytes, SerializedSnapshotsArePinned) {
  struct PinnedConfig {
    ProtocolConfig config;
    std::vector<uint32_t> crcs;
  };
  std::vector<PinnedConfig> pinned(3);
  pinned[0].config = MakeConfig(6, 2);
  pinned[0].crcs = {0x60D62721, 0x0BF5AB47, 0xCE1647D5, 0xDDBF42E0,
                    0x32222BD7, 0x8DB3FDEE, 0x64B295D7, 0x9992B461};
  pinned[1].config = MakeConfig(7, 3);
  pinned[1].config.epsilon = 1.5;
  pinned[1].config.estimator = EstimatorKind::kHorvitzThompson;
  pinned[1].config.unary_variant = UnaryVariant::kVanilla;
  pinned[1].crcs = {0x21531109, 0x07329564, 0x024A66A4, 0xAF2A38F8,
                    0xB8885CD9, 0x5E0F5C03, 0xD58E22B2, 0x89F6A3D9};
  pinned[2].config = MakeConfig(8, 2);
  pinned[2].config.epsilon = 0.8;
  pinned[2].config.sample_zero_coefficient = true;
  pinned[2].crcs = {0x4AA4C332, 0xA1BB15CA, 0xA8C6FF1D, 0x27798D1C,
                    0xE40E2EF0, 0xC07873D7, 0x4D408621, 0xD15CEDAC};

  const std::vector<ProtocolKind>& kinds = RegisteredProtocolKinds();
  for (const PinnedConfig& p : pinned) {
    ASSERT_EQ(p.crcs.size(), kinds.size());
    for (size_t i = 0; i < kinds.size(); ++i) {
      auto main = CreateProtocol(kinds[i], p.config);
      auto peer = CreateProtocol(kinds[i], p.config);
      ASSERT_TRUE(main.ok()) << main.status().ToString();
      ASSERT_TRUE(peer.ok()) << peer.status().ToString();
      const std::vector<Report> reports = EncodeReportStream(**main, 1800, 23);
      const size_t third = reports.size() / 3;
      for (size_t r = 0; r < third; ++r) {
        ASSERT_TRUE((*main)->Absorb(reports[r]).ok());
      }
      const std::vector<Report> batch(reports.begin() + third,
                                      reports.begin() + 2 * third);
      auto frame = SerializeReportBatch(kinds[i], p.config, batch);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_TRUE((*main)->AbsorbWireBatch(frame->data(), frame->size()).ok());
      for (size_t r = 2 * third; r < reports.size(); ++r) {
        ASSERT_TRUE((*peer)->Absorb(reports[r]).ok());
      }
      ASSERT_TRUE((*main)->MergeFrom(**peer).ok());
      ASSERT_EQ((*main)->reports_absorbed(), reports.size());

      const std::vector<uint8_t> bytes =
          engine::SerializeSnapshot((*main)->Snapshot());
      EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), p.crcs[i])
          << ProtocolKindName(kinds[i]) << " d=" << p.config.d
          << " k=" << p.config.k << " (" << bytes.size() << " bytes)";
    }
  }
}

// Oracle-backed aggregators share the same invariants.
TEST(MergeSnapshotOracle, OlhMergeAndSnapshot) {
  const ProtocolConfig config = MakeConfig(5, 2);
  auto whole = InpOlhProtocol::Create(config);
  auto left = InpOlhProtocol::Create(config);
  auto right = InpOlhProtocol::Create(config);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  const std::vector<Report> reports = EncodeReportStream(**whole, 1200, 3);
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE((*whole)->Absorb(reports[i]).ok());
    ASSERT_TRUE(((i % 2 == 0 ? *left : *right))->Absorb(reports[i]).ok());
  }
  ASSERT_TRUE((*left)->MergeFrom(**right).ok());
  ExpectBitwiseEqualEstimates(**whole, **left);

  auto restored = InpOlhProtocol::Create(config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Restore((*whole)->Snapshot()).ok());
  ExpectBitwiseEqualEstimates(**whole, **restored);
}

TEST(MergeSnapshotOracle, CmsMergeRequiresSharedHashBank) {
  const ProtocolConfig config = MakeConfig(5, 2);
  CmsParams params;
  params.width = 64;
  auto a = InpHtCmsProtocol::Create(config, params, /*hash_seed=*/1);
  auto b = InpHtCmsProtocol::Create(config, params, /*hash_seed=*/1);
  auto alien = InpHtCmsProtocol::Create(config, params, /*hash_seed=*/2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(alien.ok());
  for (const Report& r : EncodeReportStream(**a, 800, 9)) {
    ASSERT_TRUE((*b)->Absorb(r).ok());
  }
  EXPECT_TRUE((*a)->MergeFrom(**b).ok());
  EXPECT_FALSE((*a)->MergeFrom(**alien).ok());

  auto restored = InpHtCmsProtocol::Create(config, params, /*hash_seed=*/1);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Restore((*a)->Snapshot()).ok());
  ExpectBitwiseEqualEstimates(**a, **restored);

  // A snapshot must not restore into an instance with a different hash
  // bank or sketch geometry: its sign sums would decode to garbage.
  EXPECT_FALSE((*alien)->Restore((*a)->Snapshot()).ok());
  CmsParams other_geometry;
  other_geometry.num_hashes = 10;
  other_geometry.width = 32;  // same g*w product, different shape
  auto reshaped = InpHtCmsProtocol::Create(config, other_geometry, 1);
  ASSERT_TRUE(reshaped.ok());
  EXPECT_FALSE((*reshaped)->Restore((*a)->Snapshot()).ok());
}

// InpES over a categorical domain merges the same way, and refuses peers
// whose accumulators mean something else despite equal d, k, eps and |T|.
TEST(MergeSnapshotEs, MergedHalvesMatchWholeStream) {
  ProtocolConfig config;
  config.cardinalities = {3, 4, 2};
  config.k = 2;
  config.epsilon = 1.0;
  auto whole = InpEsProtocol::Create(config);
  auto left = InpEsProtocol::Create(config);
  auto right = InpEsProtocol::Create(config);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());

  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint32_t> values;
    for (uint32_t r : config.cardinalities) {
      values.push_back(static_cast<uint32_t>(rng.UniformInt(r)));
    }
    const Report report =
        (*whole)->Encode(PackMixedRadix(values, config.cardinalities), rng);
    ASSERT_TRUE((*whole)->Absorb(report).ok());
    ASSERT_TRUE(((i % 2 == 0 ? *left : *right))->Absorb(report).ok());
  }
  ASSERT_TRUE((*left)->MergeFrom(**right).ok());
  EXPECT_EQ((*left)->reports_absorbed(), (*whole)->reports_absorbed());

  auto whole_marginal = (*whole)->EstimateCategorical({0, 1});
  auto merged_marginal = (*left)->EstimateCategorical({0, 1});
  ASSERT_TRUE(whole_marginal.ok());
  ASSERT_TRUE(merged_marginal.ok());
  for (size_t c = 0; c < whole_marginal->probabilities.size(); ++c) {
    EXPECT_EQ(whole_marginal->probabilities[c],
              merged_marginal->probabilities[c]);
  }

  const AggregatorSnapshot before = (*left)->Snapshot();
  ProtocolConfig incompatible = config;
  incompatible.epsilon = 2.0;
  auto alien = InpEsProtocol::Create(incompatible);
  ASSERT_TRUE(alien.ok());
  EXPECT_FALSE((*left)->MergeFrom(**alien).ok());

  // Same d, k, eps and |T| = 17, permuted cardinalities: the base
  // compatibility check passes, the domain comparison must not.
  ProtocolConfig permuted = config;
  permuted.cardinalities = {4, 3, 2};
  auto swapped = InpEsProtocol::Create(permuted);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ((*swapped)->coefficient_count(), (*left)->coefficient_count());
  ASSERT_TRUE((*swapped)->Absorb((*swapped)->Encode(0, rng)).ok());
  EXPECT_FALSE((*left)->MergeFrom(**swapped).ok());

  // Same domain under the Helmert basis: its sign sums release other
  // coefficient values, so it must not fold into a Fourier instance.
  auto helmert = InpEsProtocol::Create(config, BasisKind::kHelmert);
  ASSERT_TRUE(helmert.ok());
  ASSERT_TRUE((*helmert)->Absorb((*helmert)->Encode(0, rng)).ok());
  EXPECT_FALSE((*left)->MergeFrom(**helmert).ok());

  // Every refusal left the merged state untouched.
  test::ExpectIdenticalSnapshots((*left)->Snapshot(), before);
}

// A snapshot records the basis its sign sums were released under, so a
// restore across bases is refused both ways, like the merge above; within
// one basis it round-trips.
TEST(MergeSnapshotEs, RestoreRefusesTheOtherBasis) {
  ProtocolConfig config;
  config.cardinalities = {3, 4, 2};
  config.k = 2;
  config.epsilon = 1.0;
  auto fourier = InpEsProtocol::Create(config, BasisKind::kFourier);
  auto helmert = InpEsProtocol::Create(config, BasisKind::kHelmert);
  ASSERT_TRUE(fourier.ok());
  ASSERT_TRUE(helmert.ok());
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const uint64_t value = rng.UniformInt(24);
    ASSERT_TRUE((*fourier)->Absorb((*fourier)->Encode(value, rng)).ok());
    ASSERT_TRUE((*helmert)->Absorb((*helmert)->Encode(value, rng)).ok());
  }
  const AggregatorSnapshot fourier_state = (*fourier)->Snapshot();
  const AggregatorSnapshot helmert_state = (*helmert)->Snapshot();

  EXPECT_FALSE((*fourier)->Restore(helmert_state).ok());
  EXPECT_FALSE((*helmert)->Restore(fourier_state).ok());
  test::ExpectIdenticalSnapshots((*fourier)->Snapshot(), fourier_state);
  test::ExpectIdenticalSnapshots((*helmert)->Snapshot(), helmert_state);

  auto helmert_copy = InpEsProtocol::Create(config, BasisKind::kHelmert);
  ASSERT_TRUE(helmert_copy.ok());
  ASSERT_TRUE((*helmert_copy)->Restore(helmert_state).ok());
  test::ExpectIdenticalSnapshots((*helmert_copy)->Snapshot(), helmert_state);
}

}  // namespace
}  // namespace ldpm
