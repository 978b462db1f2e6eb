// InpES tests: construction by name and its refusals, coefficient-count
// arithmetic vs. the enumerated set, categorical accuracy through
// EstimateCategorical, the binary MarginalTable surface, the wire record,
// and the cardinality-guarded snapshot.

#include "protocols/inp_es.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "protocols/factory.h"
#include "protocols/inp_ht.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using test::MakeConfig;

ProtocolConfig Config(std::vector<uint32_t> cards, int k, double eps = 1.0) {
  ProtocolConfig c;
  c.cardinalities = std::move(cards);
  c.k = k;
  c.epsilon = eps;
  return c;
}

std::unique_ptr<InpEsProtocol> Create(std::vector<uint32_t> cards, int k,
                                      double eps = 1.0) {
  auto p = InpEsProtocol::Create(Config(std::move(cards), k, eps));
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return p.ok() ? *std::move(p) : nullptr;
}

// Categorical rows with a planted association between attributes 0 and 1.
std::vector<std::vector<uint32_t>> CorrelatedRows(
    const std::vector<uint32_t>& cards, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> row(cards.size());
    row[0] = static_cast<uint32_t>(rng.UniformInt(cards[0]));
    for (size_t a = 1; a < cards.size(); ++a) {
      if (a == 1 && rng.Bernoulli(0.6)) {
        row[1] = row[0] % cards[1];
      } else {
        row[a] = static_cast<uint32_t>(rng.UniformInt(cards[a]));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Encodes and absorbs every row through its mixed-radix user value.
void AbsorbRows(InpEsProtocol& protocol,
                const std::vector<std::vector<uint32_t>>& rows,
                uint64_t seed) {
  std::vector<uint64_t> packed;
  packed.reserve(rows.size());
  for (const auto& row : rows) {
    packed.push_back(PackMixedRadix(row, protocol.cardinalities()));
  }
  Rng rng(seed);
  ASSERT_TRUE(protocol.AbsorbPopulation(packed, rng).ok());
}

// Exact categorical marginal of rows over `attrs` (attrs[0] fastest digit).
std::vector<double> ExactCategorical(
    const std::vector<std::vector<uint32_t>>& rows,
    const std::vector<uint32_t>& cards, const std::vector<int>& attrs) {
  uint64_t cells = 1;
  for (int a : attrs) cells *= cards[a];
  std::vector<double> out(cells, 0.0);
  for (const auto& row : rows) {
    uint64_t idx = 0, radix = 1;
    for (int a : attrs) {
      idx += row[a] * radix;
      radix *= cards[a];
    }
    out[idx] += 1.0 / static_cast<double>(rows.size());
  }
  return out;
}

TEST(InpEs, CreateValidates) {
  EXPECT_FALSE(InpEsProtocol::Create(Config({}, 2)).ok());
  EXPECT_FALSE(InpEsProtocol::Create(Config({3, 4}, 3)).ok());
  EXPECT_FALSE(InpEsProtocol::Create(Config({3, 4}, 2, 0.0)).ok());
  EXPECT_FALSE(InpEsProtocol::Create(Config({1, 4}, 1)).ok());
  EXPECT_TRUE(InpEsProtocol::Create(Config({3, 4, 2}, 2)).ok());
  // |T| = 3 * 4095 + 3 * 4095^2 + 4095^3 is far above the 2^24 sampling
  // cap: refused from the closed-form count, before any enumeration.
  auto oversized =
      CreateProtocol(ProtocolKind::kInpES, Config({4096, 4096, 4096}, 3));
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
}

TEST(InpEs, CoefficientCountMatchesFormula) {
  // |T| = sum over subsets S, 1 <= |S| <= k, of prod (r_i - 1).
  auto p = Create({3, 4, 2}, 2);
  ASSERT_NE(p, nullptr);
  // singles: 2 + 3 + 1 = 6; pairs: 2*3 + 2*1 + 3*1 = 11. Total 17.
  EXPECT_EQ(p->coefficient_count(), 17u);
}

TEST(InpEs, BinaryDomainCoefficientCountMatchesInpHt) {
  // All r = 2: |T| = C(d,1) + C(d,2), the Hadamard count.
  auto p = Create({2, 2, 2, 2, 2, 2}, 2);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->coefficient_count(), LowOrderCoefficientCount(6, 2));
}

TEST(InpEs, AbsorbValidatesReports) {
  auto p = Create({3, 4}, 2);
  ASSERT_NE(p, nullptr);
  Report bad_coeff;
  bad_coeff.value = 10000;
  bad_coeff.sign = 1;
  EXPECT_FALSE(p->Absorb(bad_coeff).ok());
  Report bad_sign;
  bad_sign.value = 0;
  bad_sign.sign = 0;
  EXPECT_FALSE(p->Absorb(bad_sign).ok());
  EXPECT_EQ(p->reports_absorbed(), 0u);
}

TEST(InpEs, RecoversCategoricalMarginals) {
  const std::vector<uint32_t> cards = {3, 4, 2, 3};
  auto p = Create(cards, 2, std::log(3.0));
  ASSERT_NE(p, nullptr);
  const auto rows = CorrelatedRows(cards, 200000, 11);
  AbsorbRows(*p, rows, 12);

  const std::vector<int> attrs = {0, 1};
  auto estimate = p->EstimateCategorical(attrs);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  const auto exact = ExactCategorical(rows, cards, attrs);
  ASSERT_EQ(estimate->probabilities.size(), exact.size());
  double l1 = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    l1 += std::fabs(estimate->probabilities[i] - exact[i]);
  }
  EXPECT_LT(l1 / 2.0, 0.09);
}

TEST(InpEs, OneWayMarginalsAccurate) {
  const std::vector<uint32_t> cards = {5, 3, 4};
  auto p = Create(cards, 2, std::log(3.0));
  ASSERT_NE(p, nullptr);
  const auto rows = CorrelatedRows(cards, 150000, 13);
  AbsorbRows(*p, rows, 14);
  for (int a = 0; a < 3; ++a) {
    auto estimate = p->EstimateCategorical({a});
    ASSERT_TRUE(estimate.ok());
    const auto exact = ExactCategorical(rows, cards, {a});
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(estimate->probabilities[i], exact[i], 0.06)
          << "attr " << a << " cell " << i;
    }
  }
}

TEST(InpEs, EstimateValidatesQueries) {
  auto p = Create({3, 4, 2}, 2);
  ASSERT_NE(p, nullptr);
  AbsorbRows(*p, CorrelatedRows({3, 4, 2}, 100, 15), 16);
  EXPECT_FALSE(p->EstimateCategorical({}).ok());
  EXPECT_FALSE(p->EstimateCategorical({0, 1, 2}).ok());  // order > k
  EXPECT_FALSE(p->EstimateCategorical({0, 0}).ok());
  EXPECT_FALSE(p->EstimateCategorical({5}).ok());
}

TEST(InpEs, EstimateBeforeAbsorbFails) {
  auto p = Create({3, 3}, 2);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->EstimateCategorical({0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InpEs, MarginalSumsToApproximatelyOne) {
  const std::vector<uint32_t> cards = {4, 3};
  auto p = Create(cards, 2);
  ASSERT_NE(p, nullptr);
  AbsorbRows(*p, CorrelatedRows(cards, 50000, 17), 18);
  auto estimate = p->EstimateCategorical({0, 1});
  ASSERT_TRUE(estimate.ok());
  double total = 0.0;
  for (double v : estimate->probabilities) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);  // f_empty = 1 preserves mass exactly
}

TEST(InpEs, MatchesInpHtOnBinaryDomains) {
  // The conjecture's sanity anchor: with every r = 2, InpES and InpHT are
  // the same algorithm (same coefficient set, same channel); estimates
  // agree statistically. On binary domains the mixed-radix user value is
  // the bit packing, so both absorb the same rows.
  const int d = 6;
  Rng data_rng(19);
  std::vector<uint64_t> packed;
  for (int i = 0; i < 150000; ++i) {
    uint64_t row = 0;
    for (int b = 0; b < d; ++b) {
      if (data_rng.Bernoulli(0.25 + 0.08 * b)) row |= uint64_t{1} << b;
    }
    packed.push_back(row);
  }

  auto es = Create(std::vector<uint32_t>(d, 2u), 2, std::log(3.0));
  ASSERT_NE(es, nullptr);
  Rng rng_es(20);
  ASSERT_TRUE(es->AbsorbPopulation(packed, rng_es).ok());

  ProtocolConfig ht_config;
  ht_config.d = d;
  ht_config.k = 2;
  ht_config.epsilon = std::log(3.0);
  auto ht = InpHtProtocol::Create(ht_config);
  ASSERT_TRUE(ht.ok());
  Rng rng_ht(21);
  ASSERT_TRUE((*ht)->AbsorbPopulation(packed, rng_ht).ok());

  // Compare the {0,1} pair marginal cellwise.
  auto es_m = es->EstimateCategorical({0, 1});
  auto ht_m = (*ht)->EstimateMarginal(0b11);
  ASSERT_TRUE(es_m.ok());
  ASSERT_TRUE(ht_m.ok());
  // CategoricalMarginal: attrs[0] fastest; compact binary: bit0 = attr 0.
  for (uint32_t b = 0; b < 2; ++b) {
    for (uint32_t a = 0; a < 2; ++a) {
      EXPECT_NEAR(es_m->probabilities[a + 2 * b],
                  ht_m->at_compact(a | (b << 1)), 0.05)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(InpEs, ResetClearsState) {
  auto p = Create({3, 3}, 2);
  ASSERT_NE(p, nullptr);
  AbsorbRows(*p, CorrelatedRows({3, 3}, 1000, 23), 24);
  p->Reset();
  EXPECT_EQ(p->reports_absorbed(), 0u);
  EXPECT_FALSE(p->EstimateCategorical({0}).ok());
}

TEST(InpEs, CommunicationIsLogarithmicInCoefficients) {
  auto p = Create({3, 4, 2, 3, 5}, 2);
  ASSERT_NE(p, nullptr);
  const double expected =
      std::ceil(std::log2(static_cast<double>(p->coefficient_count()))) + 1;
  EXPECT_DOUBLE_EQ(p->TheoreticalBitsPerUser(), expected);
}

TEST(InpEsFactory, ConstructibleByNameLikeTheOtherKinds) {
  auto kind = ProtocolKindFromName("InpES");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ProtocolKind::kInpES);
  EXPECT_EQ(ProtocolKindName(ProtocolKind::kInpES), "InpES");

  auto protocol = CreateProtocol(*kind, MakeConfig(6, 2));
  ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
  EXPECT_EQ((*protocol)->name(), "InpES");
  EXPECT_EQ((*protocol)->config().d, 6);

  // Registered in the extended kind list but not the seven paper kinds.
  EXPECT_EQ(RegisteredProtocolKinds().size(), AllProtocolKinds().size() + 1);
  EXPECT_EQ(RegisteredProtocolKinds().back(), ProtocolKind::kInpES);
}

TEST(InpEsFactory, CategoricalDomainsConstructibleByName) {
  const ProtocolConfig config = Config({3, 4, 2}, 2);
  auto protocol = CreateProtocol(ProtocolKind::kInpES, config);
  ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
  // d is derived from the cardinalities.
  EXPECT_EQ((*protocol)->config().d, 3);

  // A d that disagrees with the cardinalities is rejected.
  ProtocolConfig mismatched = config;
  mismatched.d = 5;
  EXPECT_FALSE(CreateProtocol(ProtocolKind::kInpES, mismatched).ok());

  // Cardinality 1 attributes carry no information and are rejected.
  EXPECT_FALSE(CreateProtocol(ProtocolKind::kInpES, Config({3, 1}, 1)).ok());
}

TEST(InpEsFactory, CoefficientCountMatchesEnumeratedSet) {
  const std::vector<std::pair<std::vector<uint32_t>, int>> domains = {
      {{2, 2, 2, 2, 2, 2}, 2}, {{3, 4, 2}, 2},      {{3, 4, 2}, 3},
      {{5, 5}, 1},             {{2, 3, 4, 5}, 2},   {{7}, 1},
  };
  for (const auto& [cardinalities, k] : domains) {
    auto count = EsCoefficientCount(cardinalities, k);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const ProtocolConfig config = Config(cardinalities, k);
    auto protocol = InpEsProtocol::Create(config);
    ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
    EXPECT_EQ(*count, (*protocol)->coefficient_count())
        << "k=" << k << " first r=" << cardinalities[0];
    // |T| drives the Table-2-style wire cost: ceil(log2 |T|) + 1.
    auto bits = WireBits(ProtocolKind::kInpES, config);
    ASSERT_TRUE(bits.ok());
    EXPECT_DOUBLE_EQ(static_cast<double>(*bits),
                     (*protocol)->TheoreticalBitsPerUser());
  }
}

TEST(InpEs, BinaryMarginalsRecoverSkewedDistribution) {
  const int d = 6;
  const ProtocolConfig config = MakeConfig(d, 2);
  auto protocol = CreateProtocol(ProtocolKind::kInpES, config);
  ASSERT_TRUE(protocol.ok());
  const auto rows = test::SkewedRows(d, 60000, 5);
  test::RunPerUser(**protocol, rows, 99);
  test::ExpectEstimateClose(**protocol, rows, d, 0b000011, 0.08);
  test::ExpectEstimateClose(**protocol, rows, d, 0b101000, 0.08);
}

TEST(InpEs, NonBinaryMarginalRequiresCategoricalQuery) {
  auto protocol = CreateProtocol(ProtocolKind::kInpES, Config({3, 2}, 2));
  ASSERT_TRUE(protocol.ok());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*protocol)->Absorb((*protocol)->Encode(i % 6, rng)).ok());
  }
  // Attribute 0 has r = 3: the binary MarginalTable interface refuses...
  auto binary = (*protocol)->EstimateMarginal(0b01);
  ASSERT_FALSE(binary.ok());
  EXPECT_NE(binary.status().message().find("EstimateCategorical"),
            std::string::npos);
  // ...but the binary attribute 1 alone is servable, and the categorical
  // query covers the full domain.
  EXPECT_TRUE((*protocol)->EstimateMarginal(0b10).ok());
  auto es = dynamic_cast<InpEsProtocol*>(protocol->get());
  ASSERT_NE(es, nullptr);
  auto categorical = es->EstimateCategorical({0, 1});
  ASSERT_TRUE(categorical.ok());
  EXPECT_EQ(categorical->probabilities.size(), 6u);
}

TEST(InpEs, WireRoundTripOnCategoricalDomain) {
  const ProtocolConfig config = Config({3, 4, 2}, 2);
  auto sender = CreateProtocol(ProtocolKind::kInpES, config);
  auto receiver = CreateProtocol(ProtocolKind::kInpES, config);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(receiver.ok());
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const Report original = (*sender)->Encode(rng.UniformInt(24), rng);
    ASSERT_TRUE((*sender)->Absorb(original).ok());
    auto bytes = SerializeReport(ProtocolKind::kInpES, config, original);
    ASSERT_TRUE(bytes.ok());
    auto parsed = DeserializeReport(ProtocolKind::kInpES, config, *bytes);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->value, original.value);
    EXPECT_EQ(parsed->sign, original.sign);
    ASSERT_TRUE((*receiver)->Absorb(*parsed).ok());
  }
  EXPECT_EQ((*receiver)->reports_absorbed(), 500u);
  EXPECT_EQ((*receiver)->total_report_bits(), (*sender)->total_report_bits());

  // A coefficient index past |T| must be rejected at parse time even when
  // it fits the index bit width.
  auto count = EsCoefficientCount({3, 4, 2}, 2);
  ASSERT_TRUE(count.ok());
  Report out_of_domain;
  out_of_domain.value = *count;  // first invalid index
  out_of_domain.sign = 1;
  EXPECT_FALSE(
      SerializeReport(ProtocolKind::kInpES, config, out_of_domain).ok());
}

TEST(InpEs, SnapshotGuardsCardinalities) {
  // Two domains with the same d and |T| sizes must not cross-restore:
  // the cardinalities prefix in the counts layout is the guard.
  auto a = CreateProtocol(ProtocolKind::kInpES, Config({3, 5}, 1));
  auto b = CreateProtocol(ProtocolKind::kInpES, Config({5, 3}, 1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*a)->Absorb((*a)->Encode(i % 15, rng)).ok());
  }
  // Identical array sizes (|T| = 2 + 4 = 6 both ways)...
  const AggregatorSnapshot snapshot = (*a)->Snapshot();
  ASSERT_EQ(snapshot.reals.size(), 6u);
  // ...but the restore must still notice the swapped domain.
  EXPECT_FALSE((*b)->Restore(snapshot).ok());
  EXPECT_TRUE((*a)->Restore(snapshot).ok());
}

}  // namespace
}  // namespace ldpm
