#include "core/bits.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace ldpm {
namespace {

TEST(Popcount, MatchesManualCount) {
  EXPECT_EQ(Popcount(0), 0);
  EXPECT_EQ(Popcount(1), 1);
  EXPECT_EQ(Popcount(0b1011), 3);
  EXPECT_EQ(Popcount(~uint64_t{0}), 64);
  EXPECT_EQ(Popcount(uint64_t{1} << 63), 1);
}

TEST(InnerProductParity, AgreesWithDefinition) {
  // <i, j> = parity of |i AND j|.
  EXPECT_EQ(InnerProductParity(0b1010, 0b0101), 0);  // disjoint
  EXPECT_EQ(InnerProductParity(0b1010, 0b0010), 1);  // one common bit
  EXPECT_EQ(InnerProductParity(0b1110, 0b0110), 0);  // two common bits
  EXPECT_EQ(InnerProductParity(0b111, 0b111), 1);    // three common bits
}

TEST(InnerProductParity, SymmetricExhaustiveSmallDomain) {
  for (uint64_t i = 0; i < 32; ++i) {
    for (uint64_t j = 0; j < 32; ++j) {
      EXPECT_EQ(InnerProductParity(i, j), InnerProductParity(j, i));
    }
  }
}

TEST(InnerProductParity, BilinearOverXor) {
  // <i, j xor l> = <i,j> xor <i,l> when j and l are disjoint; more generally
  // parity adds mod 2 for disjoint masks.
  const uint64_t i = 0b110101;
  const uint64_t j = 0b000110;
  const uint64_t l = 0b101000;
  ASSERT_EQ(j & l, 0u);
  EXPECT_EQ(InnerProductParity(i, j ^ l),
            InnerProductParity(i, j) ^ InnerProductParity(i, l));
}

TEST(HadamardSign, MatchesParity) {
  for (uint64_t i = 0; i < 16; ++i) {
    for (uint64_t j = 0; j < 16; ++j) {
      const double expected = InnerProductParity(i, j) ? -1.0 : 1.0;
      EXPECT_EQ(HadamardSign(i, j), expected);
      EXPECT_EQ(HadamardSignInt(i, j), static_cast<int>(expected));
    }
  }
}

TEST(IsSubset, BasicCases) {
  EXPECT_TRUE(IsSubset(0, 0));
  EXPECT_TRUE(IsSubset(0, 0b1010));
  EXPECT_TRUE(IsSubset(0b1000, 0b1010));
  EXPECT_TRUE(IsSubset(0b1010, 0b1010));
  EXPECT_FALSE(IsSubset(0b0100, 0b1010));
  EXPECT_FALSE(IsSubset(0b1011, 0b1010));
}

TEST(DomainSize, PowersOfTwo) {
  EXPECT_EQ(DomainSize(0), 1u);
  EXPECT_EQ(DomainSize(1), 2u);
  EXPECT_EQ(DomainSize(10), 1024u);
  EXPECT_EQ(DomainSize(20), 1u << 20);
}

TEST(BinomialCoefficient, SmallTable) {
  EXPECT_EQ(BinomialCoefficient(0, 0), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 0), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 5), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 2), 10u);
  EXPECT_EQ(BinomialCoefficient(8, 3), 56u);
  EXPECT_EQ(BinomialCoefficient(16, 2), 120u);
  EXPECT_EQ(BinomialCoefficient(24, 2), 276u);  // Table 3's 276 2-way marginals
}

TEST(BinomialCoefficient, OutOfRangeIsZero) {
  EXPECT_EQ(BinomialCoefficient(5, 6), 0u);
  EXPECT_EQ(BinomialCoefficient(5, -1), 0u);
}

TEST(BinomialCoefficient, PascalIdentity) {
  for (int n = 1; n <= 30; ++n) {
    for (int r = 1; r <= n; ++r) {
      EXPECT_EQ(BinomialCoefficient(n, r),
                BinomialCoefficient(n - 1, r - 1) + BinomialCoefficient(n - 1, r))
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(LowOrderCoefficientCount, PaperExample) {
  // d=4, k=2: C(4,1) + C(4,2) = 4 + 6 = 10 nonzero coefficients (the paper's
  // Section 3.2 counts 11 including the constant one).
  EXPECT_EQ(LowOrderCoefficientCount(4, 2), 10u);
  EXPECT_EQ(LowOrderCoefficientCount(8, 3), 8u + 28u + 56u);
}

TEST(ForEachSubset, VisitsAllSubmasksOnce) {
  const uint64_t mask = 0b10110;
  std::set<uint64_t> seen;
  ForEachSubset(mask, [&](uint64_t s) {
    EXPECT_TRUE(IsSubset(s, mask));
    EXPECT_TRUE(seen.insert(s).second) << "duplicate submask " << s;
  });
  EXPECT_EQ(seen.size(), 8u);  // 2^3 submasks of a 3-bit mask
}

TEST(ForEachSubset, ZeroMaskVisitsOnlyZero) {
  int count = 0;
  ForEachSubset(0, [&](uint64_t s) {
    EXPECT_EQ(s, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(AllSubsets, SizeMatchesPopcount) {
  EXPECT_EQ(AllSubsets(0b111).size(), 8u);
  EXPECT_EQ(AllSubsets(0b1).size(), 2u);
  EXPECT_EQ(AllSubsets(0).size(), 1u);
}

TEST(NextSamePopcount, WalksCombinations) {
  // From 0b0011 the next 2-bit values are 0b0101, 0b0110, 0b1001, ...
  uint64_t x = 0b0011;
  x = NextSamePopcount(x);
  EXPECT_EQ(x, 0b0101u);
  x = NextSamePopcount(x);
  EXPECT_EQ(x, 0b0110u);
  x = NextSamePopcount(x);
  EXPECT_EQ(x, 0b1001u);
}

TEST(ForEachMaskWithPopcount, CountsMatchBinomial) {
  for (int d = 1; d <= 10; ++d) {
    for (int r = 0; r <= d; ++r) {
      uint64_t count = 0;
      ForEachMaskWithPopcount(d, r, [&](uint64_t m) {
        EXPECT_EQ(Popcount(m), r);
        EXPECT_LT(m, DomainSize(d));
        ++count;
      });
      EXPECT_EQ(count, BinomialCoefficient(d, r)) << "d=" << d << " r=" << r;
    }
  }
}

TEST(ForEachMaskWithPopcount, AscendingAndDistinct) {
  std::vector<uint64_t> masks;
  ForEachMaskWithPopcount(8, 3, [&](uint64_t m) { masks.push_back(m); });
  EXPECT_TRUE(std::is_sorted(masks.begin(), masks.end()));
  EXPECT_EQ(std::set<uint64_t>(masks.begin(), masks.end()).size(), masks.size());
}

TEST(ForEachMaskWithPopcount, FullPopcountSingleMask) {
  int count = 0;
  ForEachMaskWithPopcount(6, 6, [&](uint64_t m) {
    EXPECT_EQ(m, 0b111111u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(LowOrderMasks, GroupedByPopcountAndComplete) {
  const auto masks = LowOrderMasks(6, 3);
  EXPECT_EQ(masks.size(), LowOrderCoefficientCount(6, 3));
  // Grouping: popcounts are non-decreasing along the list.
  for (size_t i = 1; i < masks.size(); ++i) {
    EXPECT_LE(Popcount(masks[i - 1]), Popcount(masks[i]));
  }
  // No zero mask, nothing above popcount 3.
  for (uint64_t m : masks) {
    EXPECT_GE(Popcount(m), 1);
    EXPECT_LE(Popcount(m), 3);
  }
}

TEST(ExtractBits, CompressesSelectedBits) {
  // mask 0b0101 selects bits 0 and 2.
  EXPECT_EQ(ExtractBits(0b0000, 0b0101), 0u);
  EXPECT_EQ(ExtractBits(0b0001, 0b0101), 0b01u);
  EXPECT_EQ(ExtractBits(0b0100, 0b0101), 0b10u);
  EXPECT_EQ(ExtractBits(0b0101, 0b0101), 0b11u);
  // Bits outside the mask are ignored.
  EXPECT_EQ(ExtractBits(0b1111, 0b0101), 0b11u);
}

TEST(DepositBits, InverseOfExtract) {
  const uint64_t mask = 0b1011010;
  for (uint64_t compact = 0; compact < 16; ++compact) {
    const uint64_t wide = DepositBits(compact, mask);
    EXPECT_TRUE(IsSubset(wide, mask));
    EXPECT_EQ(ExtractBits(wide, mask), compact);
  }
}

TEST(ExtractDeposit, RoundTripExhaustiveSmall) {
  for (uint64_t mask = 0; mask < 64; ++mask) {
    for (uint64_t value = 0; value < 64; ++value) {
      const uint64_t compact = ExtractBits(value, mask);
      EXPECT_EQ(DepositBits(compact, mask), value & mask);
    }
  }
}

// Property sweep: for every submask pair, extraction commutes with the
// paper's indexing convention eta AND beta = gamma.
class BitsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BitsPropertyTest, MarginalIndexingConvention) {
  const int d = GetParam();
  const uint64_t domain = DomainSize(d);
  // Pick a fixed beta pattern: alternating bits.
  uint64_t beta = 0;
  for (int b = 0; b < d; b += 2) beta |= uint64_t{1} << b;
  for (uint64_t eta = 0; eta < domain; ++eta) {
    const uint64_t gamma = eta & beta;
    EXPECT_EQ(DepositBits(ExtractBits(eta, beta), beta), gamma);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDimensions, BitsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10));

TEST(BinomialLookup, MatchesBinomialCoefficient) {
  for (int n = 0; n <= kMaxDimensions; ++n) {
    for (int r = 0; r <= n; ++r) {
      EXPECT_EQ(BinomialLookup(n, r), BinomialCoefficient(n, r))
          << "n=" << n << " r=" << r;
    }
  }
  EXPECT_EQ(BinomialLookup(5, 6), 0u);
  EXPECT_EQ(BinomialLookup(5, -1), 0u);
  EXPECT_EQ(BinomialLookup(kMaxDimensions + 1, 1), 0u);
}

// CombinationRank is the inverse of the fixed-popcount enumeration: the
// rank of the i-th mask produced by ForEachMaskWithPopcount is i. This is
// the invariant the dense selector tables of the protocols rely on.
TEST(CombinationRank, MatchesEnumerationOrder) {
  for (const auto& [d, r] : std::vector<std::pair<int, int>>{
           {6, 2}, {8, 3}, {10, 1}, {12, 4}, {20, 2}}) {
    uint64_t expected = 0;
    ForEachMaskWithPopcount(d, r, [&](uint64_t mask) {
      EXPECT_EQ(CombinationRank(mask), expected) << "mask=" << mask;
      ++expected;
    });
    EXPECT_EQ(expected, BinomialCoefficient(d, r));
  }
}

TEST(CombinationRank, EmptyMaskRanksZero) {
  EXPECT_EQ(CombinationRank(0), 0u);
}

// LowOrderIndex is the inverse of LowOrderMasks, and the index for a lower
// order is a prefix of the index for a higher one.
TEST(LowOrderIndex, InvertsLowOrderMasks) {
  for (const auto& [d, k] : std::vector<std::pair<int, int>>{
           {1, 1}, {6, 2}, {8, 3}, {12, 4}, {20, 2}}) {
    const LowOrderIndex index(d, k);
    const std::vector<uint64_t> masks = LowOrderMasks(d, k);
    ASSERT_EQ(index.size(), masks.size());
    EXPECT_EQ(index.dimensions(), d);
    EXPECT_EQ(index.max_order(), k);
    for (size_t slot = 0; slot < masks.size(); ++slot) {
      EXPECT_EQ(index.Of(masks[slot]), slot) << "mask=" << masks[slot];
      if (k > 1 && Popcount(masks[slot]) < k) {
        EXPECT_EQ(LowOrderIndex(d, k - 1).Of(masks[slot]), slot);
      }
    }
  }
}

TEST(LowOrderIndex, MasksOutsideTheIndexHaveNoSlot) {
  const LowOrderIndex index(6, 2);
  EXPECT_EQ(index.Of(0), LowOrderIndex::kNone);          // order 0
  EXPECT_EQ(index.Of(0b111), LowOrderIndex::kNone);      // order 3 > k
  EXPECT_EQ(index.Of(1u << 6), LowOrderIndex::kNone);    // attribute 6 >= d
  EXPECT_EQ(index.Of(0b1000001), LowOrderIndex::kNone);  // one bit >= d
  EXPECT_EQ(LowOrderIndex(6, 0).size(), 0u);
  EXPECT_EQ(LowOrderIndex(6, 0).Of(1), LowOrderIndex::kNone);
}

}  // namespace
}  // namespace ldpm
