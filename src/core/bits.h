// Bit-manipulation substrate for the Boolean hypercube {0,1}^d.
//
// Throughout ldpm a point of the hypercube (a user's attribute vector, a
// marginal selector beta, a Fourier coefficient index alpha, ...) is packed
// into the low d bits of a uint64_t, attribute 0 in bit 0. All marginal and
// Hadamard machinery reduces to the primitives in this header: parity inner
// products, subset iteration, and rank/unrank of fixed-popcount indices.

#ifndef LDPM_CORE_BITS_H_
#define LDPM_CORE_BITS_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "core/status.h"

namespace ldpm {

/// Maximum supported number of binary attributes. Dense 2^d tables are only
/// materialized by callers for much smaller d; this bound merely keeps index
/// arithmetic within uint64_t.
inline constexpr int kMaxDimensions = 62;

/// Number of set bits (|x| in the paper's notation).
inline int Popcount(uint64_t x) { return std::popcount(x); }

/// The GF(2) inner product <i,j> used by the Hadamard transform:
/// parity of the number of bit positions where both i and j are 1.
/// Returns 0 or 1.
inline int InnerProductParity(uint64_t i, uint64_t j) {
  return std::popcount(i & j) & 1;
}

/// (-1)^{<i,j>} as a double: +1.0 when the parity is even, -1.0 when odd.
inline double HadamardSign(uint64_t i, uint64_t j) {
  return InnerProductParity(i, j) ? -1.0 : 1.0;
}

/// (-1)^{<i,j>} as an int in {-1, +1}.
inline int HadamardSignInt(uint64_t i, uint64_t j) {
  return InnerProductParity(i, j) ? -1 : 1;
}

/// True iff alpha is a sub-mask of beta (alpha ⪯ beta in the paper:
/// every set bit of alpha is also set in beta).
inline bool IsSubset(uint64_t alpha, uint64_t beta) {
  return (alpha & ~beta) == 0;
}

/// Number of cells in a table over d binary attributes (2^d).
inline uint64_t DomainSize(int d) {
  LDPM_DCHECK(d >= 0 && d <= kMaxDimensions);
  return uint64_t{1} << d;
}

namespace internal {

/// Dense Pascal triangle C(n, r) for 0 <= r <= n <= kMaxDimensions, built at
/// compile time. Backs the O(popcount) combinatorial ranking below, which
/// replaces hash-map selector lookups on the aggregator hot path.
struct PascalTable {
  uint64_t c[kMaxDimensions + 1][kMaxDimensions + 1];
  constexpr PascalTable() : c{} {
    for (int n = 0; n <= kMaxDimensions; ++n) {
      c[n][0] = 1;
      for (int r = 1; r <= n; ++r) c[n][r] = c[n - 1][r - 1] + c[n - 1][r];
    }
  }
};

inline constexpr PascalTable kPascal{};

}  // namespace internal

/// Table-backed C(n, r); zero outside 0 <= r <= n <= kMaxDimensions.
inline uint64_t BinomialLookup(int n, int r) {
  if (r < 0 || r > n || n > kMaxDimensions) return 0;
  return internal::kPascal.c[n][r];
}

/// Rank of `mask` among all masks with the same popcount, in increasing
/// numeric order (the combinatorial number system / colex rank): with set
/// bit positions p_1 < p_2 < ... < p_r, rank = sum_j C(p_j, j).
///
/// KWaySelectors / ForEachMaskWithPopcount enumerate masks in exactly this
/// order, so CombinationRank(selectors[i]) == i — a dense, allocation-free
/// index that replaces per-report unordered_map lookups.
inline uint64_t CombinationRank(uint64_t mask) {
  uint64_t rank = 0;
  int j = 0;
  while (mask != 0) {
    const int pos = std::countr_zero(mask);
    ++j;
    rank += BinomialLookup(pos, j);
    mask &= mask - 1;
  }
  return rank;
}

/// C(n, r) as uint64_t; exact for every n <= 62 relevant here.
inline uint64_t BinomialCoefficient(int n, int r) {
  if (r < 0 || r > n) return 0;
  if (r > n - r) r = n - r;
  uint64_t result = 1;
  for (int i = 1; i <= r; ++i) {
    // Multiply before divide stays exact because result * (n-r+i) is a
    // product of i consecutive integers divided by i!.
    result = result * static_cast<uint64_t>(n - r + i) / static_cast<uint64_t>(i);
  }
  return result;
}

/// Number of nonzero Hadamard coefficient indices needed for full k-way
/// marginals over d attributes: |T| = sum_{l=1..k} C(d, l).
inline uint64_t LowOrderCoefficientCount(int d, int k) {
  uint64_t total = 0;
  for (int l = 1; l <= k; ++l) total += BinomialCoefficient(d, l);
  return total;
}

/// Iterates all sub-masks of `mask` (including 0 and mask itself) in
/// decreasing numeric order, invoking fn(submask) for each.
///
/// Uses the standard (s - 1) & mask walk: visits exactly 2^{popcount(mask)}
/// values.
template <typename Fn>
inline void ForEachSubset(uint64_t mask, Fn&& fn) {
  uint64_t s = mask;
  while (true) {
    fn(s);
    if (s == 0) break;
    s = (s - 1) & mask;
  }
}

/// Returns all sub-masks of `mask`, most-significant first.
std::vector<uint64_t> inline AllSubsets(uint64_t mask) {
  std::vector<uint64_t> out;
  out.reserve(uint64_t{1} << Popcount(mask));
  ForEachSubset(mask, [&](uint64_t s) { out.push_back(s); });
  return out;
}

/// Next integer with the same popcount (Gosper's hack). Precondition:
/// x != 0 and the successor fits in 64 bits.
inline uint64_t NextSamePopcount(uint64_t x) {
  uint64_t c = x & (~x + 1);
  uint64_t r = x + c;
  return (((r ^ x) >> 2) / c) | r;
}

/// Enumerates every mask over d bits with exactly r set bits, in increasing
/// numeric order, invoking fn(mask) for each of the C(d, r) values.
template <typename Fn>
inline void ForEachMaskWithPopcount(int d, int r, Fn&& fn) {
  LDPM_DCHECK(d >= 0 && d <= kMaxDimensions);
  if (r < 0 || r > d) return;
  if (r == 0) {
    fn(uint64_t{0});
    return;
  }
  uint64_t mask = (uint64_t{1} << r) - 1;
  const uint64_t limit = uint64_t{1} << d;
  while (mask < limit) {
    fn(mask);
    if (mask == ((limit - 1) >> (d - r)) << (d - r)) break;  // top block
    mask = NextSamePopcount(mask);
  }
}

/// Enumerates every mask over d bits with popcount in [1, k], grouped by
/// popcount (all 1-bit masks, then all 2-bit masks, ...).
template <typename Fn>
inline void ForEachLowOrderMask(int d, int k, Fn&& fn) {
  for (int r = 1; r <= k; ++r) {
    ForEachMaskWithPopcount(d, r, fn);
  }
}

/// Materializes the masks visited by ForEachLowOrderMask.
std::vector<uint64_t> inline LowOrderMasks(int d, int k) {
  std::vector<uint64_t> out;
  out.reserve(LowOrderCoefficientCount(d, k));
  ForEachLowOrderMask(d, k, [&](uint64_t m) { out.push_back(m); });
  return out;
}

/// The dense index of the masks ForEachLowOrderMask(d, k) visits: a mask's
/// slot is the number of masks of lower popcount plus its colex
/// CombinationRank, so LowOrderMasks(d, k)[index.Of(mask)] == mask. Pure
/// rank arithmetic, no hash lookup. The index for k' <= k is a prefix of
/// the index for k.
class LowOrderIndex {
 public:
  /// Returned by Of() for masks outside the index.
  static constexpr size_t kNone = ~size_t{0};

  /// Indexes every mask over d bits with popcount in [1, k], where
  /// 0 <= k <= d <= kMaxDimensions.
  LowOrderIndex(int d, int k) : d_(d), k_(k) {
    LDPM_CHECK(k >= 0 && k <= d && d <= kMaxDimensions);
    offsets_.assign(k + 2, 0);
    for (int r = 1; r <= k; ++r) {
      offsets_[r + 1] = offsets_[r] + BinomialLookup(d, r);
    }
  }

  int dimensions() const { return d_; }
  int max_order() const { return k_; }

  /// Number of indexed masks: sum_{r=1..k} C(d, r).
  size_t size() const { return offsets_[k_ + 1]; }

  /// The slot of the first popcount-r mask, 1 <= r <= k.
  size_t FirstSlot(int r) const { return offsets_[r]; }

  /// The slot of `mask`, or kNone when |mask| is outside [1, k] or mask
  /// selects a bit at or above d.
  size_t Of(uint64_t mask) const {
    const int r = Popcount(mask);
    if (r < 1 || r > k_ || (mask >> d_) != 0) return kNone;
    return offsets_[r] + CombinationRank(mask);
  }

 private:
  int d_;
  int k_;
  std::vector<size_t> offsets_;  // [r]: slot of the first popcount-r mask
};

/// Compresses the bits of `value` selected by `mask` into a contiguous
/// low-order index (parallel bit extract). For beta with |beta| = k this
/// maps a cell index gamma ⪯ beta of a marginal table into [0, 2^k).
inline uint64_t ExtractBits(uint64_t value, uint64_t mask) {
#if defined(__BMI2__)
  return _pext_u64(value, mask);
#else
  uint64_t out = 0;
  int out_bit = 0;
  while (mask != 0) {
    uint64_t low = mask & (~mask + 1);
    if (value & low) out |= uint64_t{1} << out_bit;
    ++out_bit;
    mask ^= low;
  }
  return out;
#endif
}

/// Inverse of ExtractBits: scatters the low popcount(mask) bits of `compact`
/// to the positions of `mask` (parallel bit deposit).
inline uint64_t DepositBits(uint64_t compact, uint64_t mask) {
#if defined(__BMI2__)
  return _pdep_u64(compact, mask);
#else
  uint64_t out = 0;
  int in_bit = 0;
  while (mask != 0) {
    uint64_t low = mask & (~mask + 1);
    if (compact & (uint64_t{1} << in_bit)) out |= low;
    ++in_bit;
    mask ^= low;
  }
  return out;
#endif
}

}  // namespace ldpm

#endif  // LDPM_CORE_BITS_H_
