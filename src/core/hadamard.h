// Hadamard (Boolean Fourier) transform machinery (Definition 3.5 and
// Lemma 3.7 of the paper).
//
// Convention: ldpm works with *unnormalized* Fourier coefficients
//
//     f_alpha = sum_eta t[eta] * (-1)^{<alpha, eta>},
//
// so that for a probability vector t, f_0 = 1 and every |f_alpha| <= 1, and a
// single user's coefficient is the signed bit (-1)^{<alpha, j_i>}. The
// paper's orthonormal coefficients are theta_alpha = 2^{-d/2} f_alpha.
//
// Marginal reconstruction (Lemma 3.7 restated in this convention):
//
//     C_beta(t)[gamma] = 2^{-k} * sum_{alpha ⪯ beta} f_alpha (-1)^{<alpha, gamma>}
//
// For alpha, gamma ⪯ beta the parity <alpha, gamma> is the parity of their
// compact indices (ExtractBits over beta), so C_beta is the inverse FWHT of
// the 2^k coefficients under beta laid out at their compact indices.

#ifndef LDPM_CORE_HADAMARD_H_
#define LDPM_CORE_HADAMARD_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/bits.h"
#include "core/contingency_table.h"
#include "core/status.h"

namespace ldpm {

/// In-place fast Walsh–Hadamard transform of a length-2^d vector:
/// data[alpha] <- sum_eta data[eta] * (-1)^{<alpha, eta>}. O(d 2^d).
/// Self-inverse up to a factor of 2^d. Check-fails unless the size is a
/// power of two.
void FastWalshHadamard(std::span<double> data);

/// Applies the inverse transform: FWHT followed by division by 2^d.
void InverseFastWalshHadamard(std::span<double> data);

/// Directly evaluates one unnormalized coefficient f_alpha of a table.
/// O(2^d); useful for testing and for sparse needs.
double FourierCoefficient(const ContingencyTable& t, uint64_t alpha);

/// Lemma 3.7 for one selector: the marginal C_beta over d attributes from
/// its coefficients, read as coefficient(alpha) for every nonzero
/// alpha ⪯ beta (f_0 = 1). A gather of the 2^k values at their compact
/// indices and one 2^k inverse FWHT. `coefficient` returns a double or a
/// std::optional<double>; an empty optional makes the result NotFound.
template <class Coefficient>
StatusOr<MarginalTable> MarginalFromCoefficients(int d, uint64_t beta,
                                                 Coefficient coefficient) {
  MarginalTable m(d, beta);
  m.at_compact(0) = 1.0;
  for (uint64_t r = 1; r < m.size(); ++r) {
    const std::optional<double> value = coefficient(DepositBits(r, beta));
    if (!value.has_value()) {
      return Status::NotFound("Lemma 3.7: coefficient not present");
    }
    m.at_compact(r) = *value;
  }
  InverseFastWalshHadamard(m.values());
  return m;
}

/// Estimated Fourier coefficients f_alpha for every alpha with
/// 1 <= |alpha| <= max_order, stored densely in LowOrderIndex order:
/// enough to reconstruct any marginal of order <= max_order. f_0 is
/// implicitly 1 (the coefficient of any probability distribution). This is
/// the aggregator-side data structure of the Hadamard protocols and the
/// export every protocol gives (MarginalProtocol::EstimateCoefficients).
class FourierCoefficients {
 public:
  /// An empty set over a d-attribute domain: no coefficient stored yet.
  FourierCoefficients(int d, int max_order);

  /// Sets (or overwrites) the estimate for f_alpha. Check-fails unless
  /// 1 <= |alpha| <= max_order and alpha lies inside the domain.
  void Set(uint64_t alpha, double value);

  /// Returns the estimate for f_alpha; alpha = 0 always yields 1.
  /// Returns NotFound for coefficients never set or outside the index.
  StatusOr<double> Get(uint64_t alpha) const;

  /// True if alpha = 0 or a value has been stored for alpha.
  bool Contains(uint64_t alpha) const {
    return alpha == 0 || Stored(alpha) != nullptr;
  }

  /// Number of explicitly stored coefficients.
  size_t size() const { return stored_; }

  int dimensions() const { return index_.dimensions(); }
  int max_order() const { return index_.max_order(); }

  /// Reconstructs the marginal C_beta from the stored coefficients using
  /// Lemma 3.7: a gather of the 2^k coefficients alpha ⪯ beta and one 2^k
  /// FWHT for a k-way marginal. OutOfRange when beta selects attributes
  /// outside the domain; NotFound when some nonzero alpha ⪯ beta is
  /// missing, as beta itself is when k > max_order.
  StatusOr<MarginalTable> ReconstructMarginal(uint64_t beta) const;

  /// Every marginal of order 1..max_order in one buffer, beta in
  /// LowOrderIndex order, C_beta's 2^|beta| cells (compact order) at
  /// MarginalCellOffset(d, beta). One pass over the export: per beta, the
  /// slots of its coefficients follow from its bit positions, then the
  /// same gather and inverse FWHT as ReconstructMarginal, so every cell is
  /// bit for bit ReconstructMarginal(beta). FailedPrecondition unless every
  /// coefficient of order 1..max_order is stored.
  StatusOr<std::vector<double>> ReconstructAllMarginals() const;

  /// The exact low-order coefficients (1 <= |alpha| <= max_order) of a
  /// full 2^d table given as its cell vector: one O(d 2^d) FWHT.
  static FourierCoefficients FromCells(std::vector<double> cells,
                                       int max_order);

 private:
  /// The stored f_alpha, or null when it was never set or alpha is
  /// outside the index.
  const double* Stored(uint64_t alpha) const {
    const size_t slot = index_.Of(alpha);
    return slot != LowOrderIndex::kNone && present_[slot] ? &values_[slot]
                                                          : nullptr;
  }

  LowOrderIndex index_;
  std::vector<double> values_;    // by index_ slot
  std::vector<uint8_t> present_;  // by index_ slot: 1 once Set
  size_t stored_ = 0;
};

/// Where FourierCoefficients::ReconstructAllMarginals puts C_beta, for
/// 1 <= |beta| <= max_order and beta inside [0, d): after the
/// sum_{r < |beta|} C(d, r) 2^r cells of the lower orders and the
/// CombinationRank(beta) tables of its own order that precede it.
inline size_t MarginalCellOffset(int d, uint64_t beta) {
  const int k = Popcount(beta);
  size_t offset = CombinationRank(beta) << k;
  for (int r = 1; r < k; ++r) offset += BinomialLookup(d, r) << r;
  return offset;
}

}  // namespace ldpm

#endif  // LDPM_CORE_HADAMARD_H_
