// Dense contingency tables (histograms) over the Boolean hypercube {0,1}^d
// and marginal tables over a selected subset of attributes.
//
// A ContingencyTable stores one double per cell of the full d-attribute
// domain (2^d cells) and is the "t" vector of the paper. A MarginalTable is
// the projection C_beta(t): 2^k values for the k attributes selected by the
// mask beta, stored compactly (cell gamma ⪯ beta lives at index
// ExtractBits(gamma, beta)).

#ifndef LDPM_CORE_CONTINGENCY_TABLE_H_
#define LDPM_CORE_CONTINGENCY_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bits.h"
#include "core/status.h"

namespace ldpm {

/// Largest d for which ldpm will materialize a dense 2^d table (1 GiB of
/// doubles at d = 27; we stop well before).
inline constexpr int kMaxDenseDimensions = 26;

/// A dense real-valued table over {0,1}^d. Cell indices are packed attribute
/// vectors (attribute 0 = bit 0).
class ContingencyTable {
 public:
  /// Creates an all-zero table over d attributes. Fails for d outside
  /// [0, kMaxDenseDimensions].
  static StatusOr<ContingencyTable> Zero(int d);

  /// Creates a table from explicit cell values; the size of `cells` must be
  /// a power of two 2^d with d <= kMaxDenseDimensions.
  static StatusOr<ContingencyTable> FromCells(std::vector<double> cells);

  /// Number of binary attributes d.
  int dimensions() const { return d_; }

  /// Number of cells, 2^d.
  uint64_t size() const { return cells_.size(); }

  /// Cell accessors. Indices are checked in debug builds only.
  double operator[](uint64_t cell) const {
    LDPM_DCHECK(cell < cells_.size());
    return cells_[cell];
  }
  double& operator[](uint64_t cell) {
    LDPM_DCHECK(cell < cells_.size());
    return cells_[cell];
  }

  /// Adds `weight` to a cell.
  void Add(uint64_t cell, double weight) {
    LDPM_DCHECK(cell < cells_.size());
    cells_[cell] += weight;
  }

  /// Sum of all cells.
  double Total() const;

  /// Scales every cell by 1/Total() so the table is a distribution.
  /// Fails if the total is zero or non-finite.
  Status Normalize();

  /// Mutable access to the raw cell storage (for transform routines).
  std::vector<double>& cells() { return cells_; }
  const std::vector<double>& cells() const { return cells_; }

 private:
  ContingencyTable(int d, std::vector<double> cells)
      : d_(d), cells_(std::move(cells)) {}

  int d_ = 0;
  std::vector<double> cells_;
};

/// The projection of a distribution onto the attributes selected by `beta`.
/// Always holds 2^k values where k = popcount(beta).
class MarginalTable {
 public:
  /// An all-zero marginal for selector beta over a d-attribute domain.
  MarginalTable(int d, uint64_t beta);

  /// A marginal for selector beta holding `cells` in compact order (e.g. a
  /// query::Snapshot::Find span). Check-fails unless there are 2^|beta|.
  MarginalTable(int d, uint64_t beta, std::span<const double> cells);

  /// The uniform marginal (every cell 2^-k) for selector beta.
  static MarginalTable Uniform(int d, uint64_t beta);

  /// Domain dimensionality d this marginal was taken from.
  int dimensions() const { return d_; }

  /// The attribute-selector mask.
  uint64_t beta() const { return beta_; }

  /// The order k = |beta| of the marginal.
  int order() const { return k_; }

  /// Number of cells, 2^k.
  uint64_t size() const { return values_.size(); }

  /// Access by compact cell index in [0, 2^k).
  double at_compact(uint64_t idx) const {
    LDPM_DCHECK(idx < values_.size());
    return values_[idx];
  }
  double& at_compact(uint64_t idx) {
    LDPM_DCHECK(idx < values_.size());
    return values_[idx];
  }

  /// Access by full-width cell index gamma ⪯ beta (bits outside beta are
  /// ignored, matching the paper's indexing convention).
  double at(uint64_t gamma) const { return values_[ExtractBits(gamma, beta_)]; }
  double& at(uint64_t gamma) { return values_[ExtractBits(gamma, beta_)]; }

  /// Expands a compact index back to the full-width cell gamma ⪯ beta.
  uint64_t CompactToCell(uint64_t idx) const { return DepositBits(idx, beta_); }

  /// Sum of all cells.
  double Total() const;

  /// Scales cells to sum to one. Fails on zero/non-finite total.
  Status Normalize();

  /// Projects the table onto the probability simplex: clamps negatives to
  /// zero then renormalizes (a standard consistency post-process for noisy
  /// marginals). Falls back to the uniform marginal when everything clamps
  /// to zero.
  void ProjectToSimplex();

  /// Total variation distance to another marginal over the same beta:
  /// (1/2) * L1 distance. Check-fails if selectors differ.
  double TotalVariationDistance(const MarginalTable& other) const;

  /// Renders the marginal as an aligned text table (for examples/benches).
  std::string ToString() const;

  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

 private:
  int d_;
  uint64_t beta_;
  int k_;
  std::vector<double> values_;
};

}  // namespace ldpm

#endif  // LDPM_CORE_CONTINGENCY_TABLE_H_
