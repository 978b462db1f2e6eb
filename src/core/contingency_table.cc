#include "core/contingency_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>

namespace ldpm {

StatusOr<ContingencyTable> ContingencyTable::Zero(int d) {
  if (d < 0 || d > kMaxDenseDimensions) {
    return Status::InvalidArgument(
        "ContingencyTable: d must be in [0, " +
        std::to_string(kMaxDenseDimensions) + "], got " + std::to_string(d));
  }
  return ContingencyTable(d, std::vector<double>(uint64_t{1} << d, 0.0));
}

StatusOr<ContingencyTable> ContingencyTable::FromCells(std::vector<double> cells) {
  if (cells.empty() || !std::has_single_bit(cells.size())) {
    return Status::InvalidArgument(
        "ContingencyTable: cell count must be a power of two, got " +
        std::to_string(cells.size()));
  }
  const int d = std::countr_zero(cells.size());
  if (d > kMaxDenseDimensions) {
    return Status::InvalidArgument("ContingencyTable: table too large, d = " +
                                   std::to_string(d));
  }
  return ContingencyTable(d, std::move(cells));
}

double ContingencyTable::Total() const {
  return std::accumulate(cells_.begin(), cells_.end(), 0.0);
}

Status ContingencyTable::Normalize() {
  const double total = Total();
  if (!(total > 0.0) || !std::isfinite(total)) {
    return Status::FailedPrecondition(
        "ContingencyTable::Normalize: total is zero or non-finite");
  }
  for (double& c : cells_) c /= total;
  return Status::OK();
}

MarginalTable::MarginalTable(int d, uint64_t beta)
    : d_(d), beta_(beta), k_(Popcount(beta)) {
  LDPM_CHECK(d >= 0 && d <= kMaxDimensions);
  LDPM_CHECK(beta < (uint64_t{1} << d) || d == 0);
  values_.assign(uint64_t{1} << k_, 0.0);
}

MarginalTable::MarginalTable(int d, uint64_t beta,
                             std::span<const double> cells)
    : MarginalTable(d, beta) {
  LDPM_CHECK(cells.size() == values_.size());
  std::ranges::copy(cells, values_.begin());
}

MarginalTable MarginalTable::Uniform(int d, uint64_t beta) {
  MarginalTable m(d, beta);
  const double u = 1.0 / static_cast<double>(m.size());
  for (double& v : m.values_) v = u;
  return m;
}

double MarginalTable::Total() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

Status MarginalTable::Normalize() {
  const double total = Total();
  if (!(total > 0.0) || !std::isfinite(total)) {
    return Status::FailedPrecondition(
        "MarginalTable::Normalize: total is zero or non-finite");
  }
  for (double& v : values_) v /= total;
  return Status::OK();
}

void MarginalTable::ProjectToSimplex() {
  double total = 0.0;
  for (double& v : values_) {
    if (v < 0.0) v = 0.0;
    total += v;
  }
  if (total <= 0.0) {
    const double u = 1.0 / static_cast<double>(values_.size());
    for (double& v : values_) v = u;
    return;
  }
  for (double& v : values_) v /= total;
}

double MarginalTable::TotalVariationDistance(const MarginalTable& other) const {
  LDPM_CHECK(beta_ == other.beta_);
  double l1 = 0.0;
  for (uint64_t i = 0; i < values_.size(); ++i) {
    l1 += std::fabs(values_[i] - other.values_[i]);
  }
  return 0.5 * l1;
}

std::string MarginalTable::ToString() const {
  std::ostringstream out;
  out << "marginal beta=0x" << std::hex << beta_ << std::dec << " (k=" << k_
      << ")\n";
  for (uint64_t idx = 0; idx < values_.size(); ++idx) {
    // Print the compact cell as a k-bit pattern, most significant first.
    out << "  [";
    for (int b = k_ - 1; b >= 0; --b) out << ((idx >> b) & 1);
    out << "] " << values_[idx] << "\n";
  }
  return out.str();
}

}  // namespace ldpm
