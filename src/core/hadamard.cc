#include "core/hadamard.h"

#include <bit>

namespace ldpm {

void FastWalshHadamard(std::span<double> data) {
  LDPM_CHECK(!data.empty() && std::has_single_bit(data.size()));
  const size_t n = data.size();
  for (size_t len = 1; len < n; len <<= 1) {
    for (size_t block = 0; block < n; block += len << 1) {
      for (size_t i = block; i < block + len; ++i) {
        const double a = data[i];
        const double b = data[i + len];
        data[i] = a + b;
        data[i + len] = a - b;
      }
    }
  }
}

void InverseFastWalshHadamard(std::span<double> data) {
  FastWalshHadamard(data);
  const double scale = 1.0 / static_cast<double>(data.size());
  for (double& v : data) v *= scale;
}

double FourierCoefficient(const ContingencyTable& t, uint64_t alpha) {
  double sum = 0.0;
  for (uint64_t eta = 0; eta < t.size(); ++eta) {
    sum += HadamardSign(alpha, eta) * t[eta];
  }
  return sum;
}

FourierCoefficients::FourierCoefficients(int d, int max_order)
    : index_(d, max_order),
      values_(index_.size(), 0.0),
      present_(index_.size(), 0) {}

void FourierCoefficients::Set(uint64_t alpha, double value) {
  const size_t slot = index_.Of(alpha);
  LDPM_CHECK(slot != LowOrderIndex::kNone);
  if (!present_[slot]) {
    present_[slot] = 1;
    ++stored_;
  }
  values_[slot] = value;
}

StatusOr<double> FourierCoefficients::Get(uint64_t alpha) const {
  if (alpha == 0) return 1.0;
  const double* value = Stored(alpha);
  if (value == nullptr) {
    return Status::NotFound("FourierCoefficients: coefficient not present");
  }
  return *value;
}

StatusOr<MarginalTable> FourierCoefficients::ReconstructMarginal(
    uint64_t beta) const {
  const int d = dimensions();
  if (d < 64 && beta >= (uint64_t{1} << d)) {
    return Status::OutOfRange("ReconstructMarginal: beta outside domain");
  }
  return MarginalFromCoefficients(
      d, beta, [this](uint64_t alpha) -> std::optional<double> {
        const double* value = Stored(alpha);
        if (value == nullptr) return std::nullopt;
        return *value;
      });
}

StatusOr<std::vector<double>> FourierCoefficients::ReconstructAllMarginals()
    const {
  if (stored_ != values_.size()) {
    return Status::FailedPrecondition(
        "ReconstructAllMarginals: the coefficient export is incomplete");
  }
  const int d = dimensions();
  size_t total = 0;
  for (int r = 1; r <= max_order(); ++r) total += BinomialLookup(d, r) << r;
  std::vector<double> cells(total);
  double* table = cells.data();
  int position[kMaxDimensions] = {};  // [i]: bit of beta's i-th attribute
  for (int r = 1; r <= max_order(); ++r) {
    const size_t size = size_t{1} << r;
    ForEachMaskWithPopcount(d, r, [&](uint64_t beta) {
      LDPM_DCHECK(table == cells.data() + MarginalCellOffset(d, beta));
      int i = 0;
      for (uint64_t bits = beta; bits != 0; bits &= bits - 1) {
        position[i++] = std::countr_zero(bits);
      }
      // Cell c holds f_alpha for alpha = DepositBits(c, beta), whose slot
      // is its order's first slot plus its colex rank: sum_j C(p_j, j)
      // over its set bits p_1 < p_2 < ...
      table[0] = 1.0;
      for (uint64_t c = 1; c < size; ++c) {
        size_t rank = 0;
        int order = 0;
        for (uint64_t bits = c; bits != 0; bits &= bits - 1) {
          rank += BinomialLookup(position[std::countr_zero(bits)], ++order);
        }
        table[c] = values_[index_.FirstSlot(order) + rank];
      }
      InverseFastWalshHadamard({table, size});
      table += size;
    });
  }
  return cells;
}

FourierCoefficients FourierCoefficients::FromCells(std::vector<double> cells,
                                                   int max_order) {
  FastWalshHadamard(cells);  // check-fails unless the size is 2^d
  const int d = std::countr_zero(cells.size());
  FourierCoefficients fc(d, max_order);
  ForEachLowOrderMask(d, max_order,
                      [&](uint64_t alpha) { fc.Set(alpha, cells[alpha]); });
  return fc;
}

}  // namespace ldpm
