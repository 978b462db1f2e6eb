#include "analysis/consistency.h"

#include <algorithm>
#include <optional>

#include "core/bits.h"

namespace ldpm {

namespace {

Status CheckInputs(const std::vector<MarginalTable>& marginals, int d,
                   const std::vector<double>& weights) {
  if (marginals.empty()) {
    return Status::InvalidArgument("FitSharedCoefficients: no marginals");
  }
  if (!weights.empty() && weights.size() != marginals.size()) {
    return Status::InvalidArgument(
        "FitSharedCoefficients: weights/marginals length mismatch");
  }
  if (d < 0 || d > kMaxDimensions) {
    return Status::InvalidArgument("FitSharedCoefficients: bad dimension");
  }
  for (size_t i = 0; i < marginals.size(); ++i) {
    if (marginals[i].dimensions() != d) {
      return Status::InvalidArgument(
          "FitSharedCoefficients: marginal dimension mismatch");
    }
    if ((marginals[i].beta() >> d) != 0) {
      return Status::InvalidArgument(
          "FitSharedCoefficients: selector outside the domain");
    }
    if (!weights.empty() && !(weights[i] >= 0.0)) {
      return Status::InvalidArgument(
          "FitSharedCoefficients: weights must be non-negative");
    }
  }
  return Status::OK();
}

// Accumulates weighted coefficient votes: for every nonzero alpha ⪯ beta of
// an input with weight w, w times the input's implied f_alpha goes to
// sums[slot(alpha)] and w to totals[slot(alpha)]. The implied estimate is
// f_alpha = sum_gamma C_beta[gamma] (-1)^{<alpha,gamma>}, computed on
// compact indices (the inner product restricted to beta's bits equals the
// full-width one because alpha ⪯ beta).
template <class Slot>
void AddVotes(const std::vector<MarginalTable>& marginals,
              const std::vector<double>& weights, Slot slot,
              std::vector<double>& sums, std::vector<double>& totals) {
  for (size_t i = 0; i < marginals.size(); ++i) {
    const MarginalTable& m = marginals[i];
    const double w = weights.empty() ? 1.0 : weights[i];
    if (w == 0.0) continue;
    // FWHT of the compact cell vector gives all 2^k implied coefficients.
    std::vector<double> spectrum(m.values());
    FastWalshHadamard(spectrum);
    for (uint64_t r = 1; r < m.size(); ++r) {
      const size_t s = slot(DepositBits(r, m.beta()));
      sums[s] += w * spectrum[r];
      totals[s] += w;
    }
  }
}

}  // namespace

StatusOr<FourierCoefficients> FitSharedCoefficients(
    const std::vector<MarginalTable>& marginals, int d,
    const std::vector<double>& weights) {
  LDPM_RETURN_IF_ERROR(CheckInputs(marginals, d, weights));
  // One dense slot per alpha of order up to the highest input order.
  int max_order = 0;
  for (const MarginalTable& m : marginals) {
    max_order = std::max(max_order, m.order());
  }
  const LowOrderIndex index(d, max_order);
  std::vector<double> sums(index.size(), 0.0);
  std::vector<double> totals(index.size(), 0.0);
  AddVotes(
      marginals, weights, [&](uint64_t alpha) { return index.Of(alpha); },
      sums, totals);

  FourierCoefficients fitted(d, max_order);
  ForEachLowOrderMask(d, max_order, [&](uint64_t alpha) {
    const size_t slot = index.Of(alpha);
    if (totals[slot] > 0.0) fitted.Set(alpha, sums[slot] / totals[slot]);
  });
  return fitted;
}

StatusOr<std::vector<MarginalTable>> MakeConsistent(
    const std::vector<MarginalTable>& marginals, int d,
    const std::vector<double>& weights) {
  LDPM_RETURN_IF_ERROR(CheckInputs(marginals, d, weights));
  // Slots only for the coefficients under some input, sorted, so the fit
  // costs what the inputs hold rather than every alpha up to their order.
  std::vector<uint64_t> alphas;
  for (const MarginalTable& m : marginals) {
    ForEachSubset(m.beta(), [&](uint64_t alpha) {
      if (alpha != 0) alphas.push_back(alpha);
    });
  }
  std::sort(alphas.begin(), alphas.end());
  alphas.erase(std::unique(alphas.begin(), alphas.end()), alphas.end());
  const auto slot = [&](uint64_t alpha) {
    return static_cast<size_t>(
        std::lower_bound(alphas.begin(), alphas.end(), alpha) -
        alphas.begin());
  };
  std::vector<double> sums(alphas.size(), 0.0);
  std::vector<double> totals(alphas.size(), 0.0);
  AddVotes(marginals, weights, slot, sums, totals);

  // Each table is rebuilt from the fitted f_alpha = sums / totals, the
  // value FitSharedCoefficients stores, so the two agree bit for bit.
  std::vector<MarginalTable> out;
  out.reserve(marginals.size());
  for (const MarginalTable& m : marginals) {
    auto rebuilt = MarginalFromCoefficients(
        d, m.beta(), [&](uint64_t alpha) -> std::optional<double> {
          const size_t s = slot(alpha);
          if (!(totals[s] > 0.0)) return std::nullopt;
          return sums[s] / totals[s];
        });
    if (!rebuilt.ok()) return rebuilt.status();
    out.push_back(*std::move(rebuilt));
  }
  return out;
}

}  // namespace ldpm
