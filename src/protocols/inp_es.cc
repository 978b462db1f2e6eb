#include "protocols/inp_es.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "protocols/wire.h"

namespace ldpm {
namespace {

/// The largest coefficient set InpES samples. EsCoefficientCount refuses
/// anything above it, and Create runs that count before it enumerates.
constexpr uint64_t kMaxEsCoefficients = uint64_t{1} << 24;

using Support = std::vector<std::pair<int, uint32_t>>;

// Calls emit(support) for every coefficient with support size in [1, k]:
// for every attribute subset (chosen recursively) every combination of
// nonzero basis levels, depth first.
template <typename Emit>
void EnumerateSupports(const std::vector<uint32_t>& cardinalities, int k,
                       int first_attr, Support& partial, Emit& emit) {
  if (!partial.empty()) emit(partial);
  if (static_cast<int>(partial.size()) == k) return;
  const int d = static_cast<int>(cardinalities.size());
  for (int attr = first_attr; attr < d; ++attr) {
    for (uint32_t level = 1; level < cardinalities[attr]; ++level) {
      partial.emplace_back(attr, level);
      EnumerateSupports(cardinalities, k, attr + 1, partial, emit);
      partial.pop_back();
    }
  }
}

}  // namespace

std::vector<uint32_t> EsCardinalities(const ProtocolConfig& config) {
  if (!config.cardinalities.empty()) return config.cardinalities;
  return std::vector<uint32_t>(static_cast<size_t>(std::max(config.d, 0)), 2);
}

StatusOr<uint64_t> EsCoefficientCount(
    const std::vector<uint32_t>& cardinalities, int k) {
  const int d = static_cast<int>(cardinalities.size());
  if (d < 1) return Status::InvalidArgument("InpES: no attributes");
  if (k < 1 || k > d) {
    return Status::InvalidArgument("InpES: k must be in [1, d]");
  }
  for (uint32_t r : cardinalities) {
    if (r < 2) {
      return Status::InvalidArgument(
          "InpES: every cardinality must be >= 2, got " + std::to_string(r));
    }
  }
  // e[s] accumulates the elementary symmetric polynomial of degree s in
  // (r_1 - 1, ..., r_d - 1); |T| = e[1] + ... + e[k]. Saturate above the
  // sampling cap so the arithmetic cannot overflow uint64 (each term is
  // bounded by cap * 2^32 before clamping).
  std::vector<uint64_t> e(static_cast<size_t>(k) + 1, 0);
  e[0] = 1;
  for (uint32_t r : cardinalities) {
    const uint64_t weight = r - 1;
    for (int s = k; s >= 1; --s) {
      const uint64_t add = e[s - 1] > kMaxEsCoefficients
                               ? kMaxEsCoefficients + 1
                               : e[s - 1] * weight;
      e[s] = std::min(e[s] + add, kMaxEsCoefficients + 1);
    }
  }
  uint64_t count = 0;
  for (int s = 1; s <= k; ++s) {
    count = std::min(count + e[s], kMaxEsCoefficients + 1);
  }
  if (count == 0 || count > kMaxEsCoefficients) {
    return Status::InvalidArgument("InpES: coefficient set size out of range");
  }
  return count;
}

EsWireGeometry EsWireGeometryFromCount(uint64_t coefficient_count) {
  EsWireGeometry geometry;
  geometry.coefficient_count = coefficient_count;
  geometry.index_bits =
      coefficient_count <= 1
          ? 0
          : static_cast<int>(std::bit_width(coefficient_count - 1));
  geometry.total_bits = static_cast<uint64_t>(geometry.index_bits) + 1;
  return geometry;
}

StatusOr<EsWireGeometry> EsWireGeometryFor(const ProtocolConfig& config) {
  auto count = EsCoefficientCount(EsCardinalities(config), config.k);
  if (!count.ok()) return count.status();
  return EsWireGeometryFromCount(*count);
}

uint64_t PackMixedRadix(const std::vector<uint32_t>& tuple,
                        const std::vector<uint32_t>& cardinalities) {
  uint64_t value = 0;
  uint64_t stride = 1;
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    value += tuple[i] * stride;
    stride *= cardinalities[i];
  }
  return value;
}

InpEsProtocol::InpEsProtocol(const ProtocolConfig& config,
                             std::vector<uint32_t> cardinalities,
                             BasisKind basis, BoundedValueMechanism mechanism,
                             std::vector<AttributeBasis> bases,
                             std::vector<Coefficient> coefficients)
    : MarginalProtocol(config),
      cardinalities_(std::move(cardinalities)),
      mechanism_(mechanism),
      bases_(std::move(bases)),
      coefficients_(std::move(coefficients)) {
  // Per coefficient: reals_ the sum of reported signs, counts_ the number
  // of reports. The header names what those sums release: the
  // cardinalities, then, under the Helmert basis only, 2^32, a word no u32
  // cardinality equals. So Fourier snapshots, the only ones the factory
  // makes, keep their bytes.
  std::vector<uint64_t> header(cardinalities_.begin(), cardinalities_.end());
  if (basis == BasisKind::kHelmert) header.push_back(uint64_t{1} << 32);
  SetStateShape(coefficients_.size(), coefficients_.size(), std::move(header));
}

StatusOr<std::unique_ptr<InpEsProtocol>> InpEsProtocol::Create(
    const ProtocolConfig& config, BasisKind basis) {
  ProtocolConfig normalized = config;
  if (!config.cardinalities.empty()) {
    const int arity = static_cast<int>(config.cardinalities.size());
    if (config.d != 0 && config.d != arity) {
      return Status::InvalidArgument(
          "InpES: d = " + std::to_string(config.d) + " disagrees with " +
          std::to_string(arity) + " explicit cardinalities");
    }
    normalized.d = arity;
  }
  LDPM_RETURN_IF_ERROR(ValidateCommon(normalized));
  std::vector<uint32_t> cardinalities = EsCardinalities(normalized);
  // The closed-form count refuses a bad cardinality or an oversized
  // coefficient set before any basis is built or any support enumerated.
  auto count = EsCoefficientCount(cardinalities, normalized.k);
  if (!count.ok()) return count.status();

  std::vector<AttributeBasis> bases;
  bases.reserve(cardinalities.size());
  for (uint32_t r : cardinalities) {
    auto attribute_basis = basis == BasisKind::kHelmert
                               ? AttributeBasis::Helmert(r)
                               : AttributeBasis::Fourier(r);
    if (!attribute_basis.ok()) return attribute_basis.status();
    bases.push_back(*std::move(attribute_basis));
  }

  std::vector<Coefficient> coefficients;
  coefficients.reserve(*count);
  auto emit = [&](const Support& support) {
    Coefficient c;
    c.support = support;
    for (const auto& [attr, level] : support) {
      c.bound *= bases[attr].MaxAbs(level);
    }
    coefficients.push_back(std::move(c));
  };
  Support partial;
  EnumerateSupports(cardinalities, normalized.k, 0, partial, emit);
  LDPM_DCHECK(coefficients.size() == *count);

  auto mechanism = BoundedValueMechanism::Create(normalized.epsilon);
  if (!mechanism.ok()) return mechanism.status();
  return std::unique_ptr<InpEsProtocol>(new InpEsProtocol(
      normalized, std::move(cardinalities), basis, *mechanism,
      std::move(bases), std::move(coefficients)));
}

Report InpEsProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  report.value = rng.UniformInt(coefficients_.size());
  const Coefficient& c = coefficients_[report.value];
  // The support ascends by attribute, so one pass of mixed-radix divisions
  // reaches each supporting digit (reduced mod r_i).
  double value = 1.0;
  uint64_t rest = user_value;
  size_t digit = 0;
  for (const auto& [attr, level] : c.support) {
    for (; digit < static_cast<size_t>(attr); ++digit) {
      rest /= cardinalities_[digit];
    }
    value *= bases_[attr].Value(
        level, static_cast<uint32_t>(rest % cardinalities_[attr]));
  }
  report.sign = mechanism_.Perturb(value, c.bound, rng);
  report.bits = TheoreticalBitsPerUser();
  return report;
}

Status InpEsProtocol::Absorb(const Report& report) {
  if (report.value >= coefficients_.size()) {
    return Status::InvalidArgument("InpES::Absorb: unknown coefficient");
  }
  if (report.sign != -1 && report.sign != 1) {
    return Status::InvalidArgument("InpES::Absorb: sign must be -1 or +1");
  }
  reals_[report.value] += static_cast<double>(report.sign);
  counts_[report.value] += 1;
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpEsProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  // Fixed record geometry, computed once per batch: at most 25 bits per
  // record (|T| <= 2^24), so every record parses with a single word load.
  const EsWireGeometry geometry = EsWireGeometryFromCount(coefficients_.size());
  const uint64_t count = geometry.coefficient_count;
  const int index_bits = geometry.index_bits;
  const double bits_per_report = static_cast<double>(geometry.total_bits);
  const size_t record_bytes = (geometry.total_bits + 7) / 8;
  const uint64_t index_mask =
      index_bits == 0 ? 0 : (uint64_t{1} << index_bits) - 1;

  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != record_bytes) {
      error = Status::InvalidArgument(
          "InpES: wire record of " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(record_bytes));
      break;
    }
    const uint64_t word = LoadWireWord(record, record_size);
    const uint64_t coefficient = word & index_mask;
    if (coefficient >= count) {
      error = Status::InvalidArgument("InpES::Absorb: unknown coefficient");
      break;
    }
    reals_[coefficient] += (word >> index_bits) & 1 ? 1.0 : -1.0;
    counts_[coefficient] += 1;
    ++absorbed;
  }
  // Prefix semantics: everything before a malformed record stays absorbed
  // and counted, exactly like the per-report path.
  NoteAbsorbedBatch(absorbed, bits_per_report);
  if (!error.ok()) return error;
  return reader.status();
}

StatusOr<MarginalTable> InpEsProtocol::EstimateMarginal(uint64_t beta) const {
  const int d = config_.d;
  if (beta == 0 || (d < 64 && beta >= (uint64_t{1} << d))) {
    return Status::InvalidArgument(
        "InpES: selector must name a nonempty subset of the " +
        std::to_string(d) + " attributes");
  }
  std::vector<int> attrs;
  for (uint64_t rest = beta; rest != 0; rest &= rest - 1) {
    const int attr = std::countr_zero(rest);
    if (cardinalities_[attr] != 2) {
      return Status::InvalidArgument(
          "InpES: attribute " + std::to_string(attr) + " has cardinality " +
          std::to_string(cardinalities_[attr]) +
          "; non-binary marginals are answered by EstimateCategorical");
    }
    attrs.push_back(attr);
  }
  auto categorical = EstimateCategorical(attrs);
  if (!categorical.ok()) return categorical.status();
  // Ascending binary attributes: mixed-radix cell index bit j is the value
  // of the j-th lowest set bit of beta — exactly MarginalTable's compact
  // indexing, so the cells copy across verbatim.
  MarginalTable table(d, beta);
  LDPM_DCHECK(table.size() == categorical->probabilities.size());
  for (uint64_t cell = 0; cell < table.size(); ++cell) {
    table.at_compact(cell) = categorical->probabilities[cell];
  }
  return table;
}

StatusOr<CategoricalMarginal> InpEsProtocol::EstimateCategorical(
    const std::vector<int>& attrs) const {
  const int d = static_cast<int>(cardinalities_.size());
  if (attrs.empty() || static_cast<int>(attrs.size()) > config_.k) {
    return Status::InvalidArgument(
        "InpES: marginal order must lie in [1, k]");
  }
  std::vector<int> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= d) {
      return Status::OutOfRange("InpES: attribute id out of range");
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("InpES: duplicate attribute");
    }
  }
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition("InpES: no reports absorbed");
  }

  // Position of each attribute within the caller's order (for mixed radix).
  std::vector<int> position(d, -1);
  uint64_t cells = 1;
  std::vector<uint64_t> radix(attrs.size(), 1);
  for (size_t i = 0; i < attrs.size(); ++i) {
    position[attrs[i]] = static_cast<int>(i);
    radix[i] = cells;
    cells *= cardinalities_[attrs[i]];
  }

  CategoricalMarginal out;
  out.attributes = attrs;
  out.probabilities.assign(cells, 1.0);  // the f_empty = 1 term

  const double expected_per_coeff =
      static_cast<double>(reports_absorbed()) /
      static_cast<double>(coefficients_.size());
  for (size_t ci = 0; ci < coefficients_.size(); ++ci) {
    const Coefficient& c = coefficients_[ci];
    // Only coefficients supported inside the queried attribute set count.
    if (std::any_of(c.support.begin(), c.support.end(),
                    [&](const auto& s) { return position[s.first] < 0; })) {
      continue;
    }

    double mean_sign = 0.0;
    if (config_.estimator == EstimatorKind::kRatio) {
      mean_sign = counts_[ci] > 0
                      ? reals_[ci] / static_cast<double>(counts_[ci])
                      : 0.0;
    } else {
      mean_sign = reals_[ci] / expected_per_coeff;
    }
    const double f_hat = mechanism_.UnbiasSignMean(mean_sign, c.bound);

    // Accumulate f_hat * prod e_{t_i}(gamma_i) into every cell.
    for (uint64_t cell = 0; cell < cells; ++cell) {
      double term = f_hat;
      for (const auto& [attr, level] : c.support) {
        const int pos = position[attr];
        const uint32_t gamma =
            static_cast<uint32_t>((cell / radix[pos]) % cardinalities_[attr]);
        term *= bases_[attr].Value(level, gamma);
      }
      out.probabilities[cell] += term;
    }
  }

  const double scale = 1.0 / static_cast<double>(cells);
  for (double& p : out.probabilities) p *= scale;
  return out;
}

double InpEsProtocol::TheoreticalBitsPerUser() const {
  return std::ceil(std::log2(static_cast<double>(coefficients_.size()))) + 1.0;
}

}  // namespace ldpm
