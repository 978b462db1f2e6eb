#include "protocols/inp_em.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "core/bits.h"
#include "core/encoding.h"
#include "protocols/wire.h"

namespace ldpm {

namespace {

// Iterates EM from the guess `mu` until it converges or reaches the
// iteration cap, recording the diagnostics in `result`. Q(y|z) is
// q_by_flips[y ^ z]. `Cells` is std::vector<double>, or std::array<double,
// 2^|beta|> for |beta| <= 3, where the fixed count lets the compiler unroll
// the loops and keep the guess in registers. Either way the sums and
// products run in the same order.
template <typename Cells>
void RunEm(const Cells& observed, const Cells& q_by_flips,
           const ProtocolConfig& config, Cells& mu, EmDecodeResult& result) {
  const size_t cells = mu.size();
  Cells next = mu;
  for (int iter = 1; iter <= config.em_max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    // E + M fused: next(z) = sum_y obs(y) * mu(z) Q(y|z) / sum_z' mu(z')Q(y|z')
    for (size_t y = 0; y < cells; ++y) {
      if (observed[y] == 0.0) continue;
      double denom = 0.0;
      for (size_t z = 0; z < cells; ++z) {
        denom += mu[z] * q_by_flips[y ^ z];
      }
      if (denom <= 0.0) continue;
      const double w = observed[y] / denom;
      for (size_t z = 0; z < cells; ++z) {
        next[z] += w * mu[z] * q_by_flips[y ^ z];
      }
    }

    // "Change in the current guess" is measured as the max per-cell move
    // (L-infinity); see the header note on the failure criterion.
    double change = 0.0;
    for (size_t z = 0; z < cells; ++z) {
      change = std::max(change, std::fabs(next[z] - mu[z]));
    }
    std::swap(mu, next);
    result.iterations = iter;
    result.final_change = change;
    if (change < config.em_convergence_threshold) {
      result.failed_to_leave_prior = (iter == 1);
      break;
    }
  }
}

// RunEm on fixed-size copies of the three inputs.
template <size_t kCells>
void RunFixedEm(const std::vector<double>& observed,
                const std::vector<double>& q_by_flips,
                const ProtocolConfig& config, std::vector<double>& mu,
                EmDecodeResult& result) {
  std::array<double, kCells> fixed_observed, fixed_q, fixed_mu;
  std::copy(observed.begin(), observed.end(), fixed_observed.begin());
  std::copy(q_by_flips.begin(), q_by_flips.end(), fixed_q.begin());
  std::copy(mu.begin(), mu.end(), fixed_mu.begin());
  RunEm(fixed_observed, fixed_q, config, fixed_mu, result);
  std::copy(fixed_mu.begin(), fixed_mu.end(), mu.begin());
}

}  // namespace

InpEmProtocol::InpEmProtocol(const ProtocolConfig& config,
                             RandomizedResponse per_bit_rr)
    : MarginalProtocol(config), per_bit_rr_(per_bit_rr) {
  if (UsesHistogram()) histogram_.assign(size_t{1} << config.d, 0);
}

StatusOr<std::unique_ptr<InpEmProtocol>> InpEmProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (!(config.em_convergence_threshold > 0.0)) {
    return Status::InvalidArgument(
        "InpEM: convergence threshold must be > 0");
  }
  if (config.em_max_iterations < 1) {
    return Status::InvalidArgument("InpEM: iteration cap must be >= 1");
  }
  auto rr = RandomizedResponse::FromEpsilon(config.epsilon /
                                            static_cast<double>(config.d));
  if (!rr.ok()) return rr.status();
  return std::unique_ptr<InpEmProtocol>(new InpEmProtocol(config, *rr));
}

Report InpEmProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  uint64_t out = 0;
  for (int b = 0; b < config_.d; ++b) {
    const int bit = static_cast<int>((user_value >> b) & 1);
    if (per_bit_rr_.PerturbBit(bit, rng)) out |= uint64_t{1} << b;
  }
  report.value = out;
  report.bits = static_cast<double>(config_.d);
  return report;
}

Status InpEmProtocol::Absorb(const Report& report) {
  if (config_.d < 64 && report.value >= (uint64_t{1} << config_.d)) {
    return Status::InvalidArgument("InpEM::Absorb: response outside domain");
  }
  Record(report.value);
  NoteAbsorbed(report);
  return Status::OK();
}

// Grows the report log for `additional` entries while preserving the
// vector's geometric growth (a bare reserve(size + n) per batch would pin
// capacity to the exact size and turn repeated batches quadratic).
void InpEmProtocol::ReserveLog(size_t additional) {
  if (UsesHistogram()) return;
  const size_t needed = reports_.size() + additional;
  if (needed <= reports_.capacity()) return;
  reports_.reserve(std::max(needed, reports_.capacity() * 2));
}

Status InpEmProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const size_t payload_bytes = (static_cast<size_t>(d) + 7) / 8;
  // Every record is framed as 4 length bytes + the payload.
  ReserveLog(size / (4 + payload_bytes));
  const uint64_t value_mask = (uint64_t{1} << d) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpEM::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    Record(LoadWireWord(record, record_size) & value_mask);
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, static_cast<double>(d));
  return error;
}

StatusOr<EmDecodeResult> InpEmProtocol::Decode(uint64_t beta) const {
  if (config_.d < 64 && beta >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange("InpEM: beta outside domain");
  }
  const int k = Popcount(beta);
  if (k < 1 || k > 20) {
    return Status::InvalidArgument("InpEM: marginal order must be in [1, 20]");
  }
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition("InpEM: no reports absorbed");
  }

  const uint64_t cells = uint64_t{1} << k;

  // Observed counts over the 2^k response combinations for beta's bits.
  // They are summed as integers below 2^53: exact in any order, so both
  // paths give the same counts. The histogram is walked in rows of 2^(d/2)
  // cells, and a cell's projection is its row's OR its column's, so
  // ExtractBits runs once per row and per column instead of once per cell.
  std::vector<uint64_t> counts(cells, 0);
  if (UsesHistogram()) {
    const uint64_t row_size = uint64_t{1} << (config_.d / 2);
    std::vector<uint64_t> column_cell(row_size);
    for (uint64_t column = 0; column < row_size; ++column) {
      column_cell[column] = ExtractBits(column, beta);
    }
    for (uint64_t row = 0; row < histogram_.size(); row += row_size) {
      const uint64_t row_cell = ExtractBits(row, beta);
      for (uint64_t column = 0; column < row_size; ++column) {
        counts[row_cell | column_cell[column]] += histogram_[row + column];
      }
    }
  }
  for (uint64_t r : reports_) ++counts[ExtractBits(r, beta)];
  const double n = static_cast<double>(reports_absorbed());
  std::vector<double> observed(cells);
  for (uint64_t y = 0; y < cells; ++y) {
    observed[y] = static_cast<double>(counts[y]) / n;
  }

  // Channel likelihoods Q(y|z) depend only on the Hamming distance between
  // observed y and latent z across the k projected bits, so one table
  // indexed by the flip pattern y ^ z holds the whole channel: 2^k entries,
  // where the full matrix would take 4^k.
  const double p = per_bit_rr_.keep_probability();
  std::vector<double> q_by_distance(k + 1);
  for (int h = 0; h <= k; ++h) {
    q_by_distance[h] = std::pow(1.0 - p, h) * std::pow(p, k - h);
  }
  std::vector<double> q_by_flips(cells);
  for (uint64_t x = 0; x < cells; ++x) {
    q_by_flips[x] = q_by_distance[Popcount(x)];
  }

  EmDecodeResult result{MarginalTable::Uniform(config_.d, beta)};
  std::vector<double> mu(result.estimate.values());
  switch (cells) {
    case 2:
      RunFixedEm<2>(observed, q_by_flips, config_, mu, result);
      break;
    case 4:
      RunFixedEm<4>(observed, q_by_flips, config_, mu, result);
      break;
    case 8:
      RunFixedEm<8>(observed, q_by_flips, config_, mu, result);
      break;
    default:
      RunEm(observed, q_by_flips, config_, mu, result);
      break;
  }
  result.estimate.values() = mu;
  return result;
}

StatusOr<MarginalTable> InpEmProtocol::EstimateMarginal(uint64_t beta) const {
  auto decoded = Decode(beta);
  if (!decoded.ok()) return decoded.status();
  return std::move(decoded->estimate);
}

void InpEmProtocol::Reset() {
  std::fill(histogram_.begin(), histogram_.end(), 0);
  reports_.clear();
  ResetBookkeeping();
}

Status InpEmProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpEmProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("InpEM::MergeFrom: type mismatch");
  }
  // Decoding depends only on the projected counts, so neither adding
  // histogram cells nor the order of the concatenated logs changes it.
  for (size_t y = 0; y < histogram_.size(); ++y) {
    histogram_[y] += peer->histogram_[y];
  }
  reports_.insert(reports_.end(), peer->reports_.begin(),
                  peer->reports_.end());
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout for d <= kMaxHistogramDimensions: reals = the response histogram,
// 2^d exact integer counts indexed by the packed perturbed response; counts
// is empty. Above it: counts = the packed perturbed d-bit responses, in
// arrival order; reals is empty. LoadState also accepts the log layout for
// d <= kMaxHistogramDimensions (snapshots written before the histogram) and
// converts it.
void InpEmProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.reals.assign(histogram_.begin(), histogram_.end());
  snapshot.counts = reports_;
}

Status InpEmProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  const bool has_histogram = !snapshot.reals.empty();
  if (has_histogram &&
      (!UsesHistogram() || !snapshot.counts.empty() ||
       snapshot.reals.size() != histogram_.size())) {
    return Status::InvalidArgument("InpEM::Restore: malformed snapshot");
  }
  std::vector<uint64_t> histogram(histogram_.size(), 0);
  if (!has_histogram) {
    if (snapshot.counts.size() != snapshot.reports_absorbed) {
      return Status::InvalidArgument("InpEM::Restore: malformed snapshot");
    }
    for (uint64_t r : snapshot.counts) {
      if (r >= (uint64_t{1} << config_.d)) {
        return Status::InvalidArgument(
            "InpEM::Restore: logged response outside domain");
      }
    }
    if (!UsesHistogram()) {
      reports_ = snapshot.counts;
      return Status::OK();
    }
    for (uint64_t r : snapshot.counts) ++histogram[r];
  } else {
    // Every cell must be an exact count: an integer in [0, 2^53].
    constexpr double kMaxExactCount = 9007199254740992.0;
    uint64_t total = 0;
    for (size_t y = 0; y < histogram.size(); ++y) {
      const double cell = snapshot.reals[y];
      if (!(cell >= 0.0 && cell <= kMaxExactCount) ||
          cell != std::floor(cell)) {
        return Status::InvalidArgument(
            "InpEM::Restore: histogram cell is not an exact count");
      }
      histogram[y] = static_cast<uint64_t>(cell);
      if (!CheckedAdd(total, histogram[y], &total)) {
        return Status::InvalidArgument(
            "InpEM::Restore: histogram total overflows");
      }
    }
    if (total != snapshot.reports_absorbed) {
      return Status::InvalidArgument(
          "InpEM::Restore: histogram does not sum to reports_absorbed");
    }
  }
  histogram_ = std::move(histogram);
  return Status::OK();
}

}  // namespace ldpm
