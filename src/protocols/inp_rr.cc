#include "protocols/inp_rr.h"

#include <algorithm>
#include <string>

#include "core/marginal.h"
#include "protocols/wire.h"

namespace ldpm {

namespace {

/// Records per group: fifteen 16-record carry-save blocks. Eight vertical
/// bit planes could count to 255, but a group of whole blocks never takes
/// the slower one-record ripple except at the end of a batch.
constexpr size_t kGroupSize = 240;

/// Fold the integer scratch into the doubles before any cell's pending
/// count could overflow uint32 (each group adds at most kGroupSize).
constexpr uint64_t kMaxPendingPerCell = (uint64_t{1} << 31);

/// Carry-save adder over 64 bit lanes: high:low = a + b + c per lane.
inline void Csa(uint64_t& high, uint64_t& low, uint64_t a, uint64_t b,
                uint64_t c) {
  const uint64_t u = a ^ b;
  high = (a & b) | (u & c);
  low = u ^ c;
}

/// Bitmap words kept in flight at once: their eight bit planes (8 x 64
/// words x 8 bytes = 4 KB) live on the stack and stay in L1.
constexpr size_t kTileWords = 64;

/// planes[j][w] holds bit j of the pending counts of the 64 cells of tile
/// word w (bit i of it belongs to cell 64w + i).
using TilePlanes = uint64_t[8][kTileWords];

/// Adds `bits` (weight 2^from) into tile word w's vertical counters. The
/// caller keeps every cell's count below 256, so nothing carries out.
inline void Ripple(TilePlanes& planes, size_t w, int from, uint64_t bits) {
  for (int j = from; j < 8; ++j) {
    const uint64_t carry = planes[j][w] & bits;
    planes[j][w] ^= bits;
    bits = carry;
  }
}

/// Counts, per cell of the `tile` bitmap words starting at word w0, how
/// many of the m <= 255 records set it. Sixteen records at a time go
/// through a Harley–Seal carry-save tree (Mula, Kurz & Lemire, arXiv
/// 1611.07612) into the 1s..8s planes, whose 16s carry ripples into the
/// 16s..128s planes; the last m % 16 records ripple in one at a time.
/// Each block of sixteen records is read word by word in address order,
/// so a group streams through memory rather than striding across it.
template <typename Load>
void CountTile(const uint8_t* const* records, size_t m, size_t w0,
               size_t tile, Load load, TilePlanes& planes) {
  size_t r = 0;
  for (; r + 16 <= m; r += 16) {
    const uint8_t* const* in = records + r;
    for (size_t w = 0; w < tile; ++w) {
      const size_t word = w0 + w;
      uint64_t ones = planes[0][w];
      uint64_t twos = planes[1][w];
      uint64_t fours = planes[2][w];
      uint64_t eights = planes[3][w];
      uint64_t twos_a = 0, twos_b = 0, fours_a = 0, fours_b = 0;
      uint64_t eights_a = 0, eights_b = 0, sixteens = 0;
      Csa(twos_a, ones, ones, load(in[0], word), load(in[1], word));
      Csa(twos_b, ones, ones, load(in[2], word), load(in[3], word));
      Csa(fours_a, twos, twos, twos_a, twos_b);
      Csa(twos_a, ones, ones, load(in[4], word), load(in[5], word));
      Csa(twos_b, ones, ones, load(in[6], word), load(in[7], word));
      Csa(fours_b, twos, twos, twos_a, twos_b);
      Csa(eights_a, fours, fours, fours_a, fours_b);
      Csa(twos_a, ones, ones, load(in[8], word), load(in[9], word));
      Csa(twos_b, ones, ones, load(in[10], word), load(in[11], word));
      Csa(fours_a, twos, twos, twos_a, twos_b);
      Csa(twos_a, ones, ones, load(in[12], word), load(in[13], word));
      Csa(twos_b, ones, ones, load(in[14], word), load(in[15], word));
      Csa(fours_b, twos, twos, twos_a, twos_b);
      Csa(eights_b, fours, fours, fours_a, fours_b);
      Csa(sixteens, eights, eights, eights_a, eights_b);
      planes[0][w] = ones;
      planes[1][w] = twos;
      planes[2][w] = fours;
      planes[3][w] = eights;
      Ripple(planes, w, 4, sixteens);
    }
  }
  for (; r < m; ++r) {
    for (size_t w = 0; w < tile; ++w) {
      Ripple(planes, w, 0, load(records[r], w0 + w));
    }
  }
}

/// Adds the counts held in the planes of tile word w to the `cells` (<= 64)
/// scratch counters at `counts`. An 8x8 bit transpose in every byte lane
/// (three rounds of block swaps) turns byte b of plane j, bit j of cells
/// 8b..8b+7, into byte b of word i, the 8-bit count of cell 8b + i.
inline void ExpandWord(const TilePlanes& planes, size_t w, size_t cells,
                       uint32_t* counts) {
  uint64_t x[8];
  for (int j = 0; j < 8; ++j) x[j] = planes[j][w];
  constexpr uint64_t kMasks[3] = {0x0F0F0F0F0F0F0F0Full, 0x3333333333333333ull,
                                  0x5555555555555555ull};
  for (int round = 0; round < 3; ++round) {
    const int shift = 4 >> round;
    for (int i = 0; i < 8; ++i) {
      if (i & shift) continue;
      const uint64_t t = ((x[i] >> shift) ^ x[i + shift]) & kMasks[round];
      x[i + shift] ^= t;
      x[i] ^= t << shift;
    }
  }
  for (size_t cell = 0; cell < cells; ++cell) {
    counts[cell] += (x[cell % 8] >> (8 * (cell / 8))) & 0xFF;
  }
}

}  // namespace

StatusOr<std::unique_ptr<InpRrProtocol>> InpRrProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.d > kMaxDenseDimensions) {
    return Status::InvalidArgument(
        "InpRR: d = " + std::to_string(config.d) +
        " exceeds the dense-table limit (the protocol is O(2^d) per user)");
  }
  auto unary = UnaryEncoding::Create(config.epsilon, config.unary_variant);
  if (!unary.ok()) return unary.status();
  return std::unique_ptr<InpRrProtocol>(new InpRrProtocol(config, *unary));
}

Report InpRrProtocol::Encode(uint64_t user_value, Rng& rng) const {
  const uint64_t domain = uint64_t{1} << config_.d;
  LDPM_DCHECK(user_value < domain);
  Report report;
  report.ones = unary_.PerturbOneHot(domain, user_value, rng);
  report.bits = static_cast<double>(domain);
  return report;
}

Status InpRrProtocol::Absorb(const Report& report) {
  LDPM_RETURN_IF_ERROR(CheckReportPositions(
      report.ones, uint64_t{1} << config_.d, "InpRR::Absorb"));
  for (uint64_t pos : report.ones) reals_[pos] += 1.0;
  NoteAbsorbed(report);
  return Status::OK();
}

void InpRrProtocol::EnsureBatchScratch() {
  if (batch_counts_.empty()) batch_counts_.assign(uint64_t{1} << config_.d, 0);
}

void InpRrProtocol::AbsorbPackedGroup(const uint8_t* const* payloads,
                                      size_t m) {
  const uint64_t domain = uint64_t{1} << config_.d;
  const size_t payload_bytes = (domain + 7) / 8;
  if (payload_bytes < 8) {
    // A d <= 5 bitmap is one short word. Its bits at or above `domain`
    // (d <= 2) are serialization padding that DeserializeReport ignores;
    // they are counted in lanes that are never expanded.
    TilePlanes planes = {};
    CountTile(payloads, m, 0, 1,
              [payload_bytes](const uint8_t* record, size_t) {
                return LoadWireWord(record, payload_bytes);
              },
              planes);
    ExpandWord(planes, 0, domain, batch_counts_.data());
    return;
  }
  // Bitmap word w, in the little-endian bit order of SerializeReport.
  const auto load = [](const uint8_t* record, size_t w) {
    return LoadWireWord(record + 8 * w, 8);
  };
  const size_t words = payload_bytes / 8;
  for (size_t w0 = 0; w0 < words; w0 += kTileWords) {
    const size_t tile = std::min(kTileWords, words - w0);
    TilePlanes planes = {};
    CountTile(payloads, m, w0, tile, load, planes);
    for (size_t w = 0; w < tile; ++w) {
      ExpandWord(planes, w, 64, batch_counts_.data() + (w0 + w) * 64);
    }
  }
}

void InpRrProtocol::FoldBatchCounts() {
  for (size_t cell = 0; cell < batch_counts_.size(); ++cell) {
    reals_[cell] += static_cast<double>(batch_counts_[cell]);
    batch_counts_[cell] = 0;
  }
}

Status InpRrProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const uint64_t domain = uint64_t{1} << config_.d;
  const size_t payload_bytes = (domain + 7) / 8;
  EnsureBatchScratch();
  WireBatchReader reader(data, size);
  const uint8_t* group[kGroupSize];
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  size_t m = 0;
  uint64_t absorbed = 0;
  uint64_t since_fold = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpRR::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    group[m++] = record;
    if (m == kGroupSize) {
      AbsorbPackedGroup(group, m);
      absorbed += m;
      since_fold += m;
      m = 0;
      if (since_fold >= kMaxPendingPerCell - kGroupSize) {
        FoldBatchCounts();
        since_fold = 0;
      }
    }
  }
  if (error.ok()) error = reader.status();
  if (m > 0) {
    AbsorbPackedGroup(group, m);
    absorbed += m;
  }
  FoldBatchCounts();
  NoteAbsorbedBatch(absorbed, static_cast<double>(domain));
  return error;
}

Status InpRrProtocol::AbsorbPopulation(const std::vector<uint64_t>& rows,
                                       Rng& rng) {
  const uint64_t domain = uint64_t{1} << config_.d;
  // True histogram of the population.
  std::vector<uint64_t> histogram(domain, 0);
  for (uint64_t row : rows) {
    if (row >= domain) {
      return Status::InvalidArgument("InpRR: row outside domain");
    }
    ++histogram[row];
  }
  const uint64_t n = rows.size();
  // Each cell's aggregate reported-one count is the sum of N independent
  // coins: Binomial(n_j, p1) from users whose true cell is j plus
  // Binomial(N - n_j, p0) from everyone else. Cells are independent given
  // the inputs, so sampling per cell matches the per-user path in
  // distribution exactly.
  for (uint64_t cell = 0; cell < domain; ++cell) {
    reals_[cell] +=
        static_cast<double>(rng.Binomial(histogram[cell], unary_.p1())) +
        static_cast<double>(rng.Binomial(n - histogram[cell], unary_.p0()));
  }
  Report accounting;
  accounting.bits = static_cast<double>(domain);
  for (uint64_t i = 0; i < n; ++i) NoteAbsorbed(accounting);
  return Status::OK();
}

StatusOr<MarginalTable> InpRrProtocol::EstimateMarginal(uint64_t beta) const {
  const uint64_t domain = uint64_t{1} << config_.d;
  if (beta >= domain) {
    return Status::OutOfRange("InpRR: beta outside domain");
  }
  const uint64_t n = reports_absorbed();
  if (n == 0) {
    return Status::FailedPrecondition("InpRR: no reports absorbed");
  }
  // Unbias each cell and aggregate straight into the marginal.
  MarginalTable m(config_.d, beta);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (uint64_t cell = 0; cell < domain; ++cell) {
    const double t_hat =
        unary_.UnbiasCount(reals_[cell], static_cast<double>(n)) * inv_n;
    m.at_compact(ExtractBits(cell, beta)) += t_hat;
  }
  return m;
}

StatusOr<FourierCoefficients> InpRrProtocol::EstimateCoefficients(
    int max_order) const {
  LDPM_RETURN_IF_ERROR(CheckCoefficientExport(max_order));
  const double n = static_cast<double>(reports_absorbed());
  const double inv_n = 1.0 / n;
  std::vector<double> estimate(reals_.size());
  for (uint64_t cell = 0; cell < reals_.size(); ++cell) {
    estimate[cell] = unary_.UnbiasCount(reals_[cell], n) * inv_n;
  }
  return FourierCoefficients::FromCells(std::move(estimate), max_order);
}

}  // namespace ldpm
