// InpRR: parallel randomized response on the full one-hot input
// (Section 4.2, Theorem 4.3).
//
// Each user expands their value into the 2^d one-hot vector and perturbs
// every cell with (eps/2)-RR (or the Wang-optimized probabilities). The
// aggregator unbiases the per-cell counts into an estimate of the full
// distribution and answers any marginal by aggregation.
//
// Communication: 2^d bits per user. Error: O~(2^{(d+k)/2} / (eps sqrt(N))).

#ifndef LDPM_PROTOCOLS_INP_RR_H_
#define LDPM_PROTOCOLS_INP_RR_H_

#include <memory>
#include <vector>

#include "protocols/protocol.h"

namespace ldpm {

class InpRrProtocol final : public MarginalProtocol {
 public:
  /// Creates the protocol. Requires d <= kMaxDenseDimensions since the
  /// aggregator materializes the full 2^d count vector.
  static StatusOr<std::unique_ptr<InpRrProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "InpRR"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: each record payload is the raw 2^d-bit report
  /// bitmap, summed as packed 64-bit words by a carry-save adder tree over
  /// vertical bit-plane counters (no Report materialization, no
  /// per-position branching).
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  /// Distribution-exact fast path: samples the aggregate per-cell report
  /// counts directly via binomials, avoiding the O(N 2^d) per-user loop.
  Status AbsorbPopulation(const std::vector<uint64_t>& rows, Rng& rng) override;

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;

  /// One sweep of the unbiased 2^d estimate, with EstimateMarginal's
  /// per-cell arithmetic, and one FWHT.
  StatusOr<FourierCoefficients> EstimateCoefficients(
      int max_order) const override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(uint64_t{1} << config_.d);
  }

  /// The underlying unary-encoding mechanism (for tests).
  const UnaryEncoding& mechanism() const { return unary_; }

 private:
  InpRrProtocol(const ProtocolConfig& config, UnaryEncoding unary)
      : MarginalProtocol(config), unary_(unary) {
    // reals_: the reported-one count of each of the 2^d cells.
    SetStateShape(uint64_t{1} << config_.d, 0);
  }

  /// Adds a group of at most 255 packed report bitmaps into
  /// `batch_counts_`: a Harley–Seal carry-save tree sums them, 16 records
  /// at a time, into eight vertical bit planes (per-cell 8-bit counts) kept
  /// on the stack for up to 64 words at once, which an 8x8 bit transpose
  /// per byte lane then expands into the integer scratch.
  void AbsorbPackedGroup(const uint8_t* const* payloads, size_t m);

  /// Folds `batch_counts_` into the double accumulators and re-zeros it.
  /// Integer counts are exact in doubles, so the fold is bitwise-identical
  /// to having added 1.0 per reported position.
  void FoldBatchCounts();

  void EnsureBatchScratch();

  UnaryEncoding unary_;

  // Batched-ingest scratch, allocated on first batch and reused.
  std::vector<uint32_t> batch_counts_;  // per-cell pending integer counts
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_RR_H_
