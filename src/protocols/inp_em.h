// InpEM: budget-split randomized response over attributes with
// expectation-maximization decoding (Section 4.4; the approach of Fanti,
// Pihur & Erlingsson adapted from RAPPOR's "unknown dictionary" setting).
//
// Client: each of the d attribute bits is perturbed independently with
// (eps/d)-RR (budget splitting), so the whole d-bit response is eps-LDP by
// sequential composition. Communication: d bits.
//
// Aggregator: to decode a target marginal beta, the reports are projected
// onto beta's attributes, giving observed counts n_y over the 2^k response
// combinations. EM depends on the reports only through these counts, so for
// d <= kMaxHistogramDimensions the aggregator keeps the 2^d response
// histogram (a sufficient statistic: O(2^d) memory, merge and projection);
// above that it keeps the O(N) report log. Starting from the uniform guess,
// EM alternates
//
//   E: q(z|y) ∝ mu(z) * Q(y|z)     (Q = the known per-bit RR channel)
//   M: mu(z) <- sum_y (n_y / N) q(z|y)
//
// until the change in the guess falls below the threshold Omega (paper:
// 1e-5; we measure the change as the maximum per-cell move). The paper
// observes a characteristic *failure mode*: for small eps the first
// iteration already moves less than Omega, so EM terminates immediately and
// returns the uniform prior (Table 3 counts these failures).
//
// This is a heuristic without worst-case accuracy guarantees; it is
// included as the comparison baseline for Figures 6 and Table 3.

#ifndef LDPM_PROTOCOLS_INP_EM_H_
#define LDPM_PROTOCOLS_INP_EM_H_

#include <memory>
#include <vector>

#include "mechanisms/randomized_response.h"
#include "protocols/protocol.h"

namespace ldpm {

/// Outcome of one EM decode, with convergence diagnostics.
struct EmDecodeResult {
  MarginalTable estimate;
  /// Number of EM iterations performed.
  int iterations = 0;
  /// True when EM converged on the very first iteration and therefore
  /// returned the uniform prior — the paper's failure criterion.
  bool failed_to_leave_prior = false;
  /// Largest move of any one cell between the last two guesses (the
  /// L-infinity norm of their difference).
  double final_change = 0.0;
};

class InpEmProtocol final : public MarginalProtocol {
 public:
  /// Largest d at which the aggregator keeps the 2^d response histogram
  /// (512 KB at d = 16); above it the aggregator keeps the report log.
  static constexpr int kMaxHistogramDimensions = 16;

  static StatusOr<std::unique_ptr<InpEmProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "InpEM"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: each record is the packed d-bit response,
  /// recorded without materializing Report objects.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;
  void Reset() override;
  Status MergeFrom(const MarginalProtocol& other) override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d);
  }

  /// EM decode with full diagnostics (iteration count, failure flag).
  StatusOr<EmDecodeResult> Decode(uint64_t beta) const;

  /// The per-bit RR mechanism, running at eps/d (for tests).
  const RandomizedResponse& per_bit_mechanism() const { return per_bit_rr_; }

 protected:
  void SaveState(AggregatorSnapshot& snapshot) const override;
  Status LoadState(const AggregatorSnapshot& snapshot) override;

 private:
  InpEmProtocol(const ProtocolConfig& config, RandomizedResponse per_bit_rr);

  bool UsesHistogram() const {
    return config_.d <= kMaxHistogramDimensions;
  }

  /// Records one in-domain response in the histogram or the log.
  void Record(uint64_t response) {
    if (UsesHistogram()) {
      ++histogram_[response];
    } else {
      reports_.push_back(response);
    }
  }

  /// Reserves room for `additional` log entries without breaking the
  /// vector's amortized geometric growth; a no-op on the histogram path.
  void ReserveLog(size_t additional);

  RandomizedResponse per_bit_rr_;
  // Exactly one of the two holds the reports, chosen by UsesHistogram().
  std::vector<uint64_t> histogram_;  // count per packed perturbed response
  std::vector<uint64_t> reports_;    // packed perturbed responses, in order
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_EM_H_
