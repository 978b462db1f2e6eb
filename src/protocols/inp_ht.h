// InpHT: randomized response over sampled Hadamard coefficients of the full
// input (Section 4.2, Theorem 4.5; Algorithms 1 and 2). The paper's overall
// winner.
//
// Each user samples one coefficient index alpha uniformly from
// T = { alpha : 1 <= |alpha| <= k }, computes the signed bit
// (-1)^{<j_i, alpha>}, perturbs it with eps-RR, and sends (alpha, sign):
// d + 1 bits. The aggregator averages and unbiases each coefficient and
// reconstructs any k'-way marginal (k' <= k) via Lemma 3.7.
//
// The zero coefficient is never sampled: f_0 = 1 identically for any
// distribution (Algorithm 2 line 1).
//
// Error: O~(2^{k/2} sqrt(|T|) / (eps sqrt(N))) = O~((2d)^{k/2}/(eps sqrt(N))).

#ifndef LDPM_PROTOCOLS_INP_HT_H_
#define LDPM_PROTOCOLS_INP_HT_H_

#include <memory>
#include <vector>

#include "core/hadamard.h"
#include "mechanisms/randomized_response.h"
#include "protocols/protocol.h"

namespace ldpm {

class InpHtProtocol final : public MarginalProtocol {
 public:
  static StatusOr<std::unique_ptr<InpHtProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "InpHT"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: parses the (alpha, sign) layout — d + 1 bits —
  /// straight out of each record with one word load, no Report objects.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d) + 1.0;
  }

  /// The set T of sampled coefficient indices.
  const std::vector<uint64_t>& coefficient_indices() const { return alphas_; }

  /// The unbiased coefficients of T up to order max_order, as they are:
  /// no fit.
  StatusOr<FourierCoefficients> EstimateCoefficients(
      int max_order) const override;

  /// The underlying RR mechanism (for tests).
  const RandomizedResponse& mechanism() const { return rr_; }

 private:
  InpHtProtocol(const ProtocolConfig& config, RandomizedResponse rr,
                std::vector<uint64_t> alphas);

  /// Unbiased estimate of the coefficient at dense index `index` of T
  /// (Algorithm 2). Precondition: at least one report absorbed.
  double UnbiasedCoefficient(size_t index) const;

  RandomizedResponse rr_;
  std::vector<uint64_t> alphas_;  // T, in LowOrderIndex order
  LowOrderIndex index_;           // alpha -> its slot in T
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_HT_H_
