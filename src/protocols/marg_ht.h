// MargHT: randomized response on one Hadamard coefficient of a randomly
// sampled marginal (Section 4.3).
//
// Each user samples a k-way selector beta_i, then one coefficient
// alpha ⪯ beta_i of that marginal's Hadamard transform, and releases
// RR_eps((-1)^{<j_i, alpha>}) together with <beta_i, alpha>: d + k + 1
// bits. Unlike InpHT, coefficient estimates are *not* shared between
// marginals (the paper calls this out), so the per-coefficient population
// is N / (C(d,k) * (2^k - 1)).
//
// By default the constant zero coefficient is excluded from sampling (it is
// 1 identically); ProtocolConfig::sample_zero_coefficient restores the
// paper-literal 2^k-way sampling for ablation.
//
// Error: O~(2^{3k/2} d^{k/2} / (eps sqrt(N))).

#ifndef LDPM_PROTOCOLS_MARG_HT_H_
#define LDPM_PROTOCOLS_MARG_HT_H_

#include <memory>

#include "mechanisms/randomized_response.h"
#include "protocols/marg_common.h"

namespace ldpm {

class MargHtProtocol final : public MargProtocolBase {
 public:
  static StatusOr<std::unique_ptr<MargHtProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "MargHT"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: parses the (beta, r, sign) layout — d + k + 1
  /// bits — with one word load per record when it fits 64 bits.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d) + static_cast<double>(config_.k) + 1.0;
  }

  const RandomizedResponse& mechanism() const { return rr_; }

 protected:
  StatusOr<MarginalTable> EstimateExactKWay(size_t idx) const override;

 private:
  MargHtProtocol(const ProtocolConfig& config, RandomizedResponse rr);

  /// Number of coefficients a user may sample within one marginal:
  /// 2^k - 1, or 2^k when sample_zero_coefficient is set.
  uint64_t CoefficientChoices() const {
    const uint64_t cells = uint64_t{1} << config_.k;
    return config_.sample_zero_coefficient ? cells : cells - 1;
  }

  RandomizedResponse rr_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_MARG_HT_H_
