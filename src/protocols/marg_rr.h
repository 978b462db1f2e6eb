// MargRR: parallel randomized response on one randomly sampled marginal
// (Section 4.3).
//
// Each user samples a k-way selector beta_i, materializes their one-hot
// 2^k-cell marginal C_{beta_i}(t_i), and perturbs every cell with
// (eps/2)-RR (or Wang-optimized probabilities), sending <beta_i, cells>:
// d + 2^k bits. Error: O~(2^k d^{k/2} / (eps sqrt(N))).

#ifndef LDPM_PROTOCOLS_MARG_RR_H_
#define LDPM_PROTOCOLS_MARG_RR_H_

#include <memory>

#include "protocols/marg_common.h"

namespace ldpm {

class MargRrProtocol final : public MargProtocolBase {
 public:
  static StatusOr<std::unique_ptr<MargRrProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "MargRR"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: parses the (beta, 2^k-cell bitmap) layout with
  /// one word load per record when it fits 64 bits (d + 2^k <= 64), falling
  /// back to the generic record parser otherwise.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d) +
           static_cast<double>(uint64_t{1} << config_.k);
  }

  const UnaryEncoding& mechanism() const { return unary_; }

 protected:
  StatusOr<MarginalTable> EstimateExactKWay(size_t idx) const override;

 private:
  MargRrProtocol(const ProtocolConfig& config, UnaryEncoding unary);

  UnaryEncoding unary_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_MARG_RR_H_
