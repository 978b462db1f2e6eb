// MargPS: preferential sampling on one randomly sampled marginal
// (Section 4.3).
//
// Each user samples a k-way selector beta_i and releases the index of their
// single nonzero marginal cell through preferential sampling over the 2^k
// cells (p_s = e^eps / (e^eps + 2^k - 1)), sending <beta_i, cell>:
// d + k bits. Error: O~(2^{3k/2} d^{k/2} / (eps sqrt(N))). Empirically the
// strongest marginal-based method in the paper.

#ifndef LDPM_PROTOCOLS_MARG_PS_H_
#define LDPM_PROTOCOLS_MARG_PS_H_

#include <memory>

#include "mechanisms/direct_encoding.h"
#include "protocols/marg_common.h"

namespace ldpm {

class MargPsProtocol final : public MargProtocolBase {
 public:
  static StatusOr<std::unique_ptr<MargPsProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "MargPS"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: parses the (beta, cell) layout — d + k bits —
  /// with one word load per record when it fits 64 bits.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d) + static_cast<double>(config_.k);
  }

  const DirectEncoding& mechanism() const { return direct_; }

 protected:
  StatusOr<MarginalTable> EstimateExactKWay(size_t idx) const override;

 private:
  MargPsProtocol(const ProtocolConfig& config, DirectEncoding direct);

  DirectEncoding direct_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_MARG_PS_H_
