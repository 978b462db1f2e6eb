// InpPS: preferential sampling on the full input domain
// (Section 4.2, Theorem 4.4).
//
// Each user reports a single (noisy) index of the 2^d-cell domain via
// preferential sampling: the true index with probability
// p_s = e^eps / (e^eps + 2^d - 1), a uniformly random other index
// otherwise. The aggregator unbiases the report frequencies into a full
// distribution estimate and answers any marginal by aggregation.
//
// Communication: d bits per user. Error: O~(2^{d + k/2} / (eps sqrt(N))) —
// the weakest of the six; included as the paper's baseline.

#ifndef LDPM_PROTOCOLS_INP_PS_H_
#define LDPM_PROTOCOLS_INP_PS_H_

#include <memory>

#include "mechanisms/direct_encoding.h"
#include "protocols/protocol.h"

namespace ldpm {

class InpPsProtocol final : public MarginalProtocol {
 public:
  /// Creates the protocol. Requires d <= kMaxDenseDimensions since the
  /// aggregator materializes the full 2^d count vector.
  static StatusOr<std::unique_ptr<InpPsProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "InpPS"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: each record is the d-bit reported index; a
  /// d-bit field cannot leave the domain, so validation vanishes entirely.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d);
  }

  /// The underlying direct-encoding mechanism (for tests).
  const DirectEncoding& mechanism() const { return direct_; }

 private:
  InpPsProtocol(const ProtocolConfig& config, DirectEncoding direct)
      : MarginalProtocol(config), direct_(direct) {
    // reals_: the report count of each of the 2^d cells.
    SetStateShape(uint64_t{1} << config_.d, 0);
  }

  DirectEncoding direct_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_PS_H_
