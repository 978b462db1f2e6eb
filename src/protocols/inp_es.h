// InpES: marginal release for categorical attributes via the Efron-Stein
// decomposition — the paper's Section 6.3 conjecture, realized.
//
// Section 6.3 suggests sampling coefficients of an orthogonal
// decomposition that generalizes the Hadamard transform to non-binary
// domains (the Efron-Stein decomposition) instead of binary-encoding r-ary
// attributes and running InpHT, and conjectures such a scheme "will be
// among the best solutions" for low-order marginals. InpES implements it:
//  * each attribute i carries an orthonormal basis of R^{r_i}
//    (core/orthonormal_basis.h); their tensor products form the
//    Efron-Stein system;
//  * a k-way marginal needs only the |T| coefficients whose support (the
//    attributes with a nonzero basis index) has size <= k, mirroring
//    Lemma 3.7;
//  * a user's coefficient value prod_i e_{t_i}(x_i) is a bounded real,
//    released through the one-bit bounded-value mechanism
//    (mechanisms/bounded_value.h): eps-LDP, ceil(log2 |T|) + 1 bits.
// For all-binary domains the basis is the Hadamard character and InpES
// coincides with InpHT (tested).
//
// The domain comes from ProtocolConfig::cardinalities (empty means d
// binary attributes); a user value is the mixed-radix packing of the
// tuple, attribute 0 the fastest digit (PackMixedRadix). docs/protocols.md
// describes the wire record, the snapshot layout and the two bases.

#ifndef LDPM_PROTOCOLS_INP_ES_H_
#define LDPM_PROTOCOLS_INP_ES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/encoding.h"
#include "core/orthonormal_basis.h"
#include "core/random.h"
#include "core/status.h"
#include "mechanisms/bounded_value.h"
#include "protocols/protocol.h"

namespace ldpm {

/// Which per-attribute orthonormal basis the Efron-Stein system uses.
enum class BasisKind {
  kHelmert,  ///< classic contrasts; entries grow like sqrt(r)
  kFourier,  ///< trigonometric characters; entries bounded by sqrt(2)
};

/// The categorical attribute cardinalities a ProtocolConfig describes:
/// config.cardinalities verbatim when non-empty, else config.d twos.
std::vector<uint32_t> EsCardinalities(const ProtocolConfig& config);

/// Number of Efron-Stein coefficients |T| sampled for the given domain:
/// sum over attribute subsets S with 1 <= |S| <= k of prod_{i in S}
/// (r_i - 1), in closed form without enumerating the set. InvalidArgument
/// for a bad cardinality or k, or a coefficient set too large to sample
/// (above 2^24) — the same refusals as InpEsProtocol::Create.
StatusOr<uint64_t> EsCoefficientCount(
    const std::vector<uint32_t>& cardinalities, int k);

/// The fixed wire geometry of an InpES record: ceil(log2 |T|) coefficient-
/// index bits followed by one sign bit. The single source of truth shared
/// by WireBits, SerializeReport/DeserializeReport, and the columnar
/// AbsorbWireBatch, so the record layout cannot drift between the
/// serializer, the parser, and the fast path.
struct EsWireGeometry {
  uint64_t coefficient_count = 0;
  int index_bits = 0;       ///< ceil(log2 |T|); 0 when |T| == 1
  uint64_t total_bits = 0;  ///< index_bits + 1 (the sign bit)
};

/// Geometry from an already-known coefficient count.
EsWireGeometry EsWireGeometryFromCount(uint64_t coefficient_count);

/// Geometry from a ProtocolConfig (runs EsCoefficientCount once).
StatusOr<EsWireGeometry> EsWireGeometryFor(const ProtocolConfig& config);

/// The user value of a categorical tuple (tuple[i] < cardinalities[i]):
/// its mixed-radix packing, attribute 0 the fastest digit.
uint64_t PackMixedRadix(const std::vector<uint32_t>& tuple,
                        const std::vector<uint32_t>& cardinalities);

class InpEsProtocol final : public MarginalProtocol {
 public:
  /// Builds the protocol over EsCardinalities(config); d may be left 0
  /// when cardinalities are given. The factory always uses the Fourier
  /// basis, which keeps the release bound r-independent.
  static StatusOr<std::unique_ptr<InpEsProtocol>> Create(
      const ProtocolConfig& config, BasisKind basis = BasisKind::kFourier);

  std::string_view name() const override { return "InpES"; }

  /// Encodes the mixed-radix packed tuple (digits beyond the domain are
  /// reduced mod r_i, mirroring the bit-masking of the binary protocols).
  Report Encode(uint64_t user_value, Rng& rng) const override;

  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: the record geometry (|T|, index width) is
  /// fixed per instance, so it is hoisted out of the loop and each record
  /// is parsed with one word load — the default path would re-derive |T|
  /// per record through DeserializeReport. Same prefix semantics.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  /// Marginal over the attributes selected by beta, all of which must be
  /// binary (r_i = 2); use EstimateCategorical for wider attributes.
  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;

  /// Marginal over explicit attribute ids (distinct, 1 <= count <= k).
  /// Cells are mixed-radix with attrs[0] fastest, the CategoricalMarginal
  /// convention.
  StatusOr<CategoricalMarginal> EstimateCategorical(
      const std::vector<int>& attrs) const;

  double TheoreticalBitsPerUser() const override;

  /// The per-attribute cardinalities of the hosted domain.
  const std::vector<uint32_t>& cardinalities() const { return cardinalities_; }

  /// Number of sampled coefficients |T|.
  size_t coefficient_count() const { return coefficients_.size(); }

 private:
  /// One Efron-Stein coefficient: its supporting (attribute, level >= 1)
  /// pairs and the release bound prod MaxAbs.
  struct Coefficient {
    std::vector<std::pair<int, uint32_t>> support;
    double bound = 1.0;
  };

  InpEsProtocol(const ProtocolConfig& config,
                std::vector<uint32_t> cardinalities, BasisKind basis,
                BoundedValueMechanism mechanism,
                std::vector<AttributeBasis> bases,
                std::vector<Coefficient> coefficients);

  std::vector<uint32_t> cardinalities_;
  BoundedValueMechanism mechanism_;
  std::vector<AttributeBasis> bases_;
  std::vector<Coefficient> coefficients_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_ES_H_
