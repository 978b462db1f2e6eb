#include "sim/simulator.h"

#include <chrono>
#include <cmath>
#include <optional>

#include "core/encoding.h"
#include "core/marginal.h"
#include "protocols/inp_es.h"

namespace ldpm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Reads categorical digits out of a sampled binary row: attribute i
/// takes its encoded width of row bits starting at the domain's bit
/// offset, indices wrapped over the source width (so narrow sources
/// still yield non-degenerate digits), folded mod r_i (invalid codes,
/// mirroring InpES Encode's own reduction).
std::vector<uint32_t> DeriveTuple(uint64_t row, int source_bits,
                                  const CategoricalDomain& domain) {
  std::vector<uint32_t> tuple(domain.num_attributes());
  int offset = 0;
  for (int i = 0; i < domain.num_attributes(); ++i) {
    uint64_t field = 0;
    for (int j = 0; j < domain.attribute_bits(i); ++j) {
      field |= ((row >> ((offset + j) % source_bits)) & 1u)
               << static_cast<unsigned>(j);
    }
    tuple[i] = static_cast<uint32_t>(field % domain.cardinality(i));
    offset += domain.attribute_bits(i);
  }
  return tuple;
}

}  // namespace

StatusOr<SimulationResult> RunSimulation(const BinaryDataset& source,
                                         const SimulationOptions& options) {
  if (source.size() == 0) {
    return Status::InvalidArgument("RunSimulation: empty source dataset");
  }
  if (options.num_users == 0) {
    return Status::InvalidArgument("RunSimulation: num_users must be > 0");
  }
  ProtocolConfig config = options.config;
  const bool categorical = !options.cardinalities.empty();
  std::optional<CategoricalDomain> domain;
  if (categorical) {
    if (options.kind != ProtocolKind::kInpES) {
      return Status::InvalidArgument(
          "RunSimulation: cardinalities need ProtocolKind::kInpES — the "
          "binary protocols cannot host a categorical domain");
    }
    auto created = CategoricalDomain::Create(options.cardinalities);
    if (!created.ok()) return created.status();
    domain.emplace(*std::move(created));
    config.cardinalities = options.cardinalities;
    config.d = domain->num_attributes();
  } else {
    config.d = source.dimensions();
  }

  const int eval_order =
      options.eval_order == 0 ? config.k : options.eval_order;
  if (eval_order < 1 || eval_order > config.k) {
    return Status::InvalidArgument(
        "RunSimulation: eval_order must lie in [1, k]");
  }

  auto protocol = CreateProtocol(options.kind, config);
  if (!protocol.ok()) return protocol.status();

  Rng rng(options.seed);
  const BinaryDataset population =
      source.SampleWithReplacement(options.num_users, rng);

  // Categorical runs absorb the mixed-radix packings of tuples derived
  // from the sampled binary rows; binary runs absorb the rows verbatim.
  std::vector<std::vector<uint32_t>> tuples;
  std::vector<uint64_t> packed_values;
  if (categorical) {
    tuples.reserve(population.rows().size());
    packed_values.reserve(population.rows().size());
    for (uint64_t row : population.rows()) {
      tuples.push_back(DeriveTuple(row, source.dimensions(), *domain));
      packed_values.push_back(
          PackMixedRadix(tuples.back(), options.cardinalities));
    }
  }
  const std::vector<uint64_t>& absorb_rows =
      categorical ? packed_values : population.rows();

  SimulationResult result;
  result.protocol = std::string((*protocol)->name());

  const auto encode_start = std::chrono::steady_clock::now();
  if (options.use_fast_path) {
    LDPM_RETURN_IF_ERROR((*protocol)->AbsorbPopulation(absorb_rows, rng));
  } else {
    for (uint64_t row : absorb_rows) {
      LDPM_RETURN_IF_ERROR((*protocol)->Absorb((*protocol)->Encode(row, rng)));
    }
  }
  result.encode_absorb_seconds = SecondsSince(encode_start);
  result.bits_per_user = (*protocol)->total_report_bits() /
                         static_cast<double>((*protocol)->reports_absorbed());
  if (result.encode_absorb_seconds > 0.0) {
    result.ingest_reports_per_second =
        static_cast<double>((*protocol)->reports_absorbed()) /
        result.encode_absorb_seconds;
  }

  const auto estimate_start = std::chrono::steady_clock::now();
  double tv_sum = 0.0;
  double tv_max = 0.0;
  int count = 0;
  if (categorical) {
    // Score mixed-radix marginals of the derived tuples. Estimated mass
    // on invalid codes is error mass (the exact distribution has none).
    const auto* es = dynamic_cast<const InpEsProtocol*>(protocol->get());
    if (es == nullptr) {
      return Status::Internal(
          "RunSimulation: kInpES protocol is not an InpEsProtocol");
    }
    for (uint64_t beta : KWaySelectors(config.d, eval_order)) {
      std::vector<int> attrs;
      for (int i = 0; i < config.d; ++i) {
        if (beta & (uint64_t{1} << i)) attrs.push_back(i);
      }
      auto estimate = es->EstimateCategorical(attrs);
      if (!estimate.ok()) return estimate.status();
      std::vector<double> truth(estimate->probabilities.size(), 0.0);
      const double weight = 1.0 / static_cast<double>(tuples.size());
      for (const std::vector<uint32_t>& tuple : tuples) {
        size_t idx = 0;
        size_t stride = 1;
        for (int attribute : attrs) {
          idx += tuple[attribute] * stride;
          stride *= domain->cardinality(attribute);
        }
        truth[idx] += weight;
      }
      double l1 = estimate->invalid_mass;
      for (size_t i = 0; i < truth.size(); ++i) {
        l1 += std::abs(truth[i] - estimate->probabilities[i]);
      }
      const double tv = 0.5 * l1;
      tv_sum += tv;
      tv_max = std::max(tv_max, tv);
      ++count;
    }
  } else {
    for (uint64_t beta : KWaySelectors(config.d, eval_order)) {
      auto truth = population.Marginal(beta);
      if (!truth.ok()) return truth.status();
      auto estimate = (*protocol)->EstimateMarginal(beta);
      if (!estimate.ok()) return estimate.status();
      const double tv = truth->TotalVariationDistance(*estimate);
      tv_sum += tv;
      tv_max = std::max(tv_max, tv);
      ++count;
    }
  }
  result.estimate_seconds = SecondsSince(estimate_start);
  result.mean_tv = tv_sum / static_cast<double>(count);
  result.max_tv = tv_max;
  result.num_marginals = count;
  return result;
}

}  // namespace ldpm
