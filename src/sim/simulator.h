// End-to-end protocol simulation: sample a population from a dataset, run
// one protocol over it, and score the reconstructed marginals against the
// population's exact marginals (the paper's experimental loop, Section 5).

#ifndef LDPM_SIM_SIMULATOR_H_
#define LDPM_SIM_SIMULATOR_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "protocols/factory.h"
#include "sim/metrics.h"

namespace ldpm {

/// One simulation run's parameters.
struct SimulationOptions {
  ProtocolKind kind = ProtocolKind::kInpHT;
  ProtocolConfig config;
  /// Users sampled (with replacement) from the source dataset.
  size_t num_users = size_t{1} << 16;
  uint64_t seed = 1;
  /// Use AbsorbPopulation (distribution-exact aggregate path) instead of
  /// the per-user Encode/Absorb loop.
  bool use_fast_path = true;
  /// Order of the marginals scored; 0 means "score order config.k".
  int eval_order = 0;
  /// Non-empty hosts the run on a categorical domain (kind must be
  /// kInpES, the one protocol speaking mixed-radix tuples). Each sampled
  /// binary row is read as the domain's packed encoding — attribute i
  /// takes ceil(log2 r_i) row bits (wrapped over the source's width),
  /// folded mod r_i — and the derived tuple is absorbed as its
  /// mixed-radix packing. Scoring runs EstimateCategorical against the
  /// derived tuples' exact marginals; estimated mass on invalid codes
  /// counts as error. Empty keeps the binary-marginal loop, which
  /// previously ran (wrongly) even for categorical configs.
  std::vector<uint32_t> cardinalities;
};

/// One simulation run's outcome.
struct SimulationResult {
  std::string protocol;
  /// Mean / max total-variation distance over all scored marginals.
  double mean_tv = 0.0;
  double max_tv = 0.0;
  int num_marginals = 0;
  /// Measured communication (bits per user).
  double bits_per_user = 0.0;
  /// Wall-clock split: client+absorb phase and estimation phase.
  double encode_absorb_seconds = 0.0;
  double estimate_seconds = 0.0;
  /// Ingest throughput over the encode+absorb phase (reports per second).
  double ingest_reports_per_second = 0.0;
};

/// Runs one simulation. Deterministic given options.seed.
StatusOr<SimulationResult> RunSimulation(const BinaryDataset& source,
                                         const SimulationOptions& options);

}  // namespace ldpm

#endif  // LDPM_SIM_SIMULATOR_H_
