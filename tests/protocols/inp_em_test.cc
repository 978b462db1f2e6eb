#include "protocols/inp_em.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/bits.h"
#include "engine/checkpoint.h"
#include "engine/collector.h"
#include "test_util.h"

namespace ldpm {
namespace {

ProtocolConfig Config(int d, int k, double eps) {
  ProtocolConfig c;
  c.d = d;
  c.k = k;
  c.epsilon = eps;
  return c;
}

std::unique_ptr<InpEmProtocol> MustCreate(const ProtocolConfig& config) {
  auto p = InpEmProtocol::Create(config);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *std::move(p);
}

// The decoder as it ran on a plain report log: project every logged
// response onto beta, then the EM loop of InpEmProtocol::Decode.
EmDecodeResult ReferenceDecode(const InpEmProtocol& protocol,
                               const std::vector<uint64_t>& log,
                               uint64_t beta) {
  const ProtocolConfig& config = protocol.config();
  const int k = Popcount(beta);
  const uint64_t cells = uint64_t{1} << k;
  std::vector<double> observed(cells, 0.0);
  for (uint64_t r : log) observed[ExtractBits(r, beta)] += 1.0;
  const double n = static_cast<double>(log.size());
  for (double& o : observed) o /= n;

  const double p = protocol.per_bit_mechanism().keep_probability();
  std::vector<double> q_by_distance(k + 1);
  for (int h = 0; h <= k; ++h) {
    q_by_distance[h] = std::pow(1.0 - p, h) * std::pow(p, k - h);
  }
  EmDecodeResult result{MarginalTable::Uniform(config.d, beta)};
  std::vector<double> mu(result.estimate.values());
  std::vector<double> next(cells, 0.0);
  for (int iter = 1; iter <= config.em_max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (uint64_t y = 0; y < cells; ++y) {
      if (observed[y] == 0.0) continue;
      double denom = 0.0;
      for (uint64_t z = 0; z < cells; ++z) {
        denom += mu[z] * q_by_distance[Popcount(y ^ z)];
      }
      if (denom <= 0.0) continue;
      const double w = observed[y] / denom;
      for (uint64_t z = 0; z < cells; ++z) {
        next[z] += w * mu[z] * q_by_distance[Popcount(y ^ z)];
      }
    }
    double change = 0.0;
    for (uint64_t z = 0; z < cells; ++z) {
      change = std::max(change, std::fabs(next[z] - mu[z]));
    }
    mu = next;
    result.iterations = iter;
    result.final_change = change;
    if (change < config.em_convergence_threshold) {
      result.failed_to_leave_prior = (iter == 1);
      break;
    }
  }
  result.estimate.values() = mu;
  return result;
}

// Encodes `n` users of the skewed population; returns the report log.
std::vector<uint64_t> EncodeLog(const InpEmProtocol& protocol, size_t n,
                                uint64_t seed) {
  const int d = protocol.config().d;
  Rng rng(seed + 1);
  std::vector<uint64_t> log;
  log.reserve(n);
  for (uint64_t row : test::SkewedRows(d, n, seed)) {
    log.push_back(protocol.Encode(row, rng).value);
  }
  return log;
}

void AbsorbLog(InpEmProtocol& protocol, const std::vector<uint64_t>& log) {
  for (uint64_t r : log) {
    Report report;
    report.value = r;
    report.bits = static_cast<double>(protocol.config().d);
    ASSERT_TRUE(protocol.Absorb(report).ok());
  }
}

// Decode must equal the reference decoder on `log` bit for bit, for every
// selector of order 1..k.
void ExpectDecodesLikeLog(const InpEmProtocol& protocol,
                          const std::vector<uint64_t>& log) {
  const ProtocolConfig& config = protocol.config();
  int iterated = 0;
  for (uint64_t beta : test::AllQueries(config.d, config.k)) {
    auto decoded = protocol.Decode(beta);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const EmDecodeResult expected = ReferenceDecode(protocol, log, beta);
    ASSERT_EQ(decoded->iterations, expected.iterations) << "beta=" << beta;
    ASSERT_EQ(decoded->final_change, expected.final_change) << "beta=" << beta;
    ASSERT_EQ(decoded->failed_to_leave_prior, expected.failed_to_leave_prior);
    ASSERT_EQ(decoded->estimate.values(), expected.estimate.values())
        << "beta=" << beta;
    iterated += expected.iterations > 1 ? 1 : 0;
  }
  // Guard the test's own strength: EM really iterates here.
  EXPECT_GT(iterated, 0);
}

// True when some selector of order 1..k projects `log` onto a response
// cell that no report falls in, so Decode's skip of unobserved cells runs.
bool SomeProjectedCellIsEmpty(const ProtocolConfig& config,
                              const std::vector<uint64_t>& log) {
  for (uint64_t beta : test::AllQueries(config.d, config.k)) {
    std::vector<size_t> counts(size_t{1} << Popcount(beta), 0);
    for (uint64_t r : log) ++counts[ExtractBits(r, beta)];
    if (std::find(counts.begin(), counts.end(), 0) != counts.end()) {
      return true;
    }
  }
  return false;
}

// The histogram path (d <= 16) and the log path (d = 20) against the
// log-projecting reference, directly and after merging two halves. The
// d = 8, eps = 1 cases run at eps/d = 1/8, where EM takes thousands of
// iterations per selector; the 12-report population leaves projected cells
// empty; the 40-iteration cap stops EM before it converges.
TEST(InpEm, DecodeMatchesReportLogReferenceBitForBit) {
  struct Case {
    int d;
    int k;
    double eps;
    size_t n = 20000;
    int max_iterations = ProtocolConfig().em_max_iterations;
  };
  for (const Case& c :
       {Case{4, 4, 2.0}, Case{8, 3, 4.0}, Case{16, 2, 8.0}, Case{20, 2, 10.0},
        Case{8, 3, 1.0}, Case{6, 3, 6.0, 12}, Case{8, 3, 1.0, 20000, 40}}) {
    SCOPED_TRACE("d=" + std::to_string(c.d) + " k=" + std::to_string(c.k) +
                 " eps=" + std::to_string(c.eps) + " n=" +
                 std::to_string(c.n) + " cap=" +
                 std::to_string(c.max_iterations));
    ProtocolConfig config = Config(c.d, c.k, c.eps);
    config.em_max_iterations = c.max_iterations;
    auto whole = MustCreate(config);
    const std::vector<uint64_t> log = EncodeLog(*whole, c.n, 180 + c.d);
    AbsorbLog(*whole, log);
    ExpectDecodesLikeLog(*whole, log);

    auto left = MustCreate(config);
    auto right = MustCreate(config);
    const size_t half = log.size() / 2;
    AbsorbLog(*left, std::vector<uint64_t>(log.begin(), log.begin() + half));
    AbsorbLog(*right, std::vector<uint64_t>(log.begin() + half, log.end()));
    ASSERT_TRUE(left->MergeFrom(*right).ok());
    EXPECT_EQ(left->reports_absorbed(), log.size());
    ExpectDecodesLikeLog(*left, log);

    // Guard each new input's own strength.
    if (c.n < 20000) EXPECT_TRUE(SomeProjectedCellIsEmpty(config, log));
    if (c.max_iterations < ProtocolConfig().em_max_iterations) {
      int capped = 0;
      for (uint64_t beta : test::AllQueries(config.d, config.k)) {
        auto decoded = whole->Decode(beta);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        capped += decoded->iterations == c.max_iterations &&
                  decoded->final_change >= config.em_convergence_threshold;
      }
      EXPECT_GT(capped, 0);
    }
  }
}

TEST(InpEm, HistogramCutoffPicksTheStateLayout) {
  auto at_cutoff = MustCreate(
      Config(InpEmProtocol::kMaxHistogramDimensions, 2, 1.0));
  AbsorbLog(*at_cutoff, EncodeLog(*at_cutoff, 100, 190));
  const AggregatorSnapshot histogram = at_cutoff->Snapshot();
  EXPECT_EQ(histogram.reals.size(),
            size_t{1} << InpEmProtocol::kMaxHistogramDimensions);
  EXPECT_TRUE(histogram.counts.empty());

  auto above = MustCreate(
      Config(InpEmProtocol::kMaxHistogramDimensions + 1, 2, 1.0));
  const std::vector<uint64_t> log = EncodeLog(*above, 100, 191);
  AbsorbLog(*above, log);
  const AggregatorSnapshot logged = above->Snapshot();
  EXPECT_TRUE(logged.reals.empty());
  EXPECT_EQ(logged.counts, log);

  // The log path takes no histogram.
  auto restored = MustCreate(above->config());
  AggregatorSnapshot wrong = logged;
  wrong.reals.assign(8, 0.0);
  EXPECT_FALSE(restored->Restore(wrong).ok());
  ASSERT_TRUE(restored->Restore(logged).ok());
  ExpectDecodesLikeLog(*restored, log);
}

// A snapshot in the layout written before the histogram: the report log in
// `counts`, `reals` empty.
AggregatorSnapshot LogSnapshot(const InpEmProtocol& protocol,
                               const std::vector<uint64_t>& log) {
  AggregatorSnapshot snapshot = protocol.Snapshot();
  snapshot.reports_absorbed = log.size();
  snapshot.total_report_bits =
      static_cast<double>(log.size()) * protocol.config().d;
  snapshot.reals.clear();
  snapshot.counts = log;
  return snapshot;
}

TEST(InpEm, RestoresLogLayoutSnapshot) {
  const ProtocolConfig config = Config(8, 2, 4.0);
  auto live = MustCreate(config);
  const std::vector<uint64_t> log = EncodeLog(*live, 20000, 192);
  AbsorbLog(*live, log);

  auto restored = MustCreate(config);
  ASSERT_TRUE(restored->Restore(LogSnapshot(*restored, log)).ok());
  EXPECT_EQ(restored->reports_absorbed(), log.size());
  EXPECT_EQ(restored->total_report_bits(), live->total_report_bits());
  ExpectDecodesLikeLog(*restored, log);
  // It is now the same histogram the live aggregator keeps.
  EXPECT_EQ(restored->Snapshot().reals, live->Snapshot().reals);

  // An empty log restores as an empty aggregator.
  auto empty = MustCreate(config);
  ASSERT_TRUE(empty->Restore(LogSnapshot(*empty, {})).ok());
  EXPECT_EQ(empty->reports_absorbed(), 0u);
}

TEST(InpEm, RestoresLogLayoutSnapshotFromCollectorCheckpoint) {
  const ProtocolConfig config = Config(8, 2, 4.0);
  auto encoder = MustCreate(config);
  const std::vector<uint64_t> log = EncodeLog(*encoder, 20000, 193);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ldpm_inp_em_log.ckpt")
          .string();
  ASSERT_TRUE(engine::WriteCollectorCheckpoint(
                  path, {{"em", {LogSnapshot(*encoder, log)}}})
                  .ok());

  auto collector = engine::Collector::Create({});
  ASSERT_TRUE(collector.ok());
  auto handle = (*collector)->Register("em", ProtocolKind::kInpEM, config);
  ASSERT_TRUE(handle.ok());
  const Status restored = (*collector)->RestoreFrom(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  auto merged = handle->aggregator().Merged();
  ASSERT_TRUE(merged.ok());
  const auto* em = dynamic_cast<const InpEmProtocol*>(merged->get());
  ASSERT_NE(em, nullptr);
  EXPECT_EQ(em->reports_absorbed(), log.size());
  ExpectDecodesLikeLog(*em, log);
}

TEST(InpEm, RejectsMalformedSnapshotsAndKeepsState) {
  const ProtocolConfig config = Config(8, 2, 1.0);
  auto source = MustCreate(config);
  const std::vector<uint64_t> log = EncodeLog(*source, 5000, 194);
  AbsorbLog(*source, log);
  const AggregatorSnapshot good = source->Snapshot();
  ASSERT_GT(good.reals[0], 0.0);

  auto target = MustCreate(config);
  AbsorbLog(*target, EncodeLog(*target, 700, 195));
  const AggregatorSnapshot before = target->Snapshot();
  auto expect_rejected = [&](const AggregatorSnapshot& bad,
                             const std::string& what) {
    EXPECT_FALSE(target->Restore(bad).ok()) << what;
    const AggregatorSnapshot after = target->Snapshot();
    EXPECT_EQ(after.reports_absorbed, before.reports_absorbed) << what;
    EXPECT_EQ(after.reals, before.reals) << what;
    EXPECT_TRUE(after.counts.empty()) << what;
  };

  AggregatorSnapshot bad = good;
  bad.reals.pop_back();
  expect_rejected(bad, "short histogram");
  bad = good;
  bad.reals.push_back(0.0);
  expect_rejected(bad, "long histogram");

  // Each cell defect below keeps the total equal to reports_absorbed, so
  // only the per-cell check can catch it.
  bad = good;
  bad.reals[1] += bad.reals[0] + 1.0;
  bad.reals[0] = -1.0;
  expect_rejected(bad, "negative cell");
  bad = good;
  bad.reals[0] = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(bad, "NaN cell");
  bad = good;
  bad.reals[0] += 0.5;  // truncates back to the true count
  expect_rejected(bad, "fractional cell");
  bad = good;
  bad.reals[0] = std::numeric_limits<double>::infinity();
  expect_rejected(bad, "infinite cell");
  constexpr double kTwo53 = 9007199254740992.0;
  bad = good;
  bad.reports_absorbed += static_cast<uint64_t>(kTwo53) + 2 -
                          static_cast<uint64_t>(bad.reals[0]);
  bad.reals[0] = kTwo53 + 2.0;
  expect_rejected(bad, "cell above 2^53");

  bad = good;
  bad.reports_absorbed += 1;
  expect_rejected(bad, "cells do not sum to reports_absorbed");
  bad = good;
  bad.counts = log;
  expect_rejected(bad, "both arrays non-empty");

  // The old log layout is validated as before.
  bad = LogSnapshot(*target, log);
  bad.counts.pop_back();
  expect_rejected(bad, "log shorter than reports_absorbed");
  bad = LogSnapshot(*target, log);
  bad.counts[0] = 256;
  expect_rejected(bad, "logged response outside domain");

  // A cell of exactly 2^53 is still an exact count.
  AggregatorSnapshot edge = good;
  edge.reports_absorbed += static_cast<uint64_t>(kTwo53) -
                           static_cast<uint64_t>(edge.reals[0]);
  edge.reals[0] = kTwo53;
  EXPECT_TRUE(target->Restore(edge).ok());
}

TEST(InpEm, RejectsHistogramWhoseTotalWrapsUint64) {
  // 2^16 cells of 2^53 sum to 2^69, which wraps to 0 in uint64: only a
  // checked sum tells it from an empty histogram.
  const ProtocolConfig config =
      Config(InpEmProtocol::kMaxHistogramDimensions, 2, 1.0);
  auto target = MustCreate(config);
  AggregatorSnapshot bad = target->Snapshot();
  std::fill(bad.reals.begin(), bad.reals.end(), 9007199254740992.0);
  bad.reports_absorbed = 0;
  EXPECT_FALSE(target->Restore(bad).ok());
  EXPECT_EQ(target->reports_absorbed(), 0u);
}

TEST(InpEm, PerBitBudgetIsEpsilonOverD) {
  auto p = InpEmProtocol::Create(Config(8, 2, 1.6));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)->per_bit_mechanism().epsilon(), 0.2, 1e-9);
}

TEST(InpEm, CreateValidatesEmParameters) {
  ProtocolConfig c = Config(4, 2, 1.0);
  c.em_convergence_threshold = 0.0;
  EXPECT_FALSE(InpEmProtocol::Create(c).ok());
  c = Config(4, 2, 1.0);
  c.em_max_iterations = 0;
  EXPECT_FALSE(InpEmProtocol::Create(c).ok());
}

TEST(InpEm, ReportIsDBits) {
  auto p = InpEmProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Rng rng(161);
  const Report r = (*p)->Encode(13, rng);
  EXPECT_EQ(r.bits, 6.0);
  EXPECT_LT(r.value, 64u);
}

TEST(InpEm, AbsorbRejectsOutOfDomain) {
  auto p = InpEmProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Report bad;
  bad.value = 16;
  EXPECT_EQ((*p)->Absorb(bad).code(), StatusCode::kInvalidArgument);
}

TEST(InpEm, DecodesStrongSignalAtLargeEpsilon) {
  // With generous budget and many users, EM should land near the truth.
  const int d = 4;
  auto p = InpEmProtocol::Create(Config(d, 2, 4.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 150000, 163);
  test::RunPerUser(**p, rows, 164);
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto decoded = (*p)->Decode(beta);
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->failed_to_leave_prior) << "beta=" << beta;
    const MarginalTable truth = test::ExactMarginal(rows, d, beta);
    EXPECT_LE(truth.TotalVariationDistance(decoded->estimate), 0.08)
        << "beta=" << beta;
  }
}

TEST(InpEm, FailsToLeavePriorAtTinyEpsilon) {
  // Table 3's failure mode: at very small eps the first EM step moves less
  // than Omega and the output is the uniform prior.
  const int d = 16;
  auto p = InpEmProtocol::Create(Config(d, 2, 0.1));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 30000, 165);
  test::RunPerUser(**p, rows, 166);
  int failures = 0;
  int total = 0;
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto decoded = (*p)->Decode(beta);
    ASSERT_TRUE(decoded.ok());
    failures += decoded->failed_to_leave_prior ? 1 : 0;
    ++total;
    if (total >= 30) break;  // a sample of pairs suffices
  }
  EXPECT_GT(failures, 0);
}

TEST(InpEm, FailedDecodeReturnsUniform) {
  const int d = 16;
  auto p = InpEmProtocol::Create(Config(d, 2, 0.05));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 20000, 167);
  test::RunPerUser(**p, rows, 168);
  auto decoded = (*p)->Decode(0b11);
  ASSERT_TRUE(decoded.ok());
  if (decoded->failed_to_leave_prior) {
    // The estimate is the prior plus the sub-threshold first step, so each
    // cell sits within Omega (max per-cell change) of uniform.
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(decoded->estimate.at_compact(i), 0.25, 1e-5);
    }
  }
}

TEST(InpEm, EstimateIsAlwaysADistribution) {
  auto p = InpEmProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(6, 50000, 169);
  test::RunPerUser(**p, rows, 170);
  for (uint64_t beta : KWaySelectors(6, 2)) {
    auto m = (*p)->EstimateMarginal(beta);
    ASSERT_TRUE(m.ok());
    EXPECT_NEAR(m->Total(), 1.0, 1e-6);
    for (uint64_t i = 0; i < m->size(); ++i) {
      EXPECT_GE(m->at_compact(i), -1e-12);
    }
  }
}

TEST(InpEm, DecodeAnyOrderNotJustK) {
  auto p = InpEmProtocol::Create(Config(6, 2, 2.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(6, 50000, 171);
  test::RunPerUser(**p, rows, 172);
  EXPECT_TRUE((*p)->Decode(0b1).ok());       // 1-way
  EXPECT_TRUE((*p)->Decode(0b111).ok());     // 3-way (> configured k)
}

TEST(InpEm, IterationsReported) {
  auto p = InpEmProtocol::Create(Config(4, 2, 2.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 50000, 173);
  test::RunPerUser(**p, rows, 174);
  auto decoded = (*p)->Decode(0b0011);
  ASSERT_TRUE(decoded.ok());
  EXPECT_GE(decoded->iterations, 1);
  EXPECT_LE(decoded->iterations, Config(4, 2, 2.0).em_max_iterations);
}

TEST(InpEm, DecodeBeforeAbsorbFails) {
  auto p = InpEmProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->Decode(0b11).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InpEm, ResetClearsReports) {
  auto p = InpEmProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 100, 175);
  test::RunPerUser(**p, rows, 176);
  (*p)->Reset();
  EXPECT_EQ((*p)->reports_absorbed(), 0u);
  EXPECT_FALSE((*p)->Decode(0b11).ok());
}

TEST(InpEm, LessAccurateThanInpHtAtModerateEpsilon) {
  // The paper's headline InpEM finding (Figure 6): the unbiased InpHT
  // estimator dominates the EM heuristic. Checked via the simulator-free
  // direct comparison at d = 8, eps = 1.1.
  const int d = 8;
  const auto rows = test::SkewedRows(d, 60000, 177);

  auto em = InpEmProtocol::Create(Config(d, 2, 1.1));
  ASSERT_TRUE(em.ok());
  test::RunPerUser(**em, rows, 178);

  // InpHT is exercised through its header to avoid a factory dependency in
  // this test binary.
  double em_total = 0.0;
  int count = 0;
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto est = (*em)->EstimateMarginal(beta);
    ASSERT_TRUE(est.ok());
    em_total += test::ExactMarginal(rows, d, beta).TotalVariationDistance(*est);
    ++count;
  }
  const double em_mean = em_total / count;
  // The paper reports EM errors several times larger; just require that EM
  // is not magically accurate (sanity anchor for the Figure 6 bench).
  EXPECT_GT(em_mean, 0.005);
}

}  // namespace
}  // namespace ldpm
