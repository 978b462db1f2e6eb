// Shared helpers for protocol tests.

#ifndef LDPM_TESTS_PROTOCOLS_TEST_UTIL_H_
#define LDPM_TESTS_PROTOCOLS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "core/random.h"
#include "protocols/factory.h"
#include "protocols/protocol.h"
#include "protocols/wire.h"

namespace ldpm {
namespace test {

/// Rows drawn from a fixed skewed product distribution over {0,1}^d:
/// bit j is Bernoulli(0.2 + 0.5 * j / d), so every marginal is known to be
/// a product of known Bernoullis and nothing is degenerate.
inline std::vector<uint64_t> SkewedRows(int d, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t row = 0;
    for (int j = 0; j < d; ++j) {
      const double p = 0.2 + 0.5 * static_cast<double>(j) / d;
      if (rng.Bernoulli(p)) row |= uint64_t{1} << j;
    }
    rows.push_back(row);
  }
  return rows;
}

/// Exact marginal of a row list (convenience wrapper that asserts OK).
inline MarginalTable ExactMarginal(const std::vector<uint64_t>& rows, int d,
                                   uint64_t beta) {
  auto m = MarginalFromRows(rows, d, beta);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return *std::move(m);
}

/// Runs the per-user path of a protocol over the rows.
inline void RunPerUser(MarginalProtocol& protocol,
                       const std::vector<uint64_t>& rows, uint64_t seed) {
  Rng rng(seed);
  for (uint64_t row : rows) {
    const Status s = protocol.Absorb(protocol.Encode(row, rng));
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

/// A standard (d, k, epsilon = 1) protocol config for aggregator tests.
inline ProtocolConfig MakeConfig(int d, int k) {
  ProtocolConfig c;
  c.d = d;
  c.k = k;
  c.epsilon = 1.0;
  return c;
}

/// Encodes n reports of uniformly random user values with a fixed seed.
inline std::vector<Report> EncodeReportStream(const MarginalProtocol& protocol,
                                              size_t n, uint64_t seed) {
  Rng rng(seed);
  const uint64_t mask = (uint64_t{1} << protocol.config().d) - 1;
  std::vector<Report> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    reports.push_back(protocol.Encode(rng() & mask, rng));
  }
  return reports;
}

/// Serializes `reports` into one wire batch frame (SerializeReportBatch)
/// and enqueues it with `engine.IngestWireBatch` — an
/// engine::ShardedAggregator or an engine::CollectionHandle running `kind`.
template <typename Engine>
Status IngestReports(Engine& engine, ProtocolKind kind,
                     const std::vector<Report>& reports) {
  auto frame = SerializeReportBatch(kind, engine.config(), reports);
  if (!frame.ok()) return frame.status();
  return engine.IngestWireBatch(*std::move(frame));
}

/// Encodes `rows` on the client side, as devices do (Encode with one Rng
/// seeded by `seed`), and ingests the reports in wire batch frames of at
/// most 1024 through IngestReports, so a multi-shard engine spreads them
/// over its shards.
template <typename Engine>
Status IngestRows(Engine& engine, ProtocolKind kind,
                  const std::vector<uint64_t>& rows, uint64_t seed) {
  auto encoder = CreateProtocol(kind, engine.config());
  if (!encoder.ok()) return encoder.status();
  Rng rng(seed);
  constexpr size_t kFrameReports = 1024;
  std::vector<Report> frame;
  for (size_t begin = 0; begin < rows.size(); begin += kFrameReports) {
    const size_t end = std::min(begin + kFrameReports, rows.size());
    frame.clear();
    for (size_t i = begin; i < end; ++i) {
      frame.push_back((*encoder)->Encode(rows[i], rng));
    }
    LDPM_RETURN_IF_ERROR(IngestReports(engine, kind, frame));
  }
  return Status::OK();
}

/// All selectors of order 1..k — every marginal an aggregator can answer.
inline std::vector<uint64_t> AllQueries(int d, int k) {
  std::vector<uint64_t> betas;
  for (int order = 1; order <= k; ++order) {
    for (uint64_t beta : KWaySelectors(d, order)) betas.push_back(beta);
  }
  return betas;
}

/// Asserts that two aggregators answer every order-1..k marginal with
/// bitwise-identical tables (the MergeFrom / Snapshot / sharding
/// invariance).
inline void ExpectBitwiseEqualEstimates(const MarginalProtocol& a,
                                        const MarginalProtocol& b) {
  for (uint64_t beta : AllQueries(a.config().d, a.config().k)) {
    auto ma = a.EstimateMarginal(beta);
    auto mb = b.EstimateMarginal(beta);
    ASSERT_TRUE(ma.ok()) << ma.status().ToString();
    ASSERT_TRUE(mb.ok()) << mb.status().ToString();
    ASSERT_EQ(ma->size(), mb->size());
    for (uint64_t c = 0; c < ma->size(); ++c) {
      EXPECT_EQ(ma->at_compact(c), mb->at_compact(c))
          << a.name() << " beta=" << beta << " cell=" << c;
    }
  }
}

/// Asserts two snapshots are bitwise identical (double equality is exact
/// equality here: batched ingest must not reorder or refold sums in any way
/// that changes a single bit).
inline void ExpectIdenticalSnapshots(const AggregatorSnapshot& a,
                                     const AggregatorSnapshot& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.reports_absorbed, b.reports_absorbed);
  EXPECT_EQ(a.total_report_bits, b.total_report_bits);
  ASSERT_EQ(a.reals.size(), b.reals.size());
  for (size_t i = 0; i < a.reals.size(); ++i) {
    ASSERT_EQ(a.reals[i], b.reals[i]) << "reals[" << i << "]";
  }
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (size_t i = 0; i < a.counts.size(); ++i) {
    ASSERT_EQ(a.counts[i], b.counts[i]) << "counts[" << i << "]";
  }
}

/// Asserts that the protocol's estimate of `beta` is within `tv_tolerance`
/// of the exact marginal of the rows.
inline void ExpectEstimateClose(MarginalProtocol& protocol,
                                const std::vector<uint64_t>& rows, int d,
                                uint64_t beta, double tv_tolerance) {
  auto estimate = protocol.EstimateMarginal(beta);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  const MarginalTable truth = ExactMarginal(rows, d, beta);
  EXPECT_LE(truth.TotalVariationDistance(*estimate), tv_tolerance)
      << "beta=" << beta;
}

}  // namespace test
}  // namespace ldpm

#endif  // LDPM_TESTS_PROTOCOLS_TEST_UTIL_H_
