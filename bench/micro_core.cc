// Microbenchmarks for the core substrate (google-benchmark).

#include <benchmark/benchmark.h>

#include "core/hadamard.h"
#include "core/marginal.h"
#include "core/random.h"

namespace {

void BM_FastWalshHadamard(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  ldpm::Rng rng(1);
  std::vector<double> data(size_t{1} << d);
  for (double& v : data) v = rng.UniformDouble();
  for (auto _ : state) {
    ldpm::FastWalshHadamard(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_FastWalshHadamard)->DenseRange(8, 20, 4);

void BM_ComputeMarginal(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto table = ldpm::ContingencyTable::Zero(d);
  LDPM_CHECK(table.ok());
  ldpm::Rng rng(2);
  for (uint64_t c = 0; c < table->size(); ++c) (*table)[c] = rng.UniformDouble();
  const uint64_t beta = 0b101;
  for (auto _ : state) {
    auto m = ldpm::ComputeMarginal(*table, beta);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(table->size()));
}
BENCHMARK(BM_ComputeMarginal)->DenseRange(8, 20, 4);

void BM_MarginalFromRows(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ldpm::Rng rng(3);
  std::vector<uint64_t> rows(n);
  for (auto& r : rows) r = rng.UniformInt(1u << 16);
  for (auto _ : state) {
    auto m = ldpm::MarginalFromRows(rows, 16, 0b11);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MarginalFromRows)->Range(1 << 12, 1 << 18);

void BM_RngUniformInt(benchmark::State& state) {
  ldpm::Rng rng(4);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.UniformInt(1000);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformInt);

void BM_ReconstructMarginalFromCoefficients(benchmark::State& state) {
  const int d = 16, k = 3;
  // Synthetic dense coefficient set over d = 16, every order up to k.
  ldpm::FourierCoefficients fc(d, k);
  ldpm::ForEachLowOrderMask(d, k, [&](uint64_t alpha) { fc.Set(alpha, 0.1); });
  const uint64_t beta = 0b10101;
  for (auto _ : state) {
    auto m = fc.ReconstructMarginal(beta);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ReconstructMarginalFromCoefficients);

void BM_ExtractBits(benchmark::State& state) {
  ldpm::Rng rng(5);
  std::vector<uint64_t> values(4096);
  for (auto& v : values) v = rng();
  uint64_t sink = 0;
  for (auto _ : state) {
    for (uint64_t v : values) sink ^= ldpm::ExtractBits(v, 0xF0F0F0F0ull);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ExtractBits);

}  // namespace
