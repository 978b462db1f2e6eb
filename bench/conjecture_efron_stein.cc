// Section 6.3's conjecture, tested: "for low order marginals, a scheme
// based on [the Efron-Stein] decomposition will be among the best
// solutions" for categorical attributes.
//
// We compare, on the same categorical population, the TV error of 2-way
// categorical marginals reconstructed by
//   (a) InpES — one sampled Efron-Stein coefficient per user, and
//   (b) InpHT over the binary-encoded domain (Corollary 6.1),
// sweeping attribute cardinality r.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/encoding.h"
#include "core/marginal.h"
#include "protocols/factory.h"
#include "protocols/inp_es.h"

using namespace ldpm;

namespace {

struct Workload {
  std::vector<uint64_t> categorical;           // mixed-radix categorical rows
  std::vector<uint64_t> encoded;               // binary-encoded rows
  std::vector<double> exact;                   // exact marginal of {0,1}
  uint64_t beta = 0;                           // encoded selector for {0,1}
  int k2 = 0;                                  // encoded marginal order
  int d2 = 0;
};

Workload MakeWorkload(const std::vector<uint32_t>& cards, size_t n,
                      uint64_t seed) {
  Workload w;
  auto domain = CategoricalDomain::Create(cards);
  LDPM_CHECK(domain.ok());
  w.d2 = domain->binary_dimension();
  auto beta = domain->SelectorForAttributes({0, 1});
  LDPM_CHECK(beta.ok());
  w.beta = *beta;
  w.k2 = Popcount(*beta);

  Rng rng(seed);
  const uint64_t cells = static_cast<uint64_t>(cards[0]) * cards[1];
  w.exact.assign(cells, 0.0);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> tuple(cards.size());
    tuple[0] = static_cast<uint32_t>(rng.UniformInt(cards[0]));
    tuple[1] = rng.Bernoulli(0.55)
                   ? tuple[0] % cards[1]
                   : static_cast<uint32_t>(rng.UniformInt(cards[1]));
    for (size_t a = 2; a < cards.size(); ++a) {
      tuple[a] = static_cast<uint32_t>(rng.UniformInt(cards[a]));
    }
    auto packed = domain->Encode(tuple);
    LDPM_CHECK(packed.ok());
    w.exact[tuple[0] + cards[0] * tuple[1]] += 1.0 / static_cast<double>(n);
    w.encoded.push_back(*packed);
    w.categorical.push_back(PackMixedRadix(tuple, cards));
  }
  return w;
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double l1 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) l1 += std::fabs(a[i] - b[i]);
  return l1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::Parse(argc, argv);
  bench::Banner("Conjecture (Sec 6.3)",
                "Efron-Stein InpES vs binary-encoded InpHT on categorical "
                "2-way marginals",
                args);
  const size_t n = args.full ? (1u << 18) : (1u << 16);
  const int reps = args.full ? 10 : 4;
  const double eps = 1.0986122886681098;
  const std::vector<uint32_t> cardinality_sweep = {2, 3, 4, 5, 6, 8};

  std::printf("4 attributes of equal cardinality r; N = %zu, eps = ln 3, "
              "%d reps; TV of the {0,1} categorical marginal\n\n",
              n, reps);
  bench::Row({"r", "d2(bits)", "k2", "ES-Fourier tv", "ES-Helmert tv",
              "InpHT(enc) tv", "ES bits", "HT bits"},
             15);

  for (uint32_t r : cardinality_sweep) {
    const std::vector<uint32_t> cards(4, r);
    std::vector<double> es_f_tvs, es_h_tvs, ht_tvs;
    double es_bits = 0.0, ht_bits = 0.0;
    int d2 = 0, k2 = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const Workload w = MakeWorkload(cards, n, args.seed + 100 * r + rep);
      d2 = w.d2;
      k2 = w.k2;

      // (a) InpES over the categorical domain, both bases.
      for (BasisKind basis : {BasisKind::kFourier, BasisKind::kHelmert}) {
        ProtocolConfig es_config;
        es_config.cardinalities = cards;
        es_config.k = 2;
        es_config.epsilon = eps;
        auto es = InpEsProtocol::Create(es_config, basis);
        LDPM_CHECK(es.ok());
        Rng rng_es(args.seed + 7 * rep + r);
        LDPM_CHECK((*es)->AbsorbPopulation(w.categorical, rng_es).ok());
        auto es_marginal = (*es)->EstimateCategorical({0, 1});
        LDPM_CHECK(es_marginal.ok());
        const double tv = L1(es_marginal->probabilities, w.exact) / 2.0;
        (basis == BasisKind::kFourier ? es_f_tvs : es_h_tvs).push_back(tv);
        es_bits = (*es)->TheoreticalBitsPerUser();
      }

      // (b) InpHT over the binary encoding (k = k2 per Corollary 6.1).
      ProtocolConfig ht_config;
      ht_config.d = w.d2;
      ht_config.k = w.k2;
      ht_config.epsilon = eps;
      auto ht = CreateProtocol(ProtocolKind::kInpHT, ht_config);
      LDPM_CHECK(ht.ok());
      Rng rng_ht(args.seed + 13 * rep + r);
      LDPM_CHECK((*ht)->AbsorbPopulation(w.encoded, rng_ht).ok());
      auto binary_marginal = (*ht)->EstimateMarginal(w.beta);
      LDPM_CHECK(binary_marginal.ok());
      auto domain = CategoricalDomain::Create(cards);
      LDPM_CHECK(domain.ok());
      auto cat = ToCategoricalMarginal(*domain, {0, 1}, *binary_marginal);
      LDPM_CHECK(cat.ok());
      ht_tvs.push_back(L1(cat->probabilities, w.exact) / 2.0 +
                       std::fabs(cat->invalid_mass) / 2.0);
      ht_bits = (*ht)->TheoreticalBitsPerUser();
    }
    auto es_f_stats = Summarize(es_f_tvs);
    auto es_h_stats = Summarize(es_h_tvs);
    auto ht_stats = Summarize(ht_tvs);
    LDPM_CHECK(es_f_stats.ok());
    LDPM_CHECK(es_h_stats.ok());
    LDPM_CHECK(ht_stats.ok());
    bench::Row({std::to_string(r), std::to_string(d2), std::to_string(k2),
                WithError(es_f_stats->mean, es_f_stats->standard_error, 4),
                WithError(es_h_stats->mean, es_h_stats->standard_error, 4),
                WithError(ht_stats->mean, ht_stats->standard_error, 4),
                Fixed(es_bits, 0), Fixed(ht_bits, 0)},
               15);
  }
  std::printf(
      "\nexpected: identical at r = 2 (all three are InpHT); the Fourier "
      "basis (release bound sqrt(2) per attribute, independent of r) should "
      "dominate the Helmert basis (bound ~sqrt(r)) and stay competitive "
      "with or ahead of the binary encoding — the paper's Section 6.3 "
      "conjecture.\n");
  return 0;
}
