// Microbenchmark: the two reference rank testers on realistic yeast
// supports.
//
// Compares the exact Bareiss rank test (paper's reference, audit mode's
// re-check) with the dense modular Z_(2^61-1) test (the solver engine's
// fallback) per candidate support.
#include <benchmark/benchmark.h>

#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "models/yeast.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/reversible_split.hpp"
#include "support/random.hpp"

namespace {

using namespace elmo;

struct Fixture {
  Fixture()
      : prepared(prepare_problem(
            to_problem<CheckedI64>(compress(models::yeast_network_1())))),
        basis(compute_initial_basis<CheckedI64, DynBitset>(prepared.problem)),
        exact(prepared.problem.stoichiometry),
        modular_tester(prepared.problem.stoichiometry, basis.columns) {
    // Supports near the accept/reject boundary (size ~ rank +- 1).
    Rng rng(33);
    const std::size_t q = prepared.problem.num_reactions();
    for (int i = 0; i < 256; ++i) {
      DynBitset support(q);
      std::size_t size = basis.stoichiometry_rank - 1 + rng.below(3);
      while (support.count() < size) support.set(rng.below(q));
      supports.push_back(std::move(support));
    }
  }

  PreparedProblem<CheckedI64> prepared;
  InitialBasis<CheckedI64, DynBitset> basis;
  RankTester<CheckedI64> exact;
  ModularRankTester<CheckedI64> modular_tester;
  std::vector<DynBitset> supports;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_RankTestExactBareiss(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.exact.is_elementary(f.supports[i++ % f.supports.size()]));
  }
}
BENCHMARK(BM_RankTestExactBareiss);

void BM_RankTestModular(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.modular_tester.is_elementary(f.supports[i++ % f.supports.size()]));
  }
}
BENCHMARK(BM_RankTestModular);

}  // namespace

BENCHMARK_MAIN();
