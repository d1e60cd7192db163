// Microbenchmark: arithmetic kernels.
//
// The solver defaults to overflow-checked int64 and falls back to BigInt.
// Measures the primitive operations (BigInt mul/div, modular mulmod,
// checked i64) and a whole toy-network solve per kernel.
#include <benchmark/benchmark.h>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bitset/bitset64.hpp"
#include "compress/compression.hpp"
#include "models/toy.hpp"
#include "models/random_network.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "support/random.hpp"

namespace {

using namespace elmo;

void BM_CheckedI64_MulAdd(benchmark::State& state) {
  Rng rng(1);
  CheckedI64 a(static_cast<std::int64_t>(rng.below(1 << 20)));
  CheckedI64 b(static_cast<std::int64_t>(rng.below(1 << 20)));
  CheckedI64 acc(1);
  for (auto _ : state) {
    acc = a * b + acc;
    a = CheckedI64(acc.value() & 0xfffff);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CheckedI64_MulAdd);

void BM_Modular_MulMod(benchmark::State& state) {
  Rng rng(2);
  std::uint64_t a = rng.next() % modular::kPrime;
  std::uint64_t b = rng.next() % modular::kPrime;
  for (auto _ : state) {
    a = modular::mulmod(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Modular_MulMod);

void BM_BigInt_Multiply256Bit(benchmark::State& state) {
  BigInt a = BigInt::from_string("123456789012345678901234567890123456789");
  BigInt b = BigInt::from_string("987654321098765432109876543210987654321");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigInt_Multiply256Bit);

void BM_BigInt_DivMod256Bit(benchmark::State& state) {
  BigInt a = BigInt::from_string(
      "12193263113702179522618503273362292333223746380111126352690");
  BigInt b = BigInt::from_string("987654321098765432109876543210987654321");
  for (auto _ : state) {
    BigInt q;
    BigInt r;
    BigInt::divmod(a, b, q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigInt_DivMod256Bit);

template <typename Scalar>
void solve_kernel_benchmark(benchmark::State& state) {
  models::RandomNetworkSpec spec;
  spec.seed = 9;
  spec.num_metabolites = 7;
  spec.num_extra_reactions = 5;
  spec.num_exchanges = 4;
  auto compressed = compress(models::random_network(spec));
  auto problem = to_problem<Scalar>(compressed);
  for (auto _ : state) {
    auto result = solve_efms<Scalar, Bitset64>(problem);
    benchmark::DoNotOptimize(result.columns.size());
  }
}

void BM_SolveKernel_CheckedI64(benchmark::State& state) {
  solve_kernel_benchmark<CheckedI64>(state);
}
BENCHMARK(BM_SolveKernel_CheckedI64)->Unit(benchmark::kMicrosecond);

void BM_SolveKernel_BigInt(benchmark::State& state) {
  solve_kernel_benchmark<BigInt>(state);
}
BENCHMARK(BM_SolveKernel_BigInt)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
