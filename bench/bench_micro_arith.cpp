// Microbenchmark: arithmetic kernels.
//
// The solver defaults to overflow-checked int64 and falls back to BigInt.
// Measures the primitive operations (BigInt on inline and 256-bit values,
// modular mulmod, checked i64) and a whole toy-network solve per kernel.
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

// BigInt keeps int64-range values inline and takes the limb algorithms
// only past that range.  Each kernel below runs on both paths: inline
// operands (the common case: result modes, compression rationals) and
// 256-bit ones.

void BM_BigInt_MulAddInline(benchmark::State& state) {
  Rng rng(1);
  BigInt a(static_cast<std::int64_t>(rng.below(1 << 20)));
  const BigInt b(static_cast<std::int64_t>(rng.below(1 << 20)));
  const BigInt c(static_cast<std::int64_t>(rng.below(1 << 20)));
  for (auto _ : state) {
    BigInt acc = a * b + c;
    a = BigInt(acc.to_i64() & 0xfffff);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BigInt_MulAddInline);

void BM_BigInt_MulAdd256Bit(benchmark::State& state) {
  const BigInt a = BigInt::from_string("340282366920938463463374607431768211");
  const BigInt b = BigInt::from_string("340282366920938463463374607431768233");
  const BigInt c = BigInt::from_string("-98765432109876543210987654321");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b + c);
  }
}
BENCHMARK(BM_BigInt_MulAdd256Bit);

void BM_BigInt_CompareInline(benchmark::State& state) {
  Rng rng(3);
  const BigInt a(-static_cast<std::int64_t>(rng.below(1 << 30)));
  const BigInt b = a + BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_BigInt_CompareInline);

void BM_BigInt_Compare256Bit(benchmark::State& state) {
  const BigInt a = BigInt::from_string(
      "-12193263113702179522618503273362292333223746380111126352690");
  const BigInt b = BigInt::from_string(
      "-12193263113702179522618503273362292333223746380111126352689");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_BigInt_Compare256Bit);

void BM_BigInt_GcdInline(benchmark::State& state) {
  Rng rng(4);
  const BigInt common(static_cast<std::int64_t>(rng.below(1 << 20)) + 1);
  const auto a_factor = static_cast<std::int64_t>(rng.below(1 << 30));
  const auto b_factor = static_cast<std::int64_t>(rng.below(1 << 30));
  const BigInt a = common * BigInt(a_factor);
  const BigInt b = common * BigInt(-b_factor);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::gcd(a, b));
  }
}
BENCHMARK(BM_BigInt_GcdInline);

void BM_BigInt_Gcd256Bit(benchmark::State& state) {
  const BigInt common = BigInt::from_string("98765432109876543210987654321");
  const BigInt a =
      common * BigInt::from_string("123456789012345678901234567890123");
  const BigInt b =
      common * BigInt::from_string("-987654321098765432109876543210987");
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::gcd(a, b));
  }
}
BENCHMARK(BM_BigInt_Gcd256Bit);

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
