// Microbenchmark: the candidate-generation inner loop.
//
// The pre-test (union popcount against the rank bound) runs once per
// positive x negative pair — 159.6e9 times on the paper's Network I run —
// so its per-pair cost decides the "gen cand" rows of Tables II/III.
// Measures Bitset64 (<= 64 reactions) vs DynBitset (two words, the yeast
// reduction's size) pair probing, and full candidate-ref generation.
#include <benchmark/benchmark.h>

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "models/yeast.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "support/random.hpp"

namespace {

using namespace elmo;

template <typename Support>
std::vector<FluxColumn<CheckedI64, Support>> synthetic_columns(
    std::size_t count, std::size_t q, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FluxColumn<CheckedI64, Support>> columns;
  columns.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    std::vector<CheckedI64> values(q, CheckedI64(0));
    std::size_t nnz = 8 + rng.below(12);
    for (std::size_t k = 0; k < nnz; ++k)
      values[rng.below(q)] = CheckedI64(rng.range(-3, 3));
    // Ensure a nonzero somewhere so from_values has a support.
    values[rng.below(q)] = CheckedI64(1);
    columns.push_back(
        FluxColumn<CheckedI64, Support>::from_values(std::move(values)));
  }
  return columns;
}

// `reference` selects the pre-engine scalar row-major loop
// (generate_candidate_refs_reference) so the engine's gain stays measurable
// in-tree; the default runs the tiled/SIMD engine (pairgen.hpp).
template <typename Support>
void pair_probe_benchmark(benchmark::State& state, std::size_t q,
                          std::size_t rank, bool reference = false) {
  auto columns = synthetic_columns<Support>(2048, q, 5);
  // Pick a processing row most columns touch with both signs.
  std::size_t row = 0;
  RowClassification cls;
  for (std::size_t r = 0; r < q; ++r) {
    auto c = classify_row(columns, r);
    if (c.pair_count() > cls.pair_count()) {
      cls = std::move(c);
      row = r;
    }
  }
  for (auto _ : state) {
    IterationStats stats;
    std::vector<CandidateRef<Support>> refs;
    std::uint64_t cursor = 0;
    if (reference) {
      generate_candidate_refs_reference(columns, row, cls, &cursor,
                                        cls.pair_count(), rank, SIZE_MAX,
                                        refs, stats);
    } else {
      generate_candidate_refs(columns, row, cls, &cursor, cls.pair_count(),
                              rank, SIZE_MAX, refs, stats);
    }
    state.counters["pairs/s"] = benchmark::Counter(
        static_cast<double>(stats.pairs_probed),
        benchmark::Counter::kIsIterationInvariantRate);
    benchmark::DoNotOptimize(refs);
  }
}

// rank = 35 makes most pairs pass the pre-test (survivor-dominated,
// measures full candidate generation); rank = 8 makes nearly all pairs
// fail (measures the pure probe loop — what 159.6e9 pairs cost).
void BM_PairProbe_Bitset64(benchmark::State& state) {
  pair_probe_benchmark<Bitset64>(state, 60, 35);
}
BENCHMARK(BM_PairProbe_Bitset64);

void BM_PairProbe_Bitset64_RejectPath(benchmark::State& state) {
  pair_probe_benchmark<Bitset64>(state, 60, 8);
}
BENCHMARK(BM_PairProbe_Bitset64_RejectPath);

void BM_PairProbe_DynBitset2Words(benchmark::State& state) {
  pair_probe_benchmark<DynBitset>(state, 66, 35);  // the yeast size
}
BENCHMARK(BM_PairProbe_DynBitset2Words);

void BM_PairProbe_DynBitset2Words_RejectPath(benchmark::State& state) {
  pair_probe_benchmark<DynBitset>(state, 66, 8);
}
BENCHMARK(BM_PairProbe_DynBitset2Words_RejectPath);

void BM_PairProbe_DynBitset8Words(benchmark::State& state) {
  pair_probe_benchmark<DynBitset>(state, 500, 35);  // genome-scale width
}
BENCHMARK(BM_PairProbe_DynBitset8Words);

// Pre-engine reference loop on the same workloads (the old inner loop, kept
// as the differential oracle); the gap to the variants above is the engine.
void BM_PairProbe_Bitset64_Reference(benchmark::State& state) {
  pair_probe_benchmark<Bitset64>(state, 60, 35, /*reference=*/true);
}
BENCHMARK(BM_PairProbe_Bitset64_Reference);

void BM_PairProbe_Bitset64_RejectPath_Reference(benchmark::State& state) {
  pair_probe_benchmark<Bitset64>(state, 60, 8, /*reference=*/true);
}
BENCHMARK(BM_PairProbe_Bitset64_RejectPath_Reference);

void BM_PairProbe_DynBitset2Words_Reference(benchmark::State& state) {
  pair_probe_benchmark<DynBitset>(state, 66, 35, /*reference=*/true);
}
BENCHMARK(BM_PairProbe_DynBitset2Words_Reference);

void BM_PairProbe_DynBitset2Words_RejectPath_Reference(
    benchmark::State& state) {
  pair_probe_benchmark<DynBitset>(state, 66, 8, /*reference=*/true);
}
BENCHMARK(BM_PairProbe_DynBitset2Words_RejectPath_Reference);

void BM_PairProbe_DynBitset8Words_Reference(benchmark::State& state) {
  pair_probe_benchmark<DynBitset>(state, 500, 35, /*reference=*/true);
}
BENCHMARK(BM_PairProbe_DynBitset8Words_Reference);

void BM_YeastFirstIterations(benchmark::State& state) {
  // End-to-end cost of the first eight iterations on the real reduced
  // Network I problem (exact solver machinery, modular rank test).
  auto compressed = compress(models::yeast_network_1());
  auto problem = to_problem<CheckedI64>(compressed);
  for (auto _ : state) {
    SolverOptions options;
    int iterations = 0;
    // Stop early by throwing out of the observer (caught below).
    options.on_iteration = [&](const IterationStats&) {
      if (++iterations >= 8) throw std::runtime_error("stop");
    };
    try {
      auto result = solve_efms<CheckedI64, DynBitset>(problem, options);
      benchmark::DoNotOptimize(result.columns.size());
    } catch (const std::runtime_error&) {
    }
  }
}
BENCHMARK(BM_YeastFirstIterations)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
