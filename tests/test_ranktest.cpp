// Tests for the sparse amortized rank-test engine: differential agreement
// with the exact Bareiss and dense-modular testers, warm-start semantics,
// adversarial modular edge cases, and solver results against the
// exhaustive oracle.
#include "nullspace/sparse_rank.hpp"

#include <gtest/gtest.h>

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "efm_test_util.hpp"
#include "linalg/sparse.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/solver.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

using modular::kPrime;

TEST(SparseCsc, BuildSkipsZerosAndKeepsSliceOrder) {
  // 3x4 dense, minor = rows: entries (row, col) -> row * 10 + col + 1 on a
  // fixed pattern.
  const int dense[3][4] = {{1, 0, 2, 0},  //
                           {0, 0, 3, 0},  //
                           {4, 0, 0, 5}};
  auto m = SparseCscU64::build(3, 4, [&](std::size_t i, std::size_t j) {
    return static_cast<std::uint64_t>(dense[i][j]);
  });
  EXPECT_EQ(m.minor_count(), 3u);
  EXPECT_EQ(m.major_count(), 4u);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_EQ(m.count(0), 2u);
  EXPECT_EQ(m.count(1), 0u);
  EXPECT_EQ(m.count(2), 2u);
  EXPECT_EQ(m.count(3), 1u);
  EXPECT_EQ(m.indices(0)[0], 0u);
  EXPECT_EQ(m.indices(0)[1], 2u);
  EXPECT_EQ(m.values(0)[0], 1u);
  EXPECT_EQ(m.values(0)[1], 4u);
  EXPECT_EQ(m.indices(3)[0], 2u);
  EXPECT_EQ(m.values(3)[0], 5u);
}

TEST(SparseRankTester, MatchesDenseAndExactOnToyAllSupports) {
  auto compressed = compress(models::toy_network());
  auto problem = to_problem<CheckedI64>(compressed);
  auto basis = compute_initial_basis<CheckedI64, Bitset64>(problem);
  SparseRankTester<CheckedI64> sparse(problem.stoichiometry, basis.columns);
  ModularRankTester<CheckedI64> dense(problem.stoichiometry, basis.columns);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  for (std::uint64_t bits = 0; bits < 256; ++bits) {
    Bitset64 support(bits);
    const bool expected = exact.is_elementary(support);
    EXPECT_EQ(sparse.is_elementary(support), expected) << "support " << bits;
    EXPECT_EQ(dense.is_elementary(support), expected) << "support " << bits;
  }
}

TEST(SparseRankTester, MatchesExactOnYeastBoundarySupports) {
  auto compressed = compress(models::yeast_network_1());
  auto prepared = prepare_problem(to_problem<CheckedI64>(compressed));
  const auto& problem = prepared.problem;
  auto basis = compute_initial_basis<CheckedI64, DynBitset>(problem);
  SparseRankTester<CheckedI64> sparse(problem.stoichiometry, basis.columns);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  // Seeded supports straddling the accept boundary (rank - 1 .. rank + 1).
  Rng rng(17);
  const std::size_t q = problem.num_reactions();
  for (int iter = 0; iter < 200; ++iter) {
    DynBitset support(q);
    std::size_t size = basis.stoichiometry_rank - 1 + rng.below(3);
    while (support.count() < size) support.set(rng.below(q));
    EXPECT_EQ(sparse.is_elementary(support), exact.is_elementary(support))
        << "iter " << iter;
  }
  EXPECT_GT(sparse.stats().tests, 0u);
  EXPECT_EQ(sparse.stats().tests, sparse.stats().sparse_hits);
}

TEST(SparseRankTester, ForcedSidesAgreeWithExact) {
  auto compressed = compress(models::yeast_network_1());
  auto prepared = prepare_problem(to_problem<CheckedI64>(compressed));
  const auto& problem = prepared.problem;
  auto basis = compute_initial_basis<CheckedI64, DynBitset>(problem);
  SparseRankConfig n_config;
  n_config.force_side = RankTestSide::kNSide;
  SparseRankConfig k_config;
  k_config.force_side = RankTestSide::kKSide;
  SparseRankTester<CheckedI64> n_side(problem.stoichiometry, basis.columns,
                                      n_config);
  SparseRankTester<CheckedI64> k_side(problem.stoichiometry, basis.columns,
                                      k_config);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  Rng rng(23);
  const std::size_t q = problem.num_reactions();
  for (int iter = 0; iter < 120; ++iter) {
    DynBitset support(q);
    std::size_t size = basis.stoichiometry_rank - 1 + rng.below(3);
    while (support.count() < size) support.set(rng.below(q));
    const bool expected = exact.is_elementary(support);
    EXPECT_EQ(n_side.is_elementary(support), expected) << "iter " << iter;
    EXPECT_EQ(k_side.is_elementary(support), expected) << "iter " << iter;
  }
}

// Build solver-shaped candidate supports for one iteration: union of a
// positive and a negative column's support, minus the processed row.
template <typename Support, typename Columns>
std::vector<Support> iteration_candidates(const Columns& columns,
                                          const RowClassification& cls,
                                          std::size_t row, std::size_t q,
                                          std::size_t cap) {
  std::vector<Support> out;
  std::vector<std::uint32_t> scratch;
  for (std::uint32_t i : cls.positive) {
    for (std::uint32_t j : cls.negative) {
      if (out.size() >= cap) return out;
      Support support(q);
      scratch.clear();
      columns[i].support.append_indices(scratch);
      columns[j].support.append_indices(scratch);
      for (std::uint32_t r : scratch) {
        if (r != row) support.set(r);
      }
      out.push_back(std::move(support));
    }
  }
  return out;
}

TEST(SparseRankTester, WarmStartMatchesColdVerdicts) {
  auto compressed = compress(models::yeast_network_1());
  auto prepared = prepare_problem(to_problem<CheckedI64>(compressed));
  const auto& problem = prepared.problem;
  auto basis = compute_initial_basis<CheckedI64, DynBitset>(problem);
  const std::size_t q = problem.num_reactions();

  SparseRankConfig k_config;
  k_config.force_side = RankTestSide::kKSide;
  SparseRankTester<CheckedI64> warm(problem.stoichiometry, basis.columns,
                                    k_config);
  SparseRankTester<CheckedI64> cold(problem.stoichiometry, basis.columns,
                                    k_config);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  // First processing row whose classification yields actual pairs.
  std::size_t row = q;
  RowClassification cls;
  for (std::size_t r : basis.processing_order) {
    cls = classify_row(basis.columns, r);
    if (!cls.positive.empty() && !cls.negative.empty()) {
      row = r;
      break;
    }
  }
  ASSERT_LT(row, q);
  const auto common = iteration_common_zero_rows(basis.columns, cls.positive,
                                                 cls.negative, row);
  warm.begin_iteration(common);

  const auto candidates = iteration_candidates<DynBitset>(
      basis.columns, cls, row, q, /*cap=*/200);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const bool expected = exact.is_elementary(candidates[c]);
    EXPECT_EQ(warm.is_elementary(candidates[c]), expected) << "pair " << c;
    EXPECT_EQ(cold.is_elementary(candidates[c]), expected) << "pair " << c;
  }
  EXPECT_GT(warm.stats().warmstart_reuses, 0u);
  EXPECT_EQ(cold.stats().warmstart_reuses, 0u);
}

TEST(SparseRankTester, IntersectingSupportIsServedColdAndCorrect) {
  auto compressed = compress(models::yeast_network_1());
  auto prepared = prepare_problem(to_problem<CheckedI64>(compressed));
  const auto& problem = prepared.problem;
  auto basis = compute_initial_basis<CheckedI64, DynBitset>(problem);
  const std::size_t q = problem.num_reactions();

  SparseRankConfig k_config;
  k_config.force_side = RankTestSide::kKSide;
  SparseRankTester<CheckedI64> tester(problem.stoichiometry, basis.columns,
                                      k_config);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  const std::size_t row = basis.processing_order.front();
  auto cls = classify_row(basis.columns, row);
  const auto common = iteration_common_zero_rows(basis.columns, cls.positive,
                                                 cls.negative, row);
  ASSERT_FALSE(common.empty());
  tester.begin_iteration(common);

  // Supports deliberately violating the cache contract (they contain cached
  // rows) must be detected per call and answered correctly anyway.
  Rng rng(29);
  for (int iter = 0; iter < 60; ++iter) {
    DynBitset support(q);
    std::size_t size = basis.stoichiometry_rank - 1 + rng.below(3);
    while (support.count() < size) support.set(rng.below(q));
    support.set(common[rng.below(common.size())]);
    EXPECT_EQ(tester.is_elementary(support), exact.is_elementary(support))
        << "iter " << iter;
  }
  EXPECT_EQ(tester.stats().warmstart_reuses, 0u);
}

TEST(SparseRankTester, WorksWithBigIntScalars) {
  auto compressed = compress(models::toy_network());
  auto problem = to_problem<BigInt>(compressed);
  auto basis = compute_initial_basis<BigInt, Bitset64>(problem);
  SparseRankTester<BigInt> sparse(problem.stoichiometry, basis.columns);
  RankTester<BigInt> exact(problem.stoichiometry);
  for (std::uint64_t bits = 1; bits < 256; ++bits) {
    Bitset64 support(bits);
    EXPECT_EQ(sparse.is_elementary(support), exact.is_elementary(support));
  }
}

TEST(SparseRankTester, OverflowRangeEntriesReduceCorrectly) {
  // Coefficients far outside int64 exercise from_scalar(BigInt) in both the
  // rref construction and the kernel row store.
  const BigInt huge = BigInt::from_string("91343852333181432387730302044767688728495783936");
  Matrix<BigInt> n(2, 4);
  n(0, 0) = huge;
  n(0, 1) = BigInt(1);
  n(0, 2) = huge * BigInt(2);
  n(0, 3) = BigInt(0);
  n(1, 0) = BigInt(0);
  n(1, 1) = huge;
  n(1, 2) = BigInt(3);
  n(1, 3) = huge + BigInt(1);
  EfmProblem<BigInt> problem;
  problem.stoichiometry = n;
  problem.reversible.assign(4, false);
  problem.reaction_names = {"R1", "R2", "R3", "R4"};
  auto basis = compute_initial_basis<BigInt, Bitset64>(problem);
  SparseRankTester<BigInt> sparse(problem.stoichiometry, basis.columns);
  RankTester<BigInt> exact(problem.stoichiometry);
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    Bitset64 support(bits);
    EXPECT_EQ(sparse.is_elementary(support), exact.is_elementary(support))
        << "support " << bits;
  }
}

TEST(SparseRankTester, PDivisibleMinorIsTheDocumentedMonteCarloMiss) {
  // N = [[1, 1, 2], [1, 1+p, 2]]: the {0,1} minor has determinant exactly
  // p, so rank_p(N[:,{0,1}]) = 1 while the exact rank is 2.  The N-side
  // formulation therefore false-accepts — the ~2^-45 Monte-Carlo event the
  // modular testers document — while the K-side formulation, built from the
  // EXACT kernel (here span{(2, 0, -1)}), still matches Bareiss.
  const BigInt p(static_cast<std::int64_t>(kPrime));
  Matrix<BigInt> n(2, 3);
  n(0, 0) = BigInt(1);
  n(0, 1) = BigInt(1);
  n(0, 2) = BigInt(2);
  n(1, 0) = BigInt(1);
  n(1, 1) = p + BigInt(1);
  n(1, 2) = BigInt(2);
  std::vector<FluxColumn<BigInt, Bitset64>> kernel;
  kernel.push_back(FluxColumn<BigInt, Bitset64>::from_values(
      {BigInt(2), BigInt(0), BigInt(-1)}));

  RankTester<BigInt> exact(n);
  Bitset64 support(0b011);
  EXPECT_FALSE(exact.is_elementary(support));

  SparseRankConfig n_config;
  n_config.force_side = RankTestSide::kNSide;
  SparseRankTester<BigInt> n_side(n, kernel, n_config);
  EXPECT_EQ(n_side.stoichiometry_rank_mod_p(), 1u);  // exact rank is 2
  EXPECT_TRUE(n_side.is_elementary(support));        // the false accept

  SparseRankConfig k_config;
  k_config.force_side = RankTestSide::kKSide;
  SparseRankTester<BigInt> k_side(n, kernel, k_config);
  EXPECT_FALSE(k_side.is_elementary(support));
}

TEST(SparseRankTester, EdgeSupports) {
  // One zero column: its singleton support is a one-dimensional nullspace
  // (accept); the empty support and oversize supports always reject.
  Matrix<CheckedI64> n(2, 4);
  n(0, 0) = CheckedI64(1);
  n(0, 2) = CheckedI64(1);
  n(1, 1) = CheckedI64(1);
  n(1, 2) = CheckedI64(-1);
  // Column 3 is identically zero.
  EfmProblem<CheckedI64> problem;
  problem.stoichiometry = n;
  problem.reversible.assign(4, false);
  problem.reaction_names = {"R1", "R2", "R3", "R4"};
  auto basis = compute_initial_basis<CheckedI64, Bitset64>(problem);
  SparseRankTester<CheckedI64> sparse(problem.stoichiometry, basis.columns);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  EXPECT_FALSE(sparse.is_elementary(Bitset64(0b0000)));
  EXPECT_TRUE(sparse.is_elementary(Bitset64(0b1000)));   // the zero column
  EXPECT_FALSE(sparse.is_elementary(Bitset64(0b1111)));  // nullity 2
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    Bitset64 support(bits);
    EXPECT_EQ(sparse.is_elementary(support), exact.is_elementary(support))
        << "support " << bits;
  }
}

TEST(SparseRankTester, DrainStatsMovesAndResets) {
  auto compressed = compress(models::toy_network());
  auto problem = to_problem<CheckedI64>(compressed);
  auto basis = compute_initial_basis<CheckedI64, Bitset64>(problem);
  SparseRankTester<CheckedI64> sparse(problem.stoichiometry, basis.columns);
  for (std::uint64_t bits = 1; bits < 64; ++bits) {
    sparse.is_elementary(Bitset64(bits));
  }
  const auto before = sparse.stats();
  EXPECT_GT(before.tests, 0u);
  IterationStats iteration;
  sparse.drain_stats(iteration);
  EXPECT_EQ(iteration.rank_sparse_hits, before.sparse_hits);
  EXPECT_EQ(iteration.rank_gathered_nnz, before.gathered_nnz);
  EXPECT_EQ(sparse.stats().tests, 0u);
  EXPECT_EQ(sparse.stats().gathered_nnz, 0u);
}

TEST(IterationCommonZeroRows, ReturnsUntouchedRowsPlusProcessedRow) {
  using Column = FluxColumn<CheckedI64, Bitset64>;
  std::vector<Column> columns;
  columns.push_back(Column::from_values(
      {CheckedI64(1), CheckedI64(0), CheckedI64(-1), CheckedI64(0),
       CheckedI64(0)}));
  columns.push_back(Column::from_values(
      {CheckedI64(0), CheckedI64(1), CheckedI64(1), CheckedI64(0),
       CheckedI64(0)}));
  columns.push_back(Column::from_values(
      {CheckedI64(0), CheckedI64(0), CheckedI64(0), CheckedI64(1),
       CheckedI64(1)}));
  // Pair columns 0 (positive) and 1 (negative) on row 2; column 2 is not in
  // the pairing, so its rows 3 and 4 stay untouched.
  const auto common = iteration_common_zero_rows(
      columns, std::vector<std::uint32_t>{0}, std::vector<std::uint32_t>{1},
      /*row=*/2);
  EXPECT_EQ(common, (std::vector<std::uint32_t>{2, 3, 4}));
}

TEST(SparseRankTester, SolverMatchesExhaustiveOracle) {
  // The engine is the solver's only elementarity test; its EFM sets must
  // equal the exhaustive subset enumeration, which never runs the solver.
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto solved = solve_efms<CheckedI64, Bitset64>(problem);
  EXPECT_EQ(expand_and_canonicalize(solved.columns, compressed, net),
            exhaustive_efms(net));
  EXPECT_GT(solved.stats.total_rank_sparse_hits, 0u);

  for (std::uint64_t seed = 80; seed < 92; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 5 + seed % 3;
    Network random_net = models::random_network(spec);
    auto c = compress(random_net);
    auto p = to_problem<CheckedI64>(c);
    auto y = solve_efms<CheckedI64, Bitset64>(p);
    EXPECT_EQ(expand_and_canonicalize(y.columns, c, random_net),
              exhaustive_efms(random_net))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace elmo
