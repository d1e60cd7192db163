// Differential tests for the candidate-generation engine (pairgen.hpp).
//
// The engine composes popcount-sorted sides, cache tiling and the SIMD
// pre-test kernel — every one of which must be invisible in the output.
// The oracle is generate_candidate_refs_reference, the straight scalar
// row-major loop the engine replaced: for random columns (Bitset64, and
// DynBitset with inline and heap-held words) and for every iteration of
// real solves, the engine must produce the exact same candidate multiset,
// the same survivor counts, and charge every pair in its range exactly
// once, under full-range, blocked, partitioned and forced-scalar traversal
// alike.
#include "nullspace/pairgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "compress/compression.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/reversible_split.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/solver.hpp"
#include "resource/governor.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

template <typename Support>
using Cols = std::vector<FluxColumn<CheckedI64, Support>>;

/// Random columns, up to `nnz` + 1 nonzeros each, over `q` reactions.
template <typename Support>
Cols<Support> random_columns(std::size_t count, std::size_t q,
                             std::size_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  Cols<Support> columns;
  columns.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    std::vector<CheckedI64> values(q, CheckedI64(0));
    for (std::size_t k = 0; k < 1 + rng.below(nnz); ++k)
      values[rng.below(q)] = CheckedI64(rng.range(-3, 3));
    values[rng.below(q)] = CheckedI64(1 + static_cast<std::int64_t>(rng.below(2)));
    columns.push_back(
        FluxColumn<CheckedI64, Support>::from_values(std::move(values)));
  }
  return columns;
}

/// Row with the largest pair space (so the tests actually cover pairs).
template <typename Support>
std::size_t busiest_row(const Cols<Support>& columns, std::size_t q,
                        RowClassification* cls) {
  std::size_t row = 0;
  for (std::size_t r = 0; r < q; ++r) {
    auto c = classify_row(columns, r);
    if (c.pair_count() > cls->pair_count()) {
      *cls = std::move(c);
      row = r;
    }
  }
  return row;
}

template <typename Support>
void sort_refs(std::vector<CandidateRef<Support>>& refs) {
  std::sort(refs.begin(), refs.end(),
            [](const CandidateRef<Support>& a, const CandidateRef<Support>& b) {
              if (a.positive != b.positive) return a.positive < b.positive;
              return a.negative < b.negative;
            });
}

template <typename Support>
void expect_same_refs(std::vector<CandidateRef<Support>> got,
                      std::vector<CandidateRef<Support>> want) {
  sort_refs(got);
  sort_refs(want);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].positive, want[k].positive) << "ref " << k;
    EXPECT_EQ(got[k].negative, want[k].negative) << "ref " << k;
    EXPECT_TRUE(got[k].support == want[k].support) << "ref " << k;
  }
}

/// Engine output over [0, pair_count) in one call.
template <typename Support>
std::vector<CandidateRef<Support>> engine_refs(const Cols<Support>& columns,
                                               std::size_t row,
                                               const RowClassification& cls,
                                               std::size_t rank,
                                               IterationStats& stats,
                                               PairGenConfig config = {}) {
  PairGenTables<CheckedI64, Support> tables(columns, row, cls.positive,
                                            cls.negative, cls.zero, rank,
                                            config);
  PairGen<CheckedI64, Support> gen(tables, 0, tables.pair_count());
  std::vector<CandidateRef<Support>> refs;
  gen.generate(SIZE_MAX, refs, stats);
  return refs;
}

template <typename Support>
std::vector<CandidateRef<Support>> reference_refs(
    const Cols<Support>& columns, std::size_t row,
    const RowClassification& cls, std::size_t rank, IterationStats& stats) {
  std::vector<CandidateRef<Support>> refs;
  std::uint64_t cursor = 0;
  generate_candidate_refs_reference(columns, row, cls, &cursor,
                                    cls.pair_count(), rank, SIZE_MAX, refs,
                                    stats);
  return refs;
}

template <typename Support>
void differential_case(std::size_t q, std::size_t nnz, std::size_t rank,
                       std::uint64_t seed) {
  auto columns = random_columns<Support>(160, q, nnz, seed);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, q, &cls);
  ASSERT_GT(cls.pair_count(), 0u);

  IterationStats ref_stats;
  auto want = reference_refs(columns, row, cls, rank, ref_stats);
  IterationStats eng_stats;
  auto got = engine_refs(columns, row, cls, rank, eng_stats);

  // Same candidates, same probe accounting: the engine only reorders the
  // probes, it never changes what survives.
  expect_same_refs(got, want);
  EXPECT_EQ(eng_stats.pairs_probed, ref_stats.pairs_probed);
  EXPECT_EQ(eng_stats.pairs_probed, cls.pair_count());
  EXPECT_EQ(eng_stats.pretest_survivors, ref_stats.pretest_survivors);

  // Both generators build supports through from_words; check each one
  // against the support of the combination it names, built bit by bit.
  using Column = FluxColumn<CheckedI64, Support>;
  std::vector<CheckedI64> combined;
  for (const auto& ref : got) {
    combine_values_into(columns[ref.positive], columns[ref.negative], row,
                        combined);
    EXPECT_TRUE(ref.support == Column::from_values(combined).support)
        << "ref (" << ref.positive << ", " << ref.negative << ")";
  }
}

TEST(PairGenDifferential, Bitset64MatchesReference) {
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    differential_case<Bitset64>(60, 6, 9, seed);
  }
}

TEST(PairGenDifferential, DynBitsetTwoWordsMatchesReference) {
  for (std::uint64_t seed : {7u, 23u}) {
    differential_case<DynBitset>(100, 7, 10, seed);
  }
}

TEST(PairGenDifferential, DynBitsetThreeWordsMatchesReference) {
  differential_case<DynBitset>(170, 8, 11, 13);
}

TEST(PairGenDifferential, DynBitsetHeapWordsMatchesReference) {
  // Five words: past DynBitset's inline storage, so every survivor support
  // owns a heap block.
  differential_case<DynBitset>(300, 8, 11, 37);
}

TEST(PairGenTables, RejectsSupportsWiderThanTheCeiling) {
  // 4,097 reactions need 65 words, one more than the engine's stack
  // buffer; the tables reject them before any pair is probed.
  for (std::size_t q : {std::size_t{4096}, std::size_t{4097}}) {
    Cols<DynBitset> columns;
    std::vector<CheckedI64> values(q, CheckedI64(0));
    values[0] = CheckedI64(1);
    values[q - 1] = CheckedI64(1);
    columns.push_back(
        FluxColumn<CheckedI64, DynBitset>::from_values(values));
    values[0] = CheckedI64(-1);
    columns.push_back(
        FluxColumn<CheckedI64, DynBitset>::from_values(values));
    const RowClassification cls = classify_row(columns, 0);
    auto build = [&] {
      PairGenTables<CheckedI64, DynBitset> tables(
          columns, 0, cls.positive, cls.negative, cls.zero, 4);
    };
    if (q == 4096) {
      EXPECT_NO_THROW(build());
    } else {
      EXPECT_THROW(build(), InvalidArgumentError);
      IterationStats stats;
      EXPECT_THROW(reference_refs(columns, 0, cls, 4, stats),
                   InvalidArgumentError);
    }
  }
}

/// Network under test: the toy, ecoli core, or "random<seed>", a seeded
/// 8-metabolite random network.
Network solver_network(const std::string& name) {
  if (name == "toy") return models::toy_network();
  if (name == "ecoli") return models::ecoli_core();
  models::RandomNetworkSpec spec;
  spec.num_metabolites = 8;
  spec.num_extra_reactions = 8;
  spec.num_exchanges = 4;
  spec.reversible_probability = 0.4;
  spec.seed = std::stoull(name.substr(6));
  return models::random_network(spec);
}

TEST(PairGenDifferential, SolverColumnsMatchReferenceEveryIteration) {
  // The serial iteration loop of core/estimate.hpp, with the engine checked
  // against the reference on each iteration's real columns.  Every column
  // also stays within rank + 1 nonzeros: the rank test rejects wider
  // supports, so no column can fail the rank + 2 pre-test on its own.
  for (const std::string name :
       {"toy", "ecoli", "random1", "random10", "random11"}) {
    SCOPED_TRACE(name);
    const auto prepared = prepare_problem(
        to_problem<CheckedI64>(compress(solver_network(name))));
    auto basis =
        compute_initial_basis<CheckedI64, DynBitset>(prepared.problem);
    const std::size_t rank = basis.stoichiometry_rank;
    SparseRankTester<CheckedI64> tester(prepared.problem.stoichiometry,
                                        basis.columns);
    auto is_elementary = [&tester](const DynBitset& support) {
      return tester.is_elementary(support);
    };
    auto columns = std::move(basis.columns);
    PhaseTimer phases;
    std::uint64_t survivors = 0;
    for (std::size_t row : basis.processing_order) {
      for (const auto& column : columns)
        ASSERT_LE(column.support.count(), rank + 1);
      const auto cls = classify_row(columns, row);

      IterationStats ref_stats;
      auto want = reference_refs(columns, row, cls, rank, ref_stats);
      IterationStats eng_stats;
      auto got = engine_refs(columns, row, cls, rank, eng_stats);
      expect_same_refs(got, want);
      EXPECT_EQ(eng_stats.pairs_probed, ref_stats.pairs_probed);
      EXPECT_EQ(eng_stats.pretest_survivors, ref_stats.pretest_survivors);
      survivors += eng_stats.pretest_survivors;

      tester.begin_iteration(iteration_common_zero_rows(
          columns, cls.positive, cls.negative, row));
      IterationStats iteration;
      std::vector<FluxColumn<CheckedI64, DynBitset>> accepted;
      process_pair_range(columns, row, cls, rank, 0, cls.pair_count(),
                         std::size_t{1} << 20, is_elementary, iteration,
                         phases, accepted);
      columns = merge_next(std::move(columns), cls,
                           prepared.problem.reversible[row],
                           std::move(accepted));
    }
    for (const auto& column : columns)
      ASSERT_LE(column.support.count(), rank + 1);
    EXPECT_FALSE(columns.empty());
    EXPECT_GT(survivors, 0u);
  }
}

TEST(PairGenDifferential, ScalarAndSimdKernelsAreBitIdentical) {
  if (!PairGenTables<CheckedI64, Bitset64>(
           {}, 0, {}, {}, {}, 0)
           .simd_active()) {
    GTEST_SKIP() << "SIMD kernel not selectable on this build/CPU";
  }
  for (std::uint64_t seed : {3u, 19u}) {
    auto columns = random_columns<DynBitset>(160, 100, 7, seed);
    RowClassification cls;
    const std::size_t row = busiest_row(columns, 100, &cls);
    IterationStats simd_stats;
    auto simd = engine_refs(columns, row, cls, 10, simd_stats);
    IterationStats scalar_stats;
    PairGenConfig scalar_config;
    scalar_config.force_scalar = true;
    auto scalar = engine_refs(columns, row, cls, 10, scalar_stats,
                              scalar_config);
    expect_same_refs(simd, scalar);
    EXPECT_EQ(simd_stats.pairs_probed, scalar_stats.pairs_probed);
    EXPECT_EQ(simd_stats.pretest_survivors, scalar_stats.pretest_survivors);
  }
}

TEST(PairGenResume, RefCapBlockingMatchesOneShot) {
  // Tiny ref caps force a stop after every few refs — including inside a
  // SIMD group, whose remaining lanes must be re-probed on resume.
  auto columns = random_columns<DynBitset>(120, 90, 6, 21);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 90, &cls);
  IterationStats one_stats;
  auto one_shot = engine_refs(columns, row, cls, 9, one_stats);

  for (std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    PairGenTables<CheckedI64, DynBitset> tables(columns, row, cls.positive,
                                                cls.negative, cls.zero, 9);
    PairGen<CheckedI64, DynBitset> gen(tables, 0, tables.pair_count());
    IterationStats stats;
    std::vector<CandidateRef<DynBitset>> all;
    std::size_t calls = 0;
    while (!gen.done()) {
      std::vector<CandidateRef<DynBitset>> block;
      gen.generate(cap, block, stats);
      EXPECT_LE(block.size(), cap);
      for (auto& ref : block) all.push_back(std::move(ref));
      ASSERT_LT(++calls, 100000u) << "cursor failed to advance";
    }
    expect_same_refs(all, one_shot);
    EXPECT_EQ(stats.pairs_probed, one_stats.pairs_probed);
    EXPECT_EQ(stats.pretest_survivors, one_stats.pretest_survivors);
  }
}

TEST(PairGenResume, RangePartitionCoversPairSpaceExactlyOnce) {
  // Any partition of [0, pair_count) — rank slices, stolen batches — must
  // reproduce the full-range multiset and conserve the pair count.
  auto columns = random_columns<Bitset64>(140, 60, 8, 31);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 60, &cls);
  IterationStats full_stats;
  auto full = engine_refs(columns, row, cls, 7, full_stats);

  PairGenTables<CheckedI64, Bitset64> tables(columns, row, cls.positive,
                                             cls.negative, cls.zero, 7);
  const std::uint64_t total = tables.pair_count();
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint64_t> cuts = {0, total};
    for (int k = 0; k < 9; ++k)
      cuts.push_back(rng.below(total + 1));
    std::sort(cuts.begin(), cuts.end());
    IterationStats stats;
    std::vector<CandidateRef<Bitset64>> all;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      PairGen<CheckedI64, Bitset64> gen(tables, cuts[k], cuts[k + 1]);
      gen.generate(SIZE_MAX, all, stats);
      EXPECT_TRUE(gen.done());
      EXPECT_EQ(gen.cursor(), cuts[k + 1]);
    }
    expect_same_refs(all, full);
    EXPECT_EQ(stats.pairs_probed, total);
    EXPECT_EQ(stats.pretest_survivors, full_stats.pretest_survivors);
  }
}

TEST(PairGenResume, EmptyAndDegenerateRanges) {
  auto columns = random_columns<Bitset64>(40, 50, 5, 41);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 50, &cls);
  PairGenTables<CheckedI64, Bitset64> tables(columns, row, cls.positive,
                                             cls.negative, cls.zero, 8);
  PairGen<CheckedI64, Bitset64> empty(tables, 5, 5);
  EXPECT_TRUE(empty.done());
  IterationStats stats;
  std::vector<CandidateRef<Bitset64>> refs;
  empty.generate(SIZE_MAX, refs, stats);
  EXPECT_TRUE(refs.empty());
  EXPECT_EQ(stats.pairs_probed, 0u);
  EXPECT_THROW(
      (PairGen<CheckedI64, Bitset64>(tables, 0, tables.pair_count() + 1)),
      InvalidArgumentError);
}

TEST(ProcessPairRange, OneTableAcrossSubRangesMatchesOneRange) {
  // SMP workers and spill chunks offer sub-ranges to one shared support
  // table, in any order: the result and every count must match one
  // process_pair_range over the whole range.
  // Ten reactions: supports collide often, so winners and duplicates are
  // exercised.  Random columns are not proportional, so a winner other
  // than the lowest engine index would change the delivered values.
  auto columns = random_columns<DynBitset>(100, 10, 4, 51);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 10, &cls);
  // A support-only oracle that rejects about half the supports.
  auto even = [](const DynBitset& support) {
    return support.count() % 2 == 0;
  };
  const std::uint64_t total = cls.pair_count();
  const std::size_t ref_cap = std::size_t{1} << 20;

  IterationStats whole;
  PhaseTimer phases;
  std::vector<FluxColumn<CheckedI64, DynBitset>> want;
  process_pair_range(columns, row, cls, /*rank=*/9, 0, total, ref_cap, even,
                     whole, phases, want);

  PairGenTables<CheckedI64, DynBitset> tables(columns, row, cls.positive,
                                              cls.negative, cls.zero, 9);
  SupportTable<CheckedI64, DynBitset> table(tables, ref_cap);
  IterationStats parts;
  const std::uint64_t third = total / 3;
  for (std::uint64_t b : {2 * third, std::uint64_t{0}, third}) {
    const std::uint64_t e = (b == 2 * third) ? total : b + third;
    table.offer(b, e, even, parts, phases);
  }
  std::vector<FluxColumn<CheckedI64, DynBitset>> got;
  table.deliver(even, parts, phases, got);

  EXPECT_EQ(got, want);
  EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
  EXPECT_GT(whole.accepted, 0u);
  EXPECT_GT(whole.rank_tests, whole.accepted);
  EXPECT_GT(whole.duplicates_removed, 0u);
  EXPECT_EQ(parts.pairs_probed, total);
  EXPECT_EQ(parts.pairs_probed, whole.pairs_probed);
  EXPECT_EQ(parts.rank_tests, whole.rank_tests);
  EXPECT_EQ(parts.duplicates_removed, whole.duplicates_removed);
  EXPECT_EQ(parts.accepted, whole.accepted);
}

TEST(ProcessPairRange, GovernedTableDropsRejectedSupportsWithinTheLimit) {
  // An iteration whose rejected supports alone outgrow the memory limit.
  // The governed chunk driver's table drops them once it passes its share
  // of the headroom, so the ledger stays inside the limit, and the columns
  // equal the in-memory driver's.  A dropped support offered again is
  // rank-tested again: rank tests grow by exactly what duplicates_removed
  // loses.
  auto columns = random_columns<DynBitset>(700, 24, 6, 77);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 24, &cls);
  auto rare = [](const DynBitset& support) {
    return support.count() % 7 == 0;
  };
  const std::uint64_t total = cls.pair_count();
  const std::size_t ref_cap = std::size_t{1} << 20;
  auto& governor = resource::MemoryGovernor::global();
  governor.reset();

  IterationStats whole;
  PhaseTimer phases;
  std::vector<FluxColumn<CheckedI64, DynBitset>> want;
  process_pair_range(columns, row, cls, /*rank=*/23, 0, total, ref_cap, rare,
                     whole, phases, want);
  const std::size_t ungoverned_peak = governor.peak_usage();

  governor.reset();
  const std::size_t limit = ungoverned_peak / 2;
  governor.set_limit(limit);
  PairGenTables<CheckedI64, DynBitset> tables(columns, row, cls.positive,
                                              cls.negative, cls.zero, 23);
  IterationStats governed;
  std::vector<FluxColumn<CheckedI64, DynBitset>> got;
  {
    SupportTable<CheckedI64, DynBitset> table(tables, ref_cap);
    process_pair_range_spilled(
        table, 0, total, ref_cap, rare, governed, phases, got,
        SpillPolicy{.enabled = true, .directory = ::testing::TempDir()});
  }
  const std::size_t governed_peak = governor.peak_usage();
  governor.reset();

  EXPECT_LE(governed_peak, limit);
  EXPECT_EQ(got, want);
  EXPECT_EQ(governed.accepted, whole.accepted);
  EXPECT_GT(governed.rank_tests, whole.rank_tests);
  EXPECT_EQ(governed.rank_tests + governed.duplicates_removed,
            whole.rank_tests + whole.duplicates_removed);
}

}  // namespace
}  // namespace elmo
