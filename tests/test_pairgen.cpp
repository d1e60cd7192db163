// Differential tests for the candidate-generation engine (pairgen.hpp).
//
// The engine composes popcount pruning, cache tiling and the SIMD pre-test
// kernel — every one of which must be invisible in the output.  The oracle
// is generate_candidate_refs_reference, the straight scalar row-major loop
// the engine replaced: for random networks (Bitset64, and DynBitset with
// inline and heap-held words) the engine must produce the exact same
// candidate multiset, the same survivor counts, and charge every pair in
// its range exactly once, under full-range, blocked, partitioned and
// forced-scalar traversal alike.
#include "nullspace/pairgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/rank_test.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

template <typename Support>
using Cols = std::vector<FluxColumn<CheckedI64, Support>>;

/// Random columns, `nnz` nonzeros each, over `q` reactions.  Larger `nnz`
/// against a small rank exercises the popcount prune (columns whose own
/// support already breaks rank + 2).
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

  // Same candidates, same probe accounting: the prune only reorders and
  // bulk-charges, it never changes what survives.
  expect_same_refs(got, want);
  EXPECT_EQ(eng_stats.pairs_probed, ref_stats.pairs_probed);
  EXPECT_EQ(eng_stats.pairs_probed, cls.pair_count());
  EXPECT_EQ(eng_stats.pretest_survivors, ref_stats.pretest_survivors);
  EXPECT_LE(eng_stats.pairs_pruned, eng_stats.pairs_probed);
  EXPECT_EQ(ref_stats.pairs_pruned, 0u);

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

TEST(PairGenDifferential, Bitset64PruneHeavyMatchesReference) {
  // nnz up to 14 against rank 4: many columns individually break the
  // rank + 2 bound, so whole stretches are pruned without probing.
  for (std::uint64_t seed : {5u, 17u}) {
    differential_case<Bitset64>(60, 14, 4, seed);
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

TEST(PairGenDifferential, PruneActuallyFires) {
  // Guard against the prune silently never engaging (the differential
  // tests would still pass): wide columns against a small rank must cut.
  auto columns = random_columns<Bitset64>(160, 60, 14, 5);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 60, &cls);
  IterationStats stats;
  engine_refs(columns, row, cls, /*rank=*/4, stats);
  EXPECT_GT(stats.pairs_pruned, 0u);
  EXPECT_EQ(stats.pairs_probed, cls.pair_count());
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
    EXPECT_EQ(simd_stats.pairs_pruned, scalar_stats.pairs_pruned);
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

TEST(ProcessPairRange, SharedTablesMatchLocalTables) {
  // The dynamic scheduler fans worker ranges out against one shared table
  // set; the result must match per-call local tables.
  auto columns = random_columns<DynBitset>(100, 90, 6, 51);
  RowClassification cls;
  const std::size_t row = busiest_row(columns, 90, &cls);
  Matrix<CheckedI64> n = Matrix<CheckedI64>::from_rows(
      {{1, -1, 0, 0, 0, 0}, {0, 1, -1, 0, 0, 0}, {0, 0, 1, -1, 1, -1}});
  // A permissive oracle keeps plenty of accepted columns in play.
  auto accept_all = [](const DynBitset&) { return true; };

  auto run = [&](const PairGenTables<CheckedI64, DynBitset>* shared) {
    IterationStats stats;
    PhaseTimer phases;
    std::vector<FluxColumn<CheckedI64, DynBitset>> accepted;
    const std::uint64_t total = cls.pair_count();
    const std::uint64_t third = total / 3;
    for (std::uint64_t b : {std::uint64_t{0}, third, 2 * third}) {
      const std::uint64_t e = (b == 2 * third) ? total : b + third;
      process_pair_range(columns, row, cls, /*rank=*/9, b, e,
                         /*ref_cap=*/64, accept_all, stats, phases, accepted,
                         shared);
    }
    std::sort(accepted.begin(), accepted.end());
    return std::pair(std::move(accepted), stats);
  };

  PairGenTables<CheckedI64, DynBitset> tables(columns, row, cls.positive,
                                              cls.negative, cls.zero, 9);
  auto [shared_accepted, shared_stats] = run(&tables);
  auto [local_accepted, local_stats] = run(nullptr);
  EXPECT_EQ(shared_accepted, local_accepted);
  EXPECT_EQ(shared_stats.pairs_probed, local_stats.pairs_probed);
  EXPECT_EQ(shared_stats.accepted, local_stats.accepted);
  EXPECT_EQ(shared_stats.pairs_probed, cls.pair_count());
}

}  // namespace
}  // namespace elmo
