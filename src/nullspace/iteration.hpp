// One iteration of the Nullspace Algorithm (one processed row).
//
// The steps mirror Algorithm 1/2 of the paper and are split into free
// functions so every driver shares the same kernel: solve_nullspace
// (nullspace/solver.hpp) — serial Algorithm 1 and each Algorithm 2 rank
// over its pair slice —, Algorithm 4's shard pairings
// (core/partitioned_parallel.hpp) and the subset estimator's prefix run
// (core/estimate.hpp):
//
//   classify_row        - split columns into zero / positive / negative
//   process_pair_range  - over a flattened pair-index range (the range is
//                         what Algorithm 2 partitions across compute
//                         ranks): generate candidate refs, dedup them, run
//                         the per-candidate elementarity test and
//                         materialise the accepted ones
//   sort_and_dedup      - the paper's Sort&RemoveDuplicates (by support)
//   merge_next          - RemoveNegColumns + concatenate survivors
//
// The cardinality pre-test inside candidate generation is the hot loop: an
// OR + popcount per pair; pairs failing it are counted but never
// materialised.  This is what the paper's per-iteration "generated
// candidate modes" numbers count.  Production traversal runs through the
// tiled/SIMD engine in nullspace/pairgen.hpp; the straight scalar
// loop is kept here as generate_candidate_refs_reference, the differential
// oracle the engine is tested against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "bitset/traits.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/pairgen.hpp"
#include "nullspace/stats.hpp"
#include "support/timer.hpp"

namespace elmo {

struct RowClassification {
  std::vector<std::uint32_t> zero;
  std::vector<std::uint32_t> positive;
  std::vector<std::uint32_t> negative;

  /// Total positive x negative pairs for this row.
  [[nodiscard]] std::uint64_t pair_count() const {
    return static_cast<std::uint64_t>(positive.size()) *
           static_cast<std::uint64_t>(negative.size());
  }
};

template <typename Scalar, typename Support>
RowClassification classify_row(
    const std::vector<FluxColumn<Scalar, Support>>& columns,
    std::size_t row) {
  RowClassification out;
  for (std::uint32_t j = 0; j < columns.size(); ++j) {
    if (!columns[j].support.test(row)) {
      out.zero.push_back(j);
      continue;
    }
    if (columns[j].sign_at(row) > 0)
      out.positive.push_back(j);
    else
      out.negative.push_back(j);
  }
  return out;
}

/// Contiguous word-array snapshot of a set of supports.  The candidate
/// pre-test touches two supports per pair, billions of times per yeast
/// iteration; flattening them removes the per-column pointer chase from
/// the inner loop.
class FlatSupports {
 public:
  void assign(const auto& columns, const std::vector<std::uint32_t>& chosen) {
    stride_ = chosen.empty() ? 1 : support_stride(columns[chosen[0]].support);
    words_.resize(chosen.size() * stride_);
    for (std::size_t k = 0; k < chosen.size(); ++k) {
      std::ranges::copy(columns[chosen[k]].support.words(),
                        words_.begin() + k * stride_);
    }
  }

  /// popcount(support[a] | support[b]) <= max_union?
  [[nodiscard]] bool union_within(std::size_t a, const std::uint64_t* b,
                                  std::size_t max_union) const {
    const std::uint64_t* pa = words_.data() + a * stride_;
    std::size_t count = 0;
    for (std::size_t w = 0; w < stride_; ++w)
      count += static_cast<std::size_t>(std::popcount(pa[w] | b[w]));
    return count <= max_union;
  }

  [[nodiscard]] const std::uint64_t* row(std::size_t k) const {
    return words_.data() + k * stride_;
  }
  [[nodiscard]] std::size_t stride() const { return stride_; }

 private:
  std::size_t stride_ = 1;
  std::vector<std::uint64_t> words_;
};

/// REFERENCE generator: the straight scalar loop over row-major pair
/// indices, kept as the differential oracle for the engine in pairgen.hpp
/// (tests assert both paths produce the same candidate multiset and the
/// same survivor counts).  Production code calls generate_candidate_refs /
/// process_pair_range, which run the tiled/SIMD engine.
///
/// Generates candidate refs for flattened pair indices starting at
/// `*cursor` until either the pair range [begin, end) is exhausted or
/// `out` reaches `ref_cap` entries (bounded-memory blocking).  Updates
/// `*cursor`.
///
/// Pair p maps to (positive[p / negatives], negative[p % negatives]).
/// The cheap pre-test bounds the support union: |supp(u) ∪ supp(v)| <=
/// rank + 2 (the combination zeroes the processed row).  For survivors the
/// EXACT support is computed — entries shared by both columns may cancel —
/// and candidates whose support is empty (mirror columns) or still larger
/// than rank + 1 are dropped immediately.
template <typename Scalar, typename Support>
void generate_candidate_refs_reference(
    const std::vector<FluxColumn<Scalar, Support>>& columns, std::size_t row,
    const RowClassification& cls, std::uint64_t* cursor, std::uint64_t end,
    std::size_t rank, std::size_t ref_cap,
    std::vector<CandidateRef<Support>>& out, IterationStats& stats) {
  const std::uint64_t negatives = cls.negative.size();
  if (negatives == 0 || cls.positive.empty() || *cursor >= end) {
    *cursor = end;
    return;
  }
  const std::size_t max_union = rank + 2;

  FlatSupports pos;
  FlatSupports neg;
  pos.assign(columns, cls.positive);
  neg.assign(columns, cls.negative);

  // Survivor supports are computed word-wise on the stack; assign capped
  // the stride at kMaxSupportWords.
  const std::size_t stride = pos.stride();
  std::uint64_t union_words[kMaxSupportWords];

  std::uint64_t p = *cursor;
  std::size_t i = static_cast<std::size_t>(p / negatives);
  std::size_t j = static_cast<std::size_t>(p % negatives);
  while (p < end && out.size() < ref_cap) {
    // Run through one positive column's stretch with its support pinned.
    const std::uint64_t stretch =
        std::min<std::uint64_t>(end - p, negatives - j);
    const std::uint64_t* pi = pos.row(i);
    const auto& u = columns[cls.positive[i]];
    std::uint64_t s = 0;
    for (; s < stretch; ++s, ++j) {
      ++stats.pairs_probed;
      if (!neg.union_within(j, pi, max_union)) continue;
      ++stats.pretest_survivors;
      const auto& v = columns[cls.negative[j]];
      const std::uint64_t* nj = neg.row(j);

      // Exact support: union minus the processed row minus cancellations
      // (entries both columns carry can cancel in the combination).
      const Scalar a = -v.values[row];
      const Scalar b = u.values[row];
      std::size_t size = 0;
      for (std::size_t w = 0; w < stride; ++w) {
        std::uint64_t uw = pi[w] | nj[w];
        std::uint64_t both = pi[w] & nj[w];
        if (row / 64 == w) {
          const std::uint64_t row_bit = 1ULL << (row % 64);
          uw &= ~row_bit;
          both &= ~row_bit;
        }
        while (both) {
          const std::size_t idx =
              w * 64 + static_cast<std::size_t>(std::countr_zero(both));
          both &= both - 1;
          if (scalar_is_zero(a * u.values[idx] + b * v.values[idx]))
            uw &= ~(1ULL << (idx % 64));
        }
        union_words[w] = uw;
        size += static_cast<std::size_t>(std::popcount(uw));
      }
      if (size == 0 || size > rank + 1) continue;  // zero vector / nullity>=2

      out.push_back(CandidateRef<Support>{
          Support::from_words({union_words, stride}), cls.positive[i],
          cls.negative[j]});
      if (out.size() >= ref_cap) {
        ++s;
        ++j;
        break;
      }
    }
    p += s;
    if (j == negatives) {
      j = 0;
      ++i;
    }
  }
  *cursor = p;
}

/// Generate candidate refs through the tiled/SIMD engine
/// (nullspace/pairgen.hpp) for ENGINE indices starting at `*cursor` until
/// either [begin, end) is exhausted or `out` reaches `ref_cap` entries.
///
/// Engine indices enumerate the same pos x neg pair space as the reference
/// generator but in tile-major order over popcount-sorted sides; any
/// partition of [0, pair_count) still covers every pair exactly once, so
/// rank slicing and pair-count conservation are unaffected.  The candidate
/// multiset for a full range is identical to the reference (the engine
/// only reorders the probes).
///
/// This convenience wrapper builds the lookup tables per call; block loops
/// should build PairGenTables once and drive a PairGen directly (see
/// process_pair_range).
template <typename Scalar, typename Support>
void generate_candidate_refs(
    const std::vector<FluxColumn<Scalar, Support>>& columns, std::size_t row,
    const RowClassification& cls, std::uint64_t* cursor, std::uint64_t end,
    std::size_t rank, std::size_t ref_cap,
    std::vector<CandidateRef<Support>>& out, IterationStats& stats,
    PairGenConfig config = {}) {
  if (cls.negative.empty() || cls.positive.empty() || *cursor >= end) {
    *cursor = end;
    return;
  }
  PairGenTables<Scalar, Support> tables(columns, row, cls.positive,
                                        cls.negative, cls.zero, rank, config);
  PairGen<Scalar, Support> gen(tables, *cursor, end);
  out.reserve(out.size() + static_cast<std::size_t>(std::min<std::uint64_t>(
                               {ref_cap, end - *cursor, std::uint64_t{1} << 20})));
  gen.generate(ref_cap, out, stats);
  *cursor = gen.cursor();
}

/// The paper's Sort&RemoveDuplicates: sort by support pattern (then values,
/// for determinism) and keep one column per support.  Candidates sharing a
/// support are either proportional (true duplicates) or will all fail the
/// rank test, so support-level dedup is lossless.
template <typename Scalar, typename Support>
void sort_and_dedup(std::vector<FluxColumn<Scalar, Support>>& candidates,
                    IterationStats& stats) {
  std::sort(candidates.begin(), candidates.end());
  auto last = std::unique(candidates.begin(), candidates.end(),
                          [](const auto& a, const auto& b) {
                            return a.support == b.support;
                          });
  stats.duplicates_removed +=
      static_cast<std::uint64_t>(candidates.end() - last);
  candidates.erase(last, candidates.end());
}

/// Empty existing-column index: substituted when a block produced no refs
/// so tables.existing() is never forced just to loop over zero candidates.
template <typename Scalar, typename Support>
inline const std::vector<const FluxColumn<Scalar, Support>*> kNoExisting{};

/// Process one rank's pair range [begin, end) for `row` in bounded-memory
/// blocks: generate refs through the pairgen engine, dedup (within block,
/// across blocks, and against existing zero columns), apply
/// `is_elementary(support)`, and materialise accepted candidates into
/// `accepted_out` (appended; earlier content is left untouched).
///
/// [begin, end) are ENGINE indices (tile-major over popcount-sorted sides;
/// see pairgen.hpp).  Any partition of [0, cls.pair_count()) covers every
/// pair exactly once, so rank slicing and the pair-conservation audit are
/// unaffected by the reordering.
///
/// `shared_tables`, when given, must have been built from the same
/// (columns, row, cls, rank); dynamic schedulers build the tables once per
/// iteration and fan worker ranges out against them.  When null the tables
/// are built locally.
///
/// Blocking bounds transient memory by ~ref_cap refs regardless of how many
/// pretest survivors the pair range produces (the full Network I run
/// generates billions).
template <typename Scalar, typename Support, typename TestFn>
void process_pair_range(
    const std::vector<FluxColumn<Scalar, Support>>& columns, std::size_t row,
    const RowClassification& cls, std::size_t rank, std::uint64_t begin,
    std::uint64_t end, std::size_t ref_cap, const TestFn& is_elementary,
    IterationStats& stats, PhaseTimer& phases,
    std::vector<FluxColumn<Scalar, Support>>& accepted_out,
    const PairGenTables<Scalar, Support>* shared_tables = nullptr) {
  if (cls.positive.empty() || cls.negative.empty() || begin >= end) {
    stats.pairs_probed += (begin < end) ? end - begin : 0;
    return;
  }

  std::optional<PairGenTables<Scalar, Support>> local_tables;
  if (shared_tables == nullptr) {
    ScopedPhase phase(phases, Phase::kGenCand);
    local_tables.emplace(columns, row, cls.positive, cls.negative, cls.zero,
                         rank);
  }
  const PairGenTables<Scalar, Support>& tables =
      shared_tables != nullptr ? *shared_tables : *local_tables;

  const std::size_t initial_accepted = accepted_out.size();
  std::vector<Support> accepted_supports;  // sorted, for cross-block dedup
  std::vector<CandidateRef<Support>> refs;
  refs.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      {ref_cap, end - begin, std::uint64_t{1} << 20})));
  ValueSlab<Scalar> value_slab;  // recycles duplicate-probe value buffers
  PairGen<Scalar, Support> gen(tables, begin, end);
  while (!gen.done()) {
    refs.clear();
    {
      ScopedPhase phase(phases, Phase::kGenCand);
      gen.generate(ref_cap, refs, stats);
    }
    std::size_t block_first_accept = accepted_out.size();
    {
      ScopedPhase phase(phases, Phase::kMerge);
      // Stable sort by support ONLY: among equal supports the FIRST ref in
      // engine order survives.  Cross-block dedup keeps the earliest
      // block's ref, so first-in-engine-order is the one winner rule that
      // makes the result independent of ref_cap blocking.
      std::stable_sort(refs.begin(), refs.end(),
                       [](const auto& a, const auto& b) {
                         return a.support < b.support;
                       });
      auto last = std::unique(refs.begin(), refs.end(),
                              [](const auto& a, const auto& b) {
                                return a.support == b.support;
                              });
      stats.duplicates_removed +=
          static_cast<std::uint64_t>(refs.end() - last);
      refs.erase(last, refs.end());

      // Cross-block duplicates.
      if (!accepted_supports.empty()) {
        std::size_t kept = 0;
        for (std::size_t c = 0; c < refs.size(); ++c) {
          if (std::binary_search(accepted_supports.begin(),
                                 accepted_supports.end(), refs[c].support)) {
            ++stats.duplicates_removed;
            continue;
          }
          if (kept != c) refs[kept] = std::move(refs[c]);
          ++kept;
        }
        refs.resize(kept);
      }
      // Duplicates of existing zero columns (value-exact only).  The
      // sorted-by-support index is built inside the tables on first use —
      // guarding on refs keeps pure probe passes from ever paying for the
      // sort.  A candidate whose support AND values duplicate an existing
      // column is dropped (the paper's Fig. 2 fourth iteration), mirrors
      // are kept.
      if (const auto& existing =
              refs.empty() ? kNoExisting<Scalar, Support> : tables.existing();
          !existing.empty()) {
        std::size_t kept = 0;
        for (std::size_t c = 0; c < refs.size(); ++c) {
          auto range = std::equal_range(
              existing.begin(), existing.end(), refs[c].support,
              [](const auto& a, const auto& b) {
                if constexpr (std::is_pointer_v<std::decay_t<decltype(a)>>) {
                  return a->support < b;
                } else {
                  return a < b->support;
                }
              });
          bool duplicate = false;
          if (range.first != range.second) {
            // Support collision: compare primitive values without
            // materialising a column (the buffer is recycled).
            auto probe = value_slab.acquire();
            combine_values_into(columns[refs[c].positive],
                                columns[refs[c].negative], row, probe);
            for (auto it = range.first; it != range.second && !duplicate;
                 ++it) {
              duplicate = (*it)->values == probe;
            }
            value_slab.release(std::move(probe));
          }
          if (duplicate) {
            ++stats.duplicates_removed;
            continue;
          }
          if (kept != c) refs[kept] = std::move(refs[c]);
          ++kept;
        }
        refs.resize(kept);
      }
    }
    {
      ScopedPhase phase(phases, Phase::kRankTest);
      for (auto& ref : refs) {
        ++stats.rank_tests;
        if (!is_elementary(ref.support)) continue;
        // Materialise in place: combine_values_into yields the primitive
        // value vector and the ref already carries the exact support, so
        // neither is recomputed by FluxColumn::from_values.
        FluxColumn<Scalar, Support> column;
        auto values = value_slab.acquire();
        combine_values_into(columns[ref.positive], columns[ref.negative], row,
                            values);
        column.values = std::move(values);
        column.support = std::move(ref.support);
        accepted_out.push_back(std::move(column));
      }
    }
    if (!gen.done()) {
      // More blocks follow: remember this block's accepted supports.  The
      // block's refs were support-sorted, so its accepted slice already is;
      // one in-place merge keeps the running index sorted in linear time.
      ScopedPhase phase(phases, Phase::kMerge);
      const auto mid = static_cast<std::ptrdiff_t>(accepted_supports.size());
      accepted_supports.reserve(accepted_out.size() - initial_accepted);
      for (std::size_t a = block_first_accept; a < accepted_out.size(); ++a)
        accepted_supports.push_back(accepted_out[a].support);
      std::inplace_merge(accepted_supports.begin(),
                         accepted_supports.begin() + mid,
                         accepted_supports.end());
    }
  }
  stats.accepted +=
      static_cast<std::uint64_t>(accepted_out.size() - initial_accepted);
}

/// Build the next iteration's matrix: zero columns + positive columns +
/// (negative columns if the processed reaction is reversible) + accepted
/// candidates (paper: RemoveNegColumns then concatenation).
template <typename Scalar, typename Support>
std::vector<FluxColumn<Scalar, Support>> merge_next(
    std::vector<FluxColumn<Scalar, Support>>&& columns,
    const RowClassification& cls, bool row_reversible,
    std::vector<FluxColumn<Scalar, Support>>&& accepted) {
  std::vector<FluxColumn<Scalar, Support>> next;
  next.reserve(cls.zero.size() + cls.positive.size() +
               (row_reversible ? cls.negative.size() : 0) + accepted.size());
  for (std::uint32_t j : cls.zero) next.push_back(std::move(columns[j]));
  for (std::uint32_t j : cls.positive) next.push_back(std::move(columns[j]));
  if (row_reversible) {
    for (std::uint32_t j : cls.negative)
      next.push_back(std::move(columns[j]));
  }
  for (auto& candidate : accepted) next.push_back(std::move(candidate));
  return next;
}

}  // namespace elmo
