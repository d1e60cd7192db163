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
//   SupportTable        - the paper's Sort&RemoveDuplicates, once per
//                         iteration and before the rank test: every block,
//                         SMP worker and spill chunk of one rank offers its
//                         candidate refs to one support-keyed table, which
//                         rank-tests each distinct support once and
//                         materialises the accepted ones in support order
//   process_pair_range  - one pair-index range (the range is what
//                         Algorithm 2 partitions across compute ranks)
//                         through a SupportTable of its own
//   sort_and_dedup      - Sort&RemoveDuplicates over materialised columns,
//                         for Algorithm 2's cross-rank exchange
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
#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "bitset/traits.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/pairgen.hpp"
#include "nullspace/stats.hpp"
#include "resource/governor.hpp"
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

/// The iteration's one Sort&RemoveDuplicates (paper, Algorithms 1 and 2):
/// one rank's pretest survivors — every block, SMP worker and spill chunk
/// of its pair range — meet in this table, keyed by exact support, before
/// any rank test.
///
///   - Each entry keeps the ref with the lowest engine index (the winner;
///     workers may offer out of order) and the support's verdict.
///   - A support the table has not seen is rank-tested once, by the worker
///     that offered it; every later ref with that support only counts in
///     duplicates_removed.  So rank_tests does not depend on the worker
///     count or the chunking.
///   - A support that equals an existing zero column's is settled on
///     delivery, from the final winner: dropped if its values duplicate
///     that column (the paper's Fig. 2 fourth iteration), else rank-tested.
///     Mirrors are kept.
///   - deliver() materialises the accepted supports from their winners in
///     support order.  Equal-support candidates that pass the rank test are
///     proportional, so the winner fixes only the orientation.
///
/// Memory: the table keeps every accepted support of the iteration.  It
/// drops its rejected ones (a dropped support offered again is tested
/// again) when `ref_cap` of them pile up, or when the table passes
/// offer()'s `max_bytes` and they are at least half of its entries: so it
/// holds at most about max(max_bytes, twice the accepted entries), and the
/// drops cost linear time overall.  Each worker also holds its in-flight
/// block.  The table charges its bytes to the kCandidates lease.
///
/// An open-addressing index over an entry vector, rather than a node-based
/// std::unordered_map: the map made yeast Network I (knockouts R15, R33,
/// R41) at --threads 4 about 30% slower (DESIGN.md §11).
///
/// offer() is thread-safe: workers hash, generate and rank-test outside
/// the lock and take it twice per block, to insert and to record verdicts.
template <typename Scalar, typename Support>
class SupportTable {
 public:
  SupportTable(const PairGenTables<Scalar, Support>& tables,
               std::size_t ref_cap)
      : tables_(tables),
        ref_cap_(ref_cap),
        block_refs_(std::max<std::size_t>(
            1, std::min(ref_cap, kBlockRefs))) {}
  SupportTable(const SupportTable&) = delete;
  SupportTable& operator=(const SupportTable&) = delete;

  /// Generate the engine indices [begin, end) block by block, offer every
  /// ref and rank-test the supports this table sees first.
  template <typename TestFn>
  void offer(std::uint64_t begin, std::uint64_t end,
             const TestFn& is_elementary, IterationStats& stats,
             PhaseTimer& phases,
             std::size_t max_bytes = std::numeric_limits<std::size_t>::max()) {
    PairGen<Scalar, Support> gen(tables_, begin, end);
    std::vector<CandidateRef<Support>> refs;
    std::vector<std::uint64_t> hashes;
    std::vector<Verdict> verdicts;
    while (!gen.done()) {
      refs.clear();
      {
        ScopedPhase phase(phases, Phase::kGenCand);
        gen.generate(block_refs_, refs, stats);
      }
      std::size_t fresh = 0;
      {
        ScopedPhase phase(phases, Phase::kMerge);
        hashes.resize(refs.size());
        for (std::size_t c = 0; c < refs.size(); ++c)
          hashes[c] = hash(refs[c].support);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          fresh = insert_locked(refs, hashes);
        }
        stats.duplicates_removed += refs.size() - fresh;
        verdicts.assign(fresh, Verdict::kPending);
        for (std::size_t c = 0; c < fresh; ++c) {
          if (!existing_with(refs[c].support).empty())
            verdicts[c] = Verdict::kExisting;
        }
      }
      {
        ScopedPhase phase(phases, Phase::kRankTest);
        for (std::size_t c = 0; c < fresh; ++c) {
          if (verdicts[c] == Verdict::kExisting) continue;
          ++stats.rank_tests;
          verdicts[c] = is_elementary(refs[c].support) ? Verdict::kAccepted
                                                       : Verdict::kRejected;
        }
      }
      ScopedPhase phase(phases, Phase::kMerge);
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t c = 0; c < fresh; ++c) {
        verdicts_[entry_index(slots_[find(refs[c].support, hashes[c])])] =
            verdicts[c];
        if (verdicts[c] == Verdict::kRejected)
          ++rejected_;
        else
          due_.push_back(refs[c].support);
      }
      if (rejected_ >= ref_cap_ || (2 * rejected_ >= winners_.size() &&
                                    bytes_locked() > max_bytes))
        drop_rejected_locked();
      lease_.set(bytes_locked());
    }
  }

  /// Append the accepted supports not delivered before, materialised from
  /// their winning refs, in support order, and count them in
  /// stats.accepted.  The few rank tests of kExisting supports are timed
  /// as merge.  No offer() may run concurrently, and none may later
  /// offer a lower engine index for a delivered support.
  template <typename TestFn>
  void deliver(const TestFn& is_elementary, IterationStats& stats,
               PhaseTimer& phases,
               std::vector<FluxColumn<Scalar, Support>>& out) {
    ScopedPhase phase(phases, Phase::kMerge);
    std::sort(due_.begin(), due_.end());
    const auto& columns = tables_.columns();
    const std::size_t first = out.size();
    for (const Support& support : due_) {
      const std::size_t e =
          entry_index(slots_[find(support, hash(support))]);
      Verdict& verdict = verdicts_[e];
      FluxColumn<Scalar, Support> column;
      combine_values_into(columns[winners_[e].positive],
                          columns[winners_[e].negative], tables_.row(),
                          column.values);
      if (verdict == Verdict::kExisting) {
        if (std::ranges::any_of(existing_with(support),
                                [&](const auto* existing) {
                                  return existing->values == column.values;
                                })) {
          ++stats.duplicates_removed;
          verdict = Verdict::kDuplicate;
          continue;
        }
        ++stats.rank_tests;
        if (!is_elementary(support)) {
          verdict = Verdict::kRejected;
          ++rejected_;
          continue;
        }
      }
      verdict = Verdict::kAccepted;
      column.support = support;
      out.push_back(std::move(column));
    }
    stats.accepted += out.size() - first;
    due_.clear();
    lease_.set(bytes_locked());
  }

  /// Bytes the table charges to its lease.  For the one-worker chunk
  /// loop, between offers.
  [[nodiscard]] std::size_t bytes() const { return lease_.charged(); }

 private:
  /// Worker block: small, so a worker holds few refs the table has not
  /// yet deduplicated, and large enough that two lock rounds per block
  /// stay cheap.
  static constexpr std::size_t kBlockRefs = std::size_t{1} << 14;

  enum class Verdict : std::uint8_t {
    kPending,    // offered; its worker is rank-testing it
    kExisting,   // an existing zero column has this support; see deliver
    kRejected,
    kDuplicate,  // an existing column's values; never dropped, so a
                 // later ref's winner cannot settle it differently
    kAccepted,   // in due_ until delivered
  };

  /// Slot word: the hash's high half, then entry index + 1 (0 = empty).
  static constexpr std::uint64_t kIndexMask = 0xffffffffULL;

  static std::uint64_t hash(const Support& support) {
    std::uint64_t h = 0;
    for (const std::uint64_t word : support.words()) {
      h = (h ^ word) * 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    }
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 29);
  }
  static std::size_t entry_index(std::uint64_t slot) {
    return static_cast<std::size_t>((slot & kIndexMask) - 1);
  }

  /// The slot holding `support` (hash `h`), or the empty slot where it
  /// belongs.
  [[nodiscard]] std::size_t find(const Support& support,
                                 std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    for (auto s = static_cast<std::size_t>(h) & mask;; s = (s + 1) & mask) {
      const std::uint64_t slot = slots_[s];
      if (slot == 0) return s;
      if ((slot & ~kIndexMask) == (h & ~kIndexMask) &&
          winners_[entry_index(slot)].support == support)
        return s;
    }
  }

  /// Existing zero columns with this support (sorted by support in the
  /// engine tables; built on first use).
  [[nodiscard]] auto existing_with(const Support& support) const {
    return std::ranges::equal_range(
        tables_.existing(), support, {},
        [](const auto* column) -> const Support& { return column->support; });
  }

  /// Insert `refs` (one block, in engine order, with their hashes).
  /// Supports the table had not seen move to the front of `refs` and
  /// `hashes`; returns their count.
  std::size_t insert_locked(std::vector<CandidateRef<Support>>& refs,
                            std::vector<std::uint64_t>& hashes) {
    const std::size_t most = winners_.size() + refs.size();
    if (4 * most > 3 * slots_.size())  // load factor at most 3/4
      rehash_locked(most);
    std::size_t fresh = 0;
    for (std::size_t c = 0; c < refs.size(); ++c) {
      const std::uint64_t h = hashes[c];
      const std::size_t s = find(refs[c].support, h);
      if (slots_[s] != 0) {
        CandidateRef<Support>& winner = winners_[entry_index(slots_[s])];
        if (tables_.engine_before(refs[c], winner)) {
          winner.positive = refs[c].positive;
          winner.negative = refs[c].negative;
        }
        continue;
      }
      slots_[s] = (h & ~kIndexMask) | (winners_.size() + 1);
      winners_.push_back(refs[c]);
      verdicts_.push_back(Verdict::kPending);
      if (fresh != c) {
        refs[fresh] = std::move(refs[c]);
        hashes[fresh] = h;
      }
      ++fresh;
    }
    return fresh;
  }

  void drop_rejected_locked() {
    std::size_t kept = 0;
    for (std::size_t e = 0; e < winners_.size(); ++e) {
      if (verdicts_[e] == Verdict::kRejected) continue;
      if (kept != e) {
        winners_[kept] = std::move(winners_[e]);
        verdicts_[kept] = verdicts_[e];
      }
      ++kept;
    }
    winners_.resize(kept);
    winners_.shrink_to_fit();
    verdicts_.resize(kept);
    verdicts_.shrink_to_fit();
    rejected_ = 0;
    rehash_locked(kept);
  }

  /// Rebuild the slots for `entries` entries at load factor at most 3/4.
  void rehash_locked(std::size_t entries) {
    slots_.assign(std::max<std::size_t>(
                      std::bit_ceil(entries + entries / 3 + 1), 64),
                  0);
    slots_.shrink_to_fit();
    for (std::size_t e = 0; e < winners_.size(); ++e) {
      const std::uint64_t h = hash(winners_[e].support);
      slots_[find(winners_[e].support, h)] = (h & ~kIndexMask) | (e + 1);
    }
  }

  [[nodiscard]] std::size_t bytes_locked() const {
    return winners_.capacity() * sizeof(CandidateRef<Support>) +
           verdicts_.capacity() * sizeof(Verdict) +
           slots_.capacity() * sizeof(std::uint64_t) +
           due_.capacity() * sizeof(Support);
  }

  const PairGenTables<Scalar, Support>& tables_;
  const std::size_t ref_cap_;
  const std::size_t block_refs_;
  std::mutex mutex_;  // guards everything below while workers offer
  // Entry e: its support's winning ref (lowest engine index offered) and
  // verdict.
  std::vector<CandidateRef<Support>> winners_;
  std::vector<Verdict> verdicts_;
  std::vector<std::uint64_t> slots_;  // open addressing, linear probing
  std::vector<Support> due_;          // accepted or kExisting, undelivered
  std::size_t rejected_ = 0;          // rejected entries held
  resource::MemoryLease lease_{resource::Subsystem::kCandidates};
};

/// Process one rank's pair range [begin, end) for `row`: offer it to a
/// SupportTable of its own (dedup within the range and against existing
/// zero columns, one rank test per distinct support), then append the
/// accepted candidates to `accepted_out` in support order (earlier content
/// is left untouched).
///
/// [begin, end) are ENGINE indices (tile-major over popcount-sorted sides;
/// see pairgen.hpp).  Any partition of [0, cls.pair_count()) covers every
/// pair exactly once, so rank slicing and the pair-conservation audit are
/// unaffected by the reordering.  `ref_cap` bounds the table's rejected
/// supports (see SupportTable).
template <typename Scalar, typename Support, typename TestFn>
void process_pair_range(
    const std::vector<FluxColumn<Scalar, Support>>& columns, std::size_t row,
    const RowClassification& cls, std::size_t rank, std::uint64_t begin,
    std::uint64_t end, std::size_t ref_cap, const TestFn& is_elementary,
    IterationStats& stats, PhaseTimer& phases,
    std::vector<FluxColumn<Scalar, Support>>& accepted_out) {
  if (cls.positive.empty() || cls.negative.empty() || begin >= end) {
    stats.pairs_probed += (begin < end) ? end - begin : 0;
    return;
  }
  const auto tables = [&] {
    ScopedPhase phase(phases, Phase::kGenCand);
    return PairGenTables<Scalar, Support>(columns, row, cls.positive,
                                          cls.negative, cls.zero, rank);
  }();
  SupportTable<Scalar, Support> table(tables, ref_cap);
  table.offer(begin, end, is_elementary, stats, phases);
  table.deliver(is_elementary, stats, phases, accepted_out);
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
