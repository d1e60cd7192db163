// The candidate-generation engine: vectorized, tiled traversal of the
// positive x negative pair space (the algorithm's hot loop).
//
// Candidate generation dominates wall-clock on the yeast networks — the
// paper's Network I run probes 159.6e9 pairs — so this engine composes two
// optimizations on top of the straight scalar loop (kept as
// generate_candidate_refs_reference in iteration.hpp, the differential
// oracle):
//
//   tiling      negatives are walked in L1-sized tiles; a tile's support
//               words stay cache-resident across every positive row
//               instead of re-streaming the whole negative array once per
//               positive.
//   SIMD        an AVX2 kernel tests 4 negatives per step (vpshufb
//               nibble-LUT popcount, the inner step of Harley–Seal
//               counting), selected per build via ELMO_SIMD=auto|avx2|
//               scalar and verified bit-identical to the scalar kernel by
//               a differential test.
//
// Every pair is probed.  A column is kept only if its support passes the
// rank test, so no column the solver holds has more than rank + 1 nonzeros
// and none breaks the rank + 2 pre-test bound on its own: there is nothing
// to skip without probing.
//
// Every support type exposes its words as one span, so the tables and the
// survivor emission have a single path for Bitset64 and DynBitset; up to
// 192 reactions a DynBitset survivor is built inline, without a heap
// allocation.
//
// Enumeration order and resumability: the engine assigns every pair a
// stable "engine index" in [0, positives x negatives) — tile-major over
// the popcount-sorted sides — and any sub-range [begin, end) of engine
// indices is generated exactly once, in order, resumable at any point.
// Rank slices and dynamic work-stealing batches both partition the engine
// index space, so pair-count conservation (the PR 3 audit) holds exactly.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "bitset/traits.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/stats.hpp"
#include "support/assert.hpp"

// Compile-time kernel selection (CMake option ELMO_SIMD):
//   scalar  -DELMO_SIMD_SCALAR: portable kernel only, no intrinsics
//           compiled at all,
//   avx2    -DELMO_SIMD_FORCE_AVX2: AVX2 kernel selected unconditionally
//           (the build targets a machine known to have it),
//   auto    (default) on x86-64 gcc/clang the AVX2 kernel is compiled
//           behind a per-function target attribute and selected at engine
//           construction iff the CPU reports AVX2; elsewhere scalar.
#if !defined(ELMO_SIMD_SCALAR) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ELMO_PAIRGEN_AVX2 1
#include <immintrin.h>
#else
#define ELMO_PAIRGEN_AVX2 0
#endif

namespace elmo {

/// A candidate before materialisation: its exact support (cancellations
/// included) plus the generating positive/negative column indices.  The
/// rank test and duplicate removal need only the support, so full value
/// vectors are built exclusively for ACCEPTED candidates — the pretest
/// survivor stream on the yeast networks is orders of magnitude larger
/// than the accepted stream and must never be materialised wholesale.
template <typename Support>
struct CandidateRef {
  Support support;
  std::uint32_t positive = 0;  // column index into the current matrix
  std::uint32_t negative = 0;
};

namespace pairgen_detail {

/// True iff the AVX2 kernel may be selected on this build/CPU.
inline bool simd_selectable() {
#if !ELMO_PAIRGEN_AVX2
  return false;
#elif defined(ELMO_SIMD_FORCE_AVX2)
  return true;
#else
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#endif
}

#if ELMO_PAIRGEN_AVX2
/// Pre-test 4 negatives against one positive: returns a 4-bit mask of the
/// lanes with popcount(pos | neg) <= max_union.  `quad` points at the
/// 4-interleaved word block of the negative group: word w of lanes 0..3 at
/// quad[w * 4 + 0..3].  Popcount per 64-bit lane is the vpshufb nibble-LUT
/// + psadbw reduction (the inner step of Harley–Seal counting; at stride
/// <= 64 words the full carry-save adder tree is not worth its setup).
__attribute__((target("avx2"))) inline unsigned group_survivor_mask(
    const std::uint64_t* pos_row, const std::uint64_t* quad,
    std::size_t stride, std::uint64_t max_union) {
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t w = 0; w < stride; ++w) {
    // Intrinsics load contract: __m256i aliases any object representation.
    const __m256i nv = _mm256_loadu_si256(  // lint:allow(reinterpret-cast)
        reinterpret_cast<const __m256i*>(quad + w * 4));
    const __m256i uv = _mm256_or_si256(
        nv, _mm256_set1_epi64x(static_cast<long long>(pos_row[w])));
    const __m256i lo = _mm256_and_si256(uv, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(uv, 4), low_mask);
    const __m256i nibbles = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                            _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(nibbles, _mm256_setzero_si256()));
  }
  const __m256i bound =
      _mm256_set1_epi64x(static_cast<long long>(max_union));
  const __m256i fail = _mm256_cmpgt_epi64(acc, bound);
  const unsigned fail_mask =
      static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(fail)));
  return ~fail_mask & 0xFu;
}
#endif  // ELMO_PAIRGEN_AVX2

}  // namespace pairgen_detail

struct PairGenConfig {
  /// Select the portable scalar kernel even when AVX2 is available
  /// (differential tests compare the two paths bit for bit).
  bool force_scalar = false;
};

/// Negative-tile footprint in bytes; half a typical 32 KiB L1d so the tile
/// words, the positive row and the output block coexist.
inline constexpr std::size_t kPairGenTileBytes = std::size_t{16} * 1024;

/// Per-iteration lookup tables shared by every worker generating pairs for
/// one (columns, row) instance: popcount-sorted flat support arrays for
/// both sides, the SIMD-interleaved negative mirror, and the sorted
/// existing-zero-column index used for duplicate suppression.  Built once
/// per iteration per rank; const thereafter, safe to share across threads.
template <typename Scalar, typename Support>
class PairGenTables {
 public:
  PairGenTables(const std::vector<FluxColumn<Scalar, Support>>& columns,
                std::size_t row, const std::vector<std::uint32_t>& positive,
                const std::vector<std::uint32_t>& negative,
                const std::vector<std::uint32_t>& zero, std::size_t rank,
                PairGenConfig config = {})
      : columns_(&columns),
        row_(row),
        max_union_(rank + 2),
        accept_cap_(rank + 1) {
    stride_ = positive.empty() && negative.empty()
                  ? 1
                  : support_stride(
                        columns[positive.empty() ? negative[0] : positive[0]]
                            .support);
    use_simd_ = pairgen_detail::simd_selectable() && !config.force_scalar;

    sorted_at_.resize(columns.size());
    build_side(columns, positive, pos_col_, pos_words_);
    build_side(columns, negative, neg_col_, neg_words_);
    build_quad();

    // Tile geometry: whole negative columns per tile, multiple of the SIMD
    // group width, at least one group.
    std::uint64_t cols =
        static_cast<std::uint64_t>(kPairGenTileBytes / (stride_ * 8));
    cols &= ~std::uint64_t{3};
    tile_cols_ = std::max<std::uint64_t>(cols, 4);

    zero_ = zero;  // existing-column index built lazily on first use
  }

  [[nodiscard]] std::uint64_t positives() const {
    return static_cast<std::uint64_t>(pos_col_.size());
  }
  [[nodiscard]] std::uint64_t negatives() const {
    return static_cast<std::uint64_t>(neg_col_.size());
  }
  [[nodiscard]] std::uint64_t pair_count() const {
    return positives() * negatives();
  }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] bool simd_active() const { return use_simd_; }
  [[nodiscard]] const std::vector<FluxColumn<Scalar, Support>>& columns()
      const {
    return *columns_;
  }
  [[nodiscard]] std::size_t row() const { return row_; }
  /// Does `a`'s pair (its positive and negative column) come before
  /// `b`'s in engine-index order?  Engine indices run tile by tile, then
  /// by sorted positive, then by sorted negative (see PairGen::generate).
  [[nodiscard]] bool engine_before(const auto& a, const auto& b) const {
    const std::uint32_t ai = sorted_at_[a.positive];
    const std::uint32_t aj = sorted_at_[a.negative];
    const std::uint32_t bi = sorted_at_[b.positive];
    const std::uint32_t bj = sorted_at_[b.negative];
    return std::tuple(aj / tile_cols_, ai, aj) <
           std::tuple(bj / tile_cols_, bi, bj);
  }
  /// Existing zero columns sorted by support, for duplicate suppression.
  /// Built on first call (sorting the zero side costs more than probing a
  /// small pair range, and pure probe passes never need it); the
  /// once-flag makes concurrent first calls from workers sharing one
  /// tables instance safe.
  [[nodiscard]] const std::vector<const FluxColumn<Scalar, Support>*>&
  existing() const {
    std::call_once(existing_once_, [this] {
      existing_.reserve(zero_.size());
      for (std::uint32_t z : zero_) existing_.push_back(&(*columns_)[z]);
      std::sort(existing_.begin(), existing_.end(),
                [](const auto* a, const auto* b) {
                  return a->support < b->support;
                });
    });
    return existing_;
  }

 private:
  template <typename S, typename Sup>
  friend class PairGen;

  void build_side(const std::vector<FluxColumn<Scalar, Support>>& columns,
                  const std::vector<std::uint32_t>& side,
                  std::vector<std::uint32_t>& col,
                  std::vector<std::uint64_t>& words) {
    // Sort by (popcount, original column index).  This order is the
    // engine-index order that Algorithm 2's rank slices and the SMP batches
    // cut, so it decides which worker meets which duplicate: column order
    // instead costs ecoli's 4-rank Algorithm 2 solve 3% more rank tests
    // (4,503 vs 4,369) for the same modes.  The index tie-break keeps
    // enumeration deterministic.  Counts are taken once up front —
    // recomputing them inside the comparator costs more than the sort
    // itself on wide supports.
    std::vector<std::pair<std::uint16_t, std::uint32_t>> keys;
    keys.reserve(side.size());
    for (std::uint32_t c : side) {
      keys.emplace_back(static_cast<std::uint16_t>(columns[c].support.count()),
                        c);
    }
    std::sort(keys.begin(), keys.end());
    col.resize(keys.size());
    words.resize(keys.size() * stride_);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      col[k] = keys[k].second;
      sorted_at_[col[k]] = static_cast<std::uint32_t>(k);
      std::ranges::copy(columns[col[k]].support.words(),
                        words.begin() + k * stride_);
    }
  }

  void build_quad() {
    // 4-interleaved mirror of the negative words for the AVX2 kernel:
    // word w of group g's lanes 0..3 at quad[(g * stride + w) * 4 + lane].
    // Tail lanes pad with all-ones so a stray probe can only fail.
    if (!use_simd_) return;
    const std::size_t n = neg_col_.size();
    const std::size_t groups = (n + 3) / 4;
    neg_quad_.assign(groups * stride_ * 4, ~std::uint64_t{0});
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = j / 4;
      const std::size_t lane = j % 4;
      for (std::size_t w = 0; w < stride_; ++w) {
        neg_quad_[(g * stride_ + w) * 4 + lane] =
            neg_words_[j * stride_ + w];
      }
    }
  }

  const std::vector<FluxColumn<Scalar, Support>>* columns_;
  std::size_t row_;
  std::size_t stride_ = 1;
  std::size_t max_union_;   // rank + 2: the pre-test union bound
  std::size_t accept_cap_;  // rank + 1: exact-support acceptance bound
  bool use_simd_ = false;
  std::vector<std::uint32_t> pos_col_, neg_col_;  // sorted -> matrix index
  std::vector<std::uint32_t> sorted_at_;  // matrix index -> sorted, per side
  std::vector<std::uint64_t> pos_words_, neg_words_;  // row-major, sorted
  std::vector<std::uint64_t> neg_quad_;  // 4-interleaved (AVX2 kernel)
  std::uint64_t tile_cols_ = 4;
  std::vector<std::uint32_t> zero_;  // zero-side matrix indices
  mutable std::once_flag existing_once_;
  mutable std::vector<const FluxColumn<Scalar, Support>*>
      existing_;  // by support, built lazily
};

/// Resumable generator over a sub-range [begin, end) of engine indices.
/// Cheap to construct (the heavy state lives in the shared tables), so
/// dynamic schedulers create one per stolen batch.
template <typename Scalar, typename Support>
class PairGen {
 public:
  PairGen(const PairGenTables<Scalar, Support>& tables, std::uint64_t begin,
          std::uint64_t end)
      : t_(&tables), cursor_(begin), end_(end) {
    ELMO_REQUIRE(begin <= end && end <= tables.pair_count(),
                 "PairGen: range outside the pair space");
  }

  [[nodiscard]] bool done() const { return cursor_ >= end_; }
  [[nodiscard]] std::uint64_t cursor() const { return cursor_; }

  /// Generate refs for engine indices from the cursor until the range is
  /// exhausted or `out` reaches `ref_cap` entries (bounded-memory
  /// blocking).  Every consumed index is charged to stats.pairs_probed
  /// exactly once.
  void generate(std::size_t ref_cap, std::vector<CandidateRef<Support>>& out,
                IterationStats& stats) {
    const std::uint64_t kP = t_->positives();
    const std::uint64_t kN = t_->negatives();
    const std::uint64_t kW = t_->tile_cols_;
    while (cursor_ < end_ && out.size() < ref_cap) {
      const std::uint64_t tile = cursor_ / (kP * kW);
      const std::uint64_t tile_first = tile * kW;  // first sorted negative
      const std::uint64_t width = std::min(kW, kN - tile_first);
      const std::uint64_t base = tile * kP * kW;  // engine index of start
      const std::uint64_t i = (cursor_ - base) / width;  // sorted positive row
      generate_row(i, tile_first, width, base + i * width, ref_cap, out,
                   stats);
    }
  }

 private:
  /// Generate the cursor's stretch of row i within the current tile.
  /// `row_base` is the engine index of (i, tile column 0).
  void generate_row(std::uint64_t i, std::uint64_t tile_first,
                    std::uint64_t width, std::uint64_t row_base,
                    std::size_t ref_cap,
                    std::vector<CandidateRef<Support>>& out,
                    IterationStats& stats) {
    const std::size_t stride = t_->stride_;
    const std::uint64_t kMaxUnion =
        static_cast<std::uint64_t>(t_->max_union_);
    const std::uint64_t* pos_row =
        t_->pos_words_.data() + static_cast<std::size_t>(i) * stride;

    std::uint64_t j = cursor_ - row_base;  // column offset within tile
    // The row stretch may be cut short by the range end.
    const std::uint64_t stretch = std::min(width, end_ - row_base);

    // Charge the whole stretch upfront (the loops below never give an
    // index back); a ref-cap stop refunds the unconsumed tail.
    stats.pairs_probed += stretch - j;
#if ELMO_PAIRGEN_AVX2
    if (t_->use_simd_) {
      while (j < stretch) {
        const std::uint64_t j_abs = tile_first + j;
        if ((j_abs & 3) == 0 && j + 4 <= stretch) {
          const unsigned mask = pairgen_detail::group_survivor_mask(
              pos_row,
              t_->neg_quad_.data() +
                  static_cast<std::size_t>(j_abs / 4) * stride * 4,
              stride, kMaxUnion);
          if (mask != 0) {
            // Survivor lanes, in ascending column order.  A ref-cap stop
            // consumes only the lanes up to the stopping survivor; the
            // rest of the group is re-probed on resume.
            for (unsigned rest = mask; rest != 0; rest &= rest - 1) {
              const std::uint64_t lane =
                  static_cast<std::uint64_t>(std::countr_zero(rest));
              ++stats.pretest_survivors;
              emit(i, j_abs + lane, out);
              if (out.size() >= ref_cap) {
                cursor_ = row_base + j + lane + 1;
                stats.pairs_probed -= stretch - (j + lane + 1);
                return;
              }
            }
          }
          j += 4;
          continue;
        }
        // Unaligned head / ragged tail: scalar probe.
        if (scalar_survives(pos_row, j_abs, stride, kMaxUnion)) {
          ++stats.pretest_survivors;
          emit(i, j_abs, out);
          if (out.size() >= ref_cap) {
            cursor_ = row_base + j + 1;
            stats.pairs_probed -= stretch - (j + 1);
            return;
          }
        }
        ++j;
      }
    } else
#endif  // ELMO_PAIRGEN_AVX2
    {
      while (j < stretch) {
        const std::uint64_t j_abs = tile_first + j;
        if (scalar_survives(pos_row, j_abs, stride, kMaxUnion)) {
          ++stats.pretest_survivors;
          emit(i, j_abs, out);
          if (out.size() >= ref_cap) {
            cursor_ = row_base + j + 1;
            stats.pairs_probed -= stretch - (j + 1);
            return;
          }
        }
        ++j;
      }
    }
    cursor_ = row_base + stretch;
  }

  [[nodiscard]] bool scalar_survives(const std::uint64_t* pos_row,
                                     std::uint64_t j_abs, std::size_t stride,
                                     std::uint64_t max_union) const {
    const std::uint64_t* neg =
        t_->neg_words_.data() + static_cast<std::size_t>(j_abs) * stride;
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < stride; ++w) {
      count += static_cast<std::uint64_t>(std::popcount(pos_row[w] | neg[w]));
    }
    return count <= max_union;
  }

  /// Exact-support computation and ref emission for a pre-test survivor.
  /// Entries shared by both columns may cancel in the combination; the
  /// candidate is dropped if its exact support is empty (mirror columns)
  /// or still larger than rank + 1 (nullity >= 2).
  void emit(std::uint64_t i, std::uint64_t j_abs,
            std::vector<CandidateRef<Support>>& out) const {
    const std::size_t stride = t_->stride_;
    const auto& columns = *t_->columns_;
    const std::uint32_t pos_col =
        t_->pos_col_[static_cast<std::size_t>(i)];
    const std::uint32_t neg_col =
        t_->neg_col_[static_cast<std::size_t>(j_abs)];
    const std::uint64_t* pi =
        t_->pos_words_.data() + static_cast<std::size_t>(i) * stride;
    const std::uint64_t* nj =
        t_->neg_words_.data() + static_cast<std::size_t>(j_abs) * stride;
    const auto& u = columns[pos_col];
    const auto& v = columns[neg_col];
    const std::size_t row = t_->row_;

    // Survivor supports are computed word-wise on the stack; the tables
    // capped the stride at kMaxSupportWords.
    std::uint64_t union_words[kMaxSupportWords];

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
    if (size == 0 || size > t_->accept_cap_) return;

    out.push_back(CandidateRef<Support>{
        Support::from_words({union_words, stride}), pos_col, neg_col});
  }

  const PairGenTables<Scalar, Support>* t_;
  std::uint64_t cursor_;
  std::uint64_t end_;
};

}  // namespace elmo
