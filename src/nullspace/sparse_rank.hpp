// Sparse, amortized modular rank-test engine.
//
// Same decision procedure as ModularRankTester — elimination over
// Z_(2^61-1), accepts certified for kernel-vector candidates, rejects
// Monte-Carlo (see nullspace/modular_rank.hpp) — restructured around the
// two sources of waste in the dense tester:
//
//   * Gather.  The dense tester copies a full m x |S| (or (q-|S|) x k)
//     submatrix per candidate.  Here both matrices live in start/index/
//     value sparse stores (linalg/sparse.hpp) and only the nonzero entries
//     of the candidate's slice are touched.
//
//   * Re-elimination.  Work common to every candidate is factored out and
//     amortized at two levels:
//
//     - Construction: N is replaced by its reduced row echelon form over
//       Z_p, computed ONCE.  Row operations preserve every column
//       dependency, so rank_p(N[:, S]) == rank_p(R[:, S]); R has only
//       rank(N) nonzero rows, its pivot columns are unit vectors (a free
//       rank increment each — no elimination), and the per-candidate
//       problem shrinks to a small residual over the non-pivot columns
//       with the already-pivoted rows struck out.
//
//     - Iteration (warm start): every candidate produced while processing
//       row r has zero flux on r and on every row no live column touches.
//       begin_iteration() eliminates that shared block of kernel rows once
//       — singleton rows pivot their column for free, the rest become an
//       echelon block — and then pre-reduces EVERY remaining kernel row
//       against the block into a per-iteration sparse store.  A warm
//       K-side test does no elimination against the cache at all: it
//       gathers its few candidate-specific rows already reduced (solver
//       candidates leave <= nullity+1 residual rows by the support-union
//       bound).  The cache is invalidated by the next begin_iteration();
//       a support that intersects the cached rows (arbitrary caller) is
//       detected per call and served cold off the original row store, so
//       answers never depend on cache state.
//
// The K-side/N-side choice uses exact gathered-nnz counts from the sparse
// stores instead of dense dimension products.  Neither estimate can exceed
// twice the dense tester's (the N side gathers at most rank x d entries
// over d <= |S| non-pivot columns, the K side at most k entries per
// complement row), so every candidate is served by a sparse path.
// Accept/reject equals the dense-modular tester's verdict: both compute
// ranks of the same matrices over the same prime.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace elmo {

/// Counters accumulated per is_elementary() call; drained once per
/// iteration into IterationStats (and from there report.json totals and
/// the run ledger).
struct RankEngineStats {
  std::uint64_t tests = 0;
  std::uint64_t sparse_hits = 0;       // served by the sparse paths
  std::uint64_t warmstart_reuses = 0;  // K-side tests that reused the cache
  std::uint64_t gathered_nnz = 0;      // entries gathered across all tests
};

/// Which formulation is_elementary uses; kAuto picks per candidate from
/// the nnz cost model.  Tests and the bench force a side to exercise both.
enum class RankTestSide { kAuto, kNSide, kKSide };

struct SparseRankConfig {
  RankTestSide force_side = RankTestSide::kAuto;
};

template <typename Scalar>
class SparseRankTester {
 public:
  /// `stoichiometry` is the reduced m x q matrix; `kernel_columns` the
  /// initial nullspace basis (one entry per basis column, values length q).
  template <typename Support>
  SparseRankTester(
      const Matrix<Scalar>& stoichiometry,
      const std::vector<FluxColumn<Scalar, Support>>& kernel_columns,
      SparseRankConfig config = {})
      : config_(config),
        m_(stoichiometry.rows()),
        q_(stoichiometry.cols()),
        k_(kernel_columns.size()) {
    build_rref(stoichiometry);
    kernel_rows_ = SparseCscU64::build(
        k_, q_, [&](std::size_t c, std::size_t r) {
          return modular::from_scalar(kernel_columns[c].values[r]);
        });
    row_kill_stamp_.assign(r_, 0);
    row_slot_stamp_.assign(r_, 0);
    row_slot_.assign(r_, 0);
    col_kill_stamp_.assign(k_, 0);
    col_slot_stamp_.assign(k_, 0);
    col_slot_.assign(k_, 0);
    cache_row_flag_.assign(q_, 0);
    col_killed_base_.assign(k_, 0);
    iter_start_.assign(q_ + 1, 0);
  }

  /// Rank of the stoichiometry over Z_p (== the exact rank unless p
  /// divides a maximal minor).
  [[nodiscard]] std::size_t stoichiometry_rank_mod_p() const { return r_; }

  /// Install the iteration-shared K-side block: `common_rows` (sorted,
  /// deduplicated) must be rows outside EVERY support this cache is meant
  /// to accelerate — the processed row plus the rows no live column
  /// touches (iteration_common_zero_rows).  Invalidates the previous
  /// cache.  Callers violating the contract lose the speedup, never
  /// correctness: each is_elementary() re-checks its support against the
  /// cached rows and serves intersecting supports cold.
  void begin_iteration(const std::vector<std::uint32_t>& common_rows) {
    for (std::uint32_t r : cache_rows_) cache_row_flag_[r] = 0;
    for (std::uint32_t c : cache_killed_) col_killed_base_[c] = 0;
    cache_rows_ = common_rows;
    cache_killed_.clear();
    cache_pivot_cols_.clear();
    cache_pivot_rows_.clear();
    for (std::uint32_t r : cache_rows_) {
      ELMO_DCHECK(r < q_, "common row out of range");
      cache_row_flag_[r] = 1;
    }
    // Singleton rows pivot their column with no fill; done first so the
    // echelon block below never carries entries at killed columns.
    std::vector<std::uint32_t> dense_rows;
    for (std::uint32_t r : cache_rows_) {
      const std::size_t nnz = kernel_rows_.count(r);
      if (nnz == 0) continue;
      if (nnz == 1) {
        const std::uint32_t c = kernel_rows_.indices(r)[0];
        if (col_killed_base_[c]) continue;  // duplicate singleton: rank 0
        col_killed_base_[c] = 1;
        cache_killed_.push_back(c);
      } else {
        dense_rows.push_back(r);
      }
    }
    // Echelonize the remaining common rows once.  Pivot rows are stored
    // normalized (pivot entry 1) and IMMUTABLE: per-candidate reduction
    // reads them, never writes, so the cache survives any number of tests.
    for (std::uint32_t r : dense_rows) {
      temp_.assign(k_, 0);
      const std::uint32_t* idx = kernel_rows_.indices(r);
      const std::uint64_t* val = kernel_rows_.values(r);
      for (std::size_t e = 0; e < kernel_rows_.count(r); ++e) {
        if (!col_killed_base_[idx[e]]) temp_[idx[e]] = val[e];
      }
      reduce_against_cache(temp_.data());
      std::size_t pc = 0;
      while (pc < k_ && temp_[pc] == 0) ++pc;
      if (pc == k_) continue;  // dependent on the cached block: rank 0
      const std::uint64_t inv = modular::invmod(temp_[pc]);
      for (std::size_t c = pc; c < k_; ++c) {
        if (temp_[c]) temp_[c] = modular::mulmod(temp_[c], inv);
      }
      cache_pivot_cols_.push_back(static_cast<std::uint32_t>(pc));
      cache_pivot_rows_.push_back(temp_);
    }
    // Pre-reduce every non-cache kernel row against the block ONCE into a
    // per-iteration sparse store.  Reduced rows have zeros at every killed
    // and pivoted column (pivot rows carry no killed-column entries and
    // sequential reduction clears each pivot column in echelon order), so
    // a warm test gathers residual rows with no elimination of its own.
    iter_idx_.clear();
    iter_val_.clear();
    for (std::uint32_t r = 0; r < q_; ++r) {
      if (!cache_row_flag_[r] && kernel_rows_.count(r) != 0) {
        const std::uint32_t* idx = kernel_rows_.indices(r);
        const std::uint64_t* val = kernel_rows_.values(r);
        const std::size_t nnz = kernel_rows_.count(r);
        if (cache_pivot_rows_.empty()) {
          for (std::size_t e = 0; e < nnz; ++e) {
            if (col_killed_base_[idx[e]]) continue;
            iter_idx_.push_back(idx[e]);
            iter_val_.push_back(val[e]);
          }
        } else {
          temp_.assign(k_, 0);
          for (std::size_t e = 0; e < nnz; ++e) {
            if (!col_killed_base_[idx[e]]) temp_[idx[e]] = val[e];
          }
          reduce_against_cache(temp_.data());
          for (std::uint32_t c = 0; c < k_; ++c) {
            if (temp_[c] == 0) continue;
            iter_idx_.push_back(c);
            iter_val_.push_back(temp_[c]);
          }
        }
      }
      iter_start_[r + 1] = iter_idx_.size();
    }
    cache_active_ = true;
  }

  /// True iff nullity(N restricted to `support`) == 1, computed mod p.
  /// Accepts are exact; rejects are Monte-Carlo (file comment).
  template <typename Support>
  bool is_elementary(const Support& support) {
    ++stats_.tests;
    indices_.clear();
    support.append_indices(indices_);
    const std::size_t s = indices_.size();
    if (s == 0) return false;
    if (s > r_ + 1) return false;  // nullity_p >= s - rank_p >= 2

    // Warm-cache validity for the K-side: the cached block only covers
    // rows outside the support.  Checked once here so both the cost model
    // and test_k_side see the same answer.
    bool warm = cache_active_;
    if (warm) {
      for (std::uint32_t r : cache_rows_) {
        if (support.test(r)) {
          warm = false;
          break;
        }
      }
    }

    // Exact gathered-nnz cost model.  The N-side scan is O(s) off the
    // column store; the K-side scan walks the complement rows' counts,
    // skipping rows the warm cache already eliminated — for solver-shaped
    // candidates (complement nearly equal to the cached rows) this is what
    // makes the K-side estimate collapse to a handful of residual rows.
    std::size_t pivot_overlap = 0;
    std::size_t n_gather = 0;
    for (std::uint32_t j : indices_) {
      if (pivot_row_of_col_[j] != kNoPivot) {
        ++pivot_overlap;
      } else {
        n_gather += rref_cols_.count(j);
      }
    }
    const std::size_t d = s - pivot_overlap;
    std::size_t k_singletons = 0;
    std::size_t k_rows = 0;
    std::size_t k_gather = 0;
    {
      std::size_t next = 0;
      for (std::uint32_t r = 0; r < q_; ++r) {
        if (next < s && indices_[next] == r) {
          ++next;
          continue;
        }
        if (warm && cache_row_flag_[r]) continue;
        const std::size_t nnz = warm ? iter_count(r) : kernel_rows_.count(r);
        if (nnz == 0) continue;
        if (nnz == 1) {
          ++k_singletons;
        } else {
          ++k_rows;
          k_gather += nnz;
        }
      }
    }
    const std::size_t k_base =
        warm ? cache_killed_.size() + cache_pivot_rows_.size() : 0;
    const std::size_t active_n = std::min(r_ - pivot_overlap, n_gather);
    const std::size_t alive_k = std::min(
        k_ - std::min(k_base + k_singletons, k_), k_gather);
    const double est_n = 2.0 * static_cast<double>(n_gather) +
                         static_cast<double>(active_n) *
                             static_cast<double>(d) * static_cast<double>(d);
    const double est_k = 2.0 * static_cast<double>(k_gather) +
                         static_cast<double>(k_rows) *
                             static_cast<double>(alive_k) *
                             static_cast<double>(alive_k);
    RankTestSide side = config_.force_side;
    if (side == RankTestSide::kAuto) {
      side = est_n <= est_k ? RankTestSide::kNSide : RankTestSide::kKSide;
    }
    ++stats_.sparse_hits;
    return side == RankTestSide::kNSide ? test_n_side(d)
                                        : test_k_side(s, warm);
  }

  /// Move the counters accumulated since the last drain into `iteration`.
  void drain_stats(IterationStats& iteration) {
    iteration.rank_sparse_hits += stats_.sparse_hits;
    iteration.rank_warmstart_reuses += stats_.warmstart_reuses;
    iteration.rank_gathered_nnz += stats_.gathered_nnz;
    stats_ = RankEngineStats{};
  }

  [[nodiscard]] const RankEngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = RankEngineStats{}; }

 private:
  static constexpr std::uint32_t kNoPivot = UINT32_MAX;

  struct GatherEntry {
    std::uint32_t row;
    std::uint32_t col;
    std::uint64_t value;
  };

  void build_rref(const Matrix<Scalar>& n) {
    std::vector<std::uint64_t> a(m_ * q_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < q_; ++j) {
        a[i * q_ + j] = modular::from_scalar(n(i, j));
      }
    }
    pivot_row_of_col_.assign(q_, kNoPivot);
    std::size_t rank = 0;
    for (std::size_t col = 0; col < q_ && rank < m_; ++col) {
      std::size_t pr = rank;
      while (pr < m_ && a[pr * q_ + col] == 0) ++pr;
      if (pr == m_) continue;
      if (pr != rank) {
        for (std::size_t j = col; j < q_; ++j) {
          std::swap(a[rank * q_ + j], a[pr * q_ + j]);
        }
      }
      const std::uint64_t inv = modular::invmod(a[rank * q_ + col]);
      for (std::size_t j = col; j < q_; ++j) {
        if (a[rank * q_ + j]) {
          a[rank * q_ + j] = modular::mulmod(a[rank * q_ + j], inv);
        }
      }
      // Full Gauss-Jordan: clearing ABOVE the pivot too makes every pivot
      // column a unit vector, the invariant the N-side fast path rests on.
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == rank) continue;
        const std::uint64_t head = a[i * q_ + col];
        if (head == 0) continue;
        a[i * q_ + col] = 0;
        for (std::size_t j = col + 1; j < q_; ++j) {
          const std::uint64_t sub = modular::mulmod(head, a[rank * q_ + j]);
          if (sub) a[i * q_ + j] = modular::submod(a[i * q_ + j], sub);
        }
      }
      pivot_row_of_col_[col] = static_cast<std::uint32_t>(rank);
      ++rank;
    }
    r_ = rank;
    // Pivot columns are stored empty (their unit entry is implicit); rows
    // at or below r_ are identically zero in an rref and are not stored.
    rref_cols_ = SparseCscU64::build(
        r_, q_, [&](std::size_t i, std::size_t j) -> std::uint64_t {
          if (pivot_row_of_col_[j] != kNoPivot) return 0;
          return a[i * q_ + j];
        });
  }

  /// Reduce a dense k_-length row against the cached echelon block
  /// (read-only: cached pivot rows are normalized and never mutated).
  void reduce_against_cache(std::uint64_t* row) const {
    for (std::size_t b = 0; b < cache_pivot_rows_.size(); ++b) {
      const std::uint64_t factor = row[cache_pivot_cols_[b]];
      if (factor == 0) continue;
      const std::uint64_t* pivot = cache_pivot_rows_[b].data();
      for (std::size_t c = 0; c < k_; ++c) {
        if (pivot[c]) {
          row[c] = modular::submod(row[c], modular::mulmod(factor, pivot[c]));
        }
      }
    }
  }

  /// nullity = d - rank(R[rows not pivoted by S, S's non-pivot columns]):
  /// the |S ∩ pivots| unit columns contribute rank for free, and striking
  /// their pivot rows is the elimination they would have performed.
  bool test_n_side(std::size_t d) {
    if (d == 0) return false;  // all pivot columns: independent, nullity 0
    ++epoch_;
    for (std::uint32_t j : indices_) {
      const std::uint32_t pr = pivot_row_of_col_[j];
      if (pr != kNoPivot) row_kill_stamp_[pr] = epoch_;
    }
    entries_.clear();
    std::size_t active = 0;
    std::uint32_t col_out = 0;
    std::uint64_t gathered = 0;
    for (std::uint32_t j : indices_) {
      if (pivot_row_of_col_[j] != kNoPivot) continue;
      const std::uint32_t* idx = rref_cols_.indices(j);
      const std::uint64_t* val = rref_cols_.values(j);
      const std::size_t nnz = rref_cols_.count(j);
      for (std::size_t e = 0; e < nnz; ++e) {
        const std::uint32_t i = idx[e];
        if (row_kill_stamp_[i] == epoch_) continue;  // struck by a unit pivot
        if (row_slot_stamp_[i] != epoch_) {
          row_slot_stamp_[i] = epoch_;
          row_slot_[i] = static_cast<std::uint32_t>(active++);
        }
        entries_.push_back({row_slot_[i], col_out, val[e]});
        ++gathered;
      }
      ++col_out;
    }
    stats_.gathered_nnz += gathered;
    observe_gathered(gathered);
    if (d > active + 1) return false;  // nullity >= d - active >= 2
    scratch_.assign(active * d, 0);
    for (const GatherEntry& e : entries_) {
      scratch_[e.row * d + e.col] = e.value;
    }
    const auto outcome = residual_rank(scratch_, active, d, 1);
    if (outcome.deficiency_exceeded) return false;
    return d - outcome.rank == 1;
  }

  /// nullity = k - rank(K[~S, :]), assembled as: cached singleton kills +
  /// cached echelon rank + this support's extra singleton kills + rank of
  /// the compacted residual, plus one deficiency per alive column the
  /// residual never touches (an untouched kernel direction).  `warm` is
  /// the cache-validity verdict computed by is_elementary (the cached rows
  /// are all outside the support); warm tests read the pre-reduced
  /// per-iteration store — whose rows already have zeros at every cached
  /// pivot and killed column — so both paths are pure gathers.
  bool test_k_side(std::size_t s, bool warm) {
    if (warm) ++stats_.warmstart_reuses;
    const std::size_t base_killed = warm ? cache_killed_.size() : 0;
    const std::size_t base_rank = warm ? cache_pivot_rows_.size() : 0;
    ++epoch_;
    std::size_t killed = 0;
    rows_pending_.clear();
    std::size_t next = 0;
    for (std::uint32_t r = 0; r < q_; ++r) {
      if (next < s && indices_[next] == r) {
        ++next;
        continue;
      }
      if (warm && cache_row_flag_[r]) continue;  // already in the cache block
      const std::size_t nnz = warm ? iter_count(r) : kernel_rows_.count(r);
      if (nnz == 0) continue;
      if (nnz == 1) {
        const std::uint32_t c = warm ? iter_idx_[iter_start_[r]]
                                     : kernel_rows_.indices(r)[0];
        if (col_kill_stamp_[c] == epoch_) {
          continue;  // column already pivoted: this row is dependent
        }
        col_kill_stamp_[c] = epoch_;
        ++killed;
      } else {
        rows_pending_.push_back(r);
      }
    }
    entries_.clear();
    std::size_t alive = 0;
    std::uint32_t out_row = 0;
    std::uint64_t gathered = 0;
    for (std::uint32_t r : rows_pending_) {
      const std::uint32_t* idx =
          warm ? iter_idx_.data() + iter_start_[r] : kernel_rows_.indices(r);
      const std::uint64_t* val =
          warm ? iter_val_.data() + iter_start_[r] : kernel_rows_.values(r);
      const std::size_t nnz = warm ? iter_count(r) : kernel_rows_.count(r);
      gathered += nnz;
      bool any = false;
      for (std::size_t e = 0; e < nnz; ++e) {
        const std::uint32_t c = idx[e];
        if (col_kill_stamp_[c] == epoch_) {
          continue;  // eliminated by a singleton pivot
        }
        if (col_slot_stamp_[c] != epoch_) {
          col_slot_stamp_[c] = epoch_;
          col_slot_[c] = static_cast<std::uint32_t>(alive++);
        }
        entries_.push_back({out_row, col_slot_[c], val[e]});
        any = true;
      }
      if (any) ++out_row;
    }
    stats_.gathered_nnz += gathered;
    observe_gathered(gathered);
    const std::size_t alive_total = k_ - base_killed - base_rank - killed;
    ELMO_DCHECK(alive <= alive_total,
                "residual wider than the unpivoted column space");
    const std::size_t dropped = alive_total - alive;
    if (dropped >= 2) return false;  // >= 2 untouched kernel directions
    scratch_.assign(static_cast<std::size_t>(out_row) * alive, 0);
    for (const GatherEntry& e : entries_) {
      scratch_[e.row * alive + e.col] = e.value;
    }
    const auto outcome = residual_rank(scratch_, out_row, alive, 1 - dropped);
    if (outcome.deficiency_exceeded) return false;
    return dropped + (alive - outcome.rank) == 1;
  }

  /// rank_mod_p with the per-pivot inversion removed: rows below the pivot
  /// are scaled by the pivot value instead of the pivot row being
  /// normalized (row_i <- pv*row_i - head*row_pivot).  Scaling a row by a
  /// nonzero element of Z_p preserves rank, so the outcome — the only
  /// thing the caller reads — is identical to modular::rank_mod_p's; what
  /// it saves is one ~91-multiply invmod per pivot, which dominates on the
  /// few-row residuals this engine produces.
  static modular::RankOutcome residual_rank(std::vector<std::uint64_t>& a,
                                            std::size_t rows,
                                            std::size_t cols,
                                            std::size_t max_deficiency) {
    std::size_t rank = 0;
    std::size_t deficiency = 0;
    for (std::size_t col = 0; col < cols; ++col) {
      std::size_t pivot_row = rank;
      while (pivot_row < rows && a[pivot_row * cols + col] == 0) ++pivot_row;
      if (pivot_row == rows) {
        if (++deficiency > max_deficiency) return {rank, true};
        continue;
      }
      if (pivot_row != rank) {
        for (std::size_t j = col; j < cols; ++j) {
          std::swap(a[rank * cols + j], a[pivot_row * cols + j]);
        }
      }
      const std::uint64_t pv = a[rank * cols + col];
      for (std::size_t i = rank + 1; i < rows; ++i) {
        const std::uint64_t head = a[i * cols + col];
        if (head == 0) continue;
        a[i * cols + col] = 0;
        for (std::size_t j = col + 1; j < cols; ++j) {
          const std::uint64_t scaled = modular::mulmod(pv, a[i * cols + j]);
          const std::uint64_t sub = modular::mulmod(head, a[rank * cols + j]);
          a[i * cols + j] = modular::submod(scaled, sub);
        }
      }
      if (++rank == rows) {
        deficiency += cols - col - 1;
        return {rank, deficiency > max_deficiency};
      }
    }
    return {rank, false};
  }

  static void observe_gathered(std::uint64_t nnz) {
    if constexpr (obs::kObsCompiledIn) {
      static const obs::Histogram gathered =
          obs::Registry::global().histogram("solver.rank_gathered_nnz");
      gathered.observe(nnz);
    }
  }

  SparseRankConfig config_;
  std::size_t m_;
  std::size_t q_;
  std::size_t k_;
  std::size_t r_ = 0;  // rank_p(N) == number of stored rref rows
  std::vector<std::uint32_t> pivot_row_of_col_;  // q; kNoPivot if none
  SparseCscU64 rref_cols_;    // rref(N) mod p: r_ x q, pivot cols implicit
  SparseCscU64 kernel_rows_;  // K row store: q major slices of width k_

  /// Width of row r's slice in the per-iteration pre-reduced store.
  [[nodiscard]] std::size_t iter_count(std::uint32_t r) const {
    return iter_start_[r + 1] - iter_start_[r];
  }

  // Iteration warm-start cache (K-side).
  bool cache_active_ = false;
  std::vector<std::uint32_t> cache_rows_;    // sorted common rows
  std::vector<char> cache_row_flag_;         // q: row is in the cache block
  std::vector<std::uint32_t> cache_killed_;  // singleton-pivoted columns
  std::vector<char> col_killed_base_;        // k: killed by the cache
  std::vector<std::uint32_t> cache_pivot_cols_;
  std::vector<std::vector<std::uint64_t>> cache_pivot_rows_;
  // Per-iteration pre-reduced kernel rows (CSR: start/index/value); cache
  // rows and rows dependent on the cached block have empty slices.
  std::vector<std::size_t> iter_start_;  // q + 1
  std::vector<std::uint32_t> iter_idx_;
  std::vector<std::uint64_t> iter_val_;

  // Per-test scratch: epoch stamps avoid O(dimension) clears per test.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint32_t> indices_;
  std::vector<std::uint64_t> row_kill_stamp_;  // r_: struck by a unit pivot
  std::vector<std::uint64_t> row_slot_stamp_;  // r_: compaction slot valid
  std::vector<std::uint32_t> row_slot_;
  std::vector<std::uint64_t> col_kill_stamp_;  // k: singleton-killed this test
  std::vector<std::uint64_t> col_slot_stamp_;  // k: compaction slot valid
  std::vector<std::uint32_t> col_slot_;
  std::vector<GatherEntry> entries_;
  std::vector<std::uint64_t> scratch_;
  std::vector<std::uint64_t> temp_;
  std::vector<std::uint32_t> rows_pending_;
  RankEngineStats stats_;
};

/// Rows every candidate of this iteration is zero on: the processed row
/// itself plus every row no pairing column (positive or negative) touches.
/// A candidate is a combination of one positive and one negative column,
/// so its support is contained in the union of their supports minus `row`
/// — the returned rows lie outside it.  Feed to
/// SparseRankTester::begin_iteration.
template <typename Scalar, typename Support>
std::vector<std::uint32_t> iteration_common_zero_rows(
    const std::vector<FluxColumn<Scalar, Support>>& columns,
    const std::vector<std::uint32_t>& positive,
    const std::vector<std::uint32_t>& negative, std::size_t row) {
  std::vector<std::uint32_t> common;
  if (columns.empty()) return common;
  const std::size_t q = columns[0].values.size();
  std::vector<char> touched(q, 0);
  std::vector<std::uint32_t> scratch;
  for (const auto* side : {&positive, &negative}) {
    for (std::uint32_t j : *side) {
      scratch.clear();
      columns[j].support.append_indices(scratch);
      for (std::uint32_t r : scratch) touched[r] = 1;
    }
  }
  for (std::uint32_t r = 0; r < q; ++r) {
    if (!touched[r] || r == row) common.push_back(r);
  }
  return common;
}

}  // namespace elmo
