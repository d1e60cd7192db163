// The per-candidate elementarity test every Nullspace driver applies.
//
// Algorithm 1 tests each deduplicated candidate on its own; Algorithm 2
// runs the same test on each rank's slice of the pair space (paper §II.D),
// Algorithm 4 on each rank's shard pairing, and the subset estimator on a
// prefix run.  Elementarity is that one step: built once per solve (or per
// SMP worker) from the stoichiometry and the initial basis, staged once per
// iteration, then asked one candidate at a time.  It is the one place that
// picks a tester for an (ElementarityTest, RankTestBackend) pair.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/stats.hpp"

namespace elmo {

/// Which elementarity test the solver applies to candidates.
enum class ElementarityTest {
  kRank,           // algebraic rank (nullity == 1) test — the paper's choice
  kCombinatorial,  // support-subset test — the classical alternative
};

/// Arithmetic backend for the rank test (when ElementarityTest::kRank).
/// The backends form a ladder: sparse-modular (default) falls back to the
/// dense-modular elimination per candidate when its cost model says so;
/// both share the Z_p decision procedure whose rejects are Monte-Carlo;
/// exact Bareiss (with a per-candidate BigInt fallback on overflow) is the
/// fully exact reference the others are differentially tested against.
enum class RankTestBackend {
  /// Sparse, warm-started elimination over Z_(2^61-1) (see
  /// nullspace/sparse_rank.hpp): gathers only the nonzero rows of a
  /// candidate's support columns, amortizes a shared rref factorization
  /// across all candidates and an echelonized common block across each
  /// iteration.  Verdict-identical to kModular; the default.
  kSparse,
  /// Dense elimination over Z_(2^61-1): accepts certified exactly, rejects
  /// Monte-Carlo with error probability ~2^-45 per candidate (see
  /// nullspace/modular_rank.hpp).  Kept as the sparse engine's
  /// differential oracle and fallback target.
  kModular,
  /// Fraction-free Bareiss in the kernel scalar (BigInt fallback per
  /// candidate): fully exact, used as the reference in tests.
  kExact,
};

template <typename Scalar, typename Support>
class Elementarity {
 public:
  /// `stoichiometry` must outlive the oracle; `basis` is the initial kernel
  /// basis (the modular backends' K-side formulation is built from it).
  Elementarity(const Matrix<Scalar>& stoichiometry,
               const std::vector<FluxColumn<Scalar, Support>>& basis,
               ElementarityTest test, RankTestBackend backend)
      : test_(test), exact_(stoichiometry) {
    if (test_ != ElementarityTest::kRank) return;
    if (backend == RankTestBackend::kSparse) {
      sparse_.emplace(stoichiometry, basis);
    } else if (backend == RankTestBackend::kModular) {
      modular_.emplace(stoichiometry, basis);
    }
  }

  /// Stage the iteration processing `row` over `columns` classified as
  /// `cls`: the sparse engine eliminates the iteration's shared K-side
  /// block once; the combinatorial test snapshots the supports of the
  /// columns that survive into the next matrix (zero, positive, and
  /// negative if the row is reversible).  `columns` must stay unchanged
  /// until the iteration's last is_elementary call.
  void begin_iteration(const std::vector<FluxColumn<Scalar, Support>>& columns,
                       const RowClassification& cls, std::size_t row,
                       bool row_reversible) {
    if (sparse_) {
      sparse_->begin_iteration(iteration_common_zero_rows(
          columns, cls.positive, cls.negative, row));
    }
    if (test_ != ElementarityTest::kCombinatorial) return;
    survivors_.clear();
    for (std::uint32_t j : cls.zero) survivors_.push_back(&columns[j].support);
    for (std::uint32_t j : cls.positive)
      survivors_.push_back(&columns[j].support);
    if (row_reversible) {
      for (std::uint32_t j : cls.negative)
        survivors_.push_back(&columns[j].support);
    }
  }

  /// Test one candidate.  For the combinatorial test this is the
  /// per-column half (no surviving column's support strictly inside the
  /// candidate's); the cross-candidate half is
  /// cross_candidate_subset_filter over the iteration's accepted set.
  bool is_elementary(const Support& support) {
    if (test_ == ElementarityTest::kCombinatorial) {
      for (const Support* other : survivors_) {
        if (*other != support && other->is_subset_of(support)) return false;
      }
      return true;
    }
    if (sparse_) return sparse_->is_elementary(support);
    if (modular_) return modular_->is_elementary(support);
    return exact_.is_elementary(support);
  }

  /// Move the sparse engine's counters accumulated since the last drain
  /// into `iteration` (no-op for the other backends).
  void drain(IterationStats& iteration) {
    if (sparse_) sparse_->drain_stats(iteration);
  }

  /// The exact Bareiss tester, for the rank-nullity audit.
  RankTester<Scalar>& exact() { return exact_; }

 private:
  ElementarityTest test_;
  RankTester<Scalar> exact_;
  std::optional<ModularRankTester<Scalar>> modular_;
  std::optional<SparseRankTester<Scalar>> sparse_;
  std::vector<const Support*> survivors_;
};

}  // namespace elmo
