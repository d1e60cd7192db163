// The per-candidate elementarity test every Nullspace driver applies.
//
// Algorithm 1 tests each deduplicated candidate on its own; Algorithm 2
// runs the same test on each rank's slice of the pair space (paper §II.D),
// Algorithm 4 on each rank's shard pairing, and the subset estimator on a
// prefix run.  Elementarity is that one step: built once per solve (or per
// SMP worker) from the stoichiometry and the initial basis, staged once per
// iteration, then asked one candidate at a time.  The test is the paper's
// algebraic rank test (nullity of the support submatrix == 1); Elementarity
// is the one place that picks its arithmetic backend (RankTestBackend).
#pragma once

#include <cstddef>
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

/// Arithmetic backend for the rank test.
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
               RankTestBackend backend)
      : exact_(stoichiometry) {
    if (backend == RankTestBackend::kSparse) {
      sparse_.emplace(stoichiometry, basis);
    } else if (backend == RankTestBackend::kModular) {
      modular_.emplace(stoichiometry, basis);
    }
  }

  /// Stage the iteration processing `row` over `columns` classified as
  /// `cls`: the sparse engine eliminates the iteration's shared K-side
  /// block once (the other backends keep no per-iteration state).
  void begin_iteration(const std::vector<FluxColumn<Scalar, Support>>& columns,
                       const RowClassification& cls, std::size_t row) {
    if (sparse_) {
      sparse_->begin_iteration(iteration_common_zero_rows(
          columns, cls.positive, cls.negative, row));
    }
  }

  /// Test one candidate: is the nullity of its support submatrix 1?
  bool is_elementary(const Support& support) {
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
  RankTester<Scalar> exact_;
  std::optional<ModularRankTester<Scalar>> modular_;
  std::optional<SparseRankTester<Scalar>> sparse_;
};

}  // namespace elmo
