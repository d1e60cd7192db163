// The algebraic rank test (paper §II.B-C, citing Jevremovic et al. 2010).
//
// A candidate flux mode with support S is elementary iff the submatrix of
// the reduced stoichiometry formed by the columns in S has nullity exactly
// 1.  RankTester is the exact algebraic test via fraction-free elimination
// (the paper's method; LU/QR/SVD in the original, Bareiss here because
// arithmetic is exact).  With the CheckedI64 kernel an overflow falls back
// to BigInt per candidate.  The solver decides elementarity with the
// modular engine (sparse_rank.hpp); this tester is the exact reference it
// and modular_rank.hpp are differentially tested against, and audit mode's
// re-check of every accepted candidate (check/audit.hpp).
#pragma once

#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/scalar.hpp"
#include "linalg/gauss.hpp"
#include "linalg/matrix.hpp"
#include "support/error.hpp"

namespace elmo {

template <typename Scalar>
class RankTester {
 public:
  /// `stoichiometry` must outlive the tester.
  explicit RankTester(const Matrix<Scalar>& stoichiometry)
      : n_(stoichiometry) {}

  /// True iff nullity(N[:, support]) == 1.
  template <typename Support>
  bool is_elementary(const Support& support) {
    indices_.clear();
    support.append_indices(indices_);
    const std::size_t s = indices_.size();
    if (s == 0) return false;
    // Cheap cardinality rejection (the paper's "two more columns than
    // rows" rule, tightened to the rank): nullity >= s - rank(N) >= 2.
    if (s > n_.rows() + 1) return false;

    // Build the submatrix and compute its exact rank.
    Matrix<Scalar> sub(n_.rows(), s);
    for (std::size_t i = 0; i < n_.rows(); ++i) {
      const Scalar* row = n_.row_ptr(i);
      for (std::size_t j = 0; j < s; ++j) sub(i, j) = row[indices_[j]];
    }
    std::size_t rank;
    try {
      rank = rank_bareiss(sub);
    } catch (const OverflowError&) {
      // Per-candidate exact fallback: redo this one test in BigInt.
      Matrix<BigInt> wide(sub.rows(), sub.cols());
      for (std::size_t i = 0; i < sub.rows(); ++i)
        for (std::size_t j = 0; j < sub.cols(); ++j)
          wide(i, j) = scalar_to_bigint(sub(i, j));
      rank = rank_bareiss(std::move(wide));
    }
    return s - rank == 1;
  }

 private:
  const Matrix<Scalar>& n_;
  std::vector<std::uint32_t> indices_;
};

}  // namespace elmo
