// Initial nullspace matrix and row-processing order.
//
// Computes the kernel basis of the reduced stoichiometry in the paper's
// (I; R(2)) shape: free (non-pivot) reactions carry the identity block and
// are never processed.  The processing order over the remaining rows
// applies the paper's two heuristics — increasing row nonzero count, and
// reversible reactions last — both individually switchable for the
// ordering-ablation bench.  Divide-and-conquer passes `exclude_rows` (its
// nonzero-flux partition reactions) which are simply left unprocessed,
// equivalent to the paper's reorder-to-bottom-and-stop-early.
#pragma once

#include <algorithm>
#include <vector>

#include "bigint/rational.hpp"
#include "linalg/gauss.hpp"
#include "linalg/matrix.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/problem.hpp"
#include "support/assert.hpp"

namespace elmo {

struct OrderingOptions {
  /// Sort processed rows by increasing nonzero count in the initial basis.
  bool sort_by_nonzeros = true;
  /// Process rows of reversible reactions after all irreversible ones.
  bool reversible_last = true;
};

template <typename Scalar, typename Support>
struct InitialBasis {
  std::vector<FluxColumn<Scalar, Support>> columns;
  /// Row indices to process, in order.  Excludes identity-block rows and
  /// any caller-excluded rows.
  std::vector<std::size_t> processing_order;
  /// rank(N) = q - dim null(N); the candidate cardinality pre-test bound.
  std::size_t stoichiometry_rank = 0;
};

namespace detail {

/// Pivot preference: reversible reactions first.
///
/// Rows in the identity (free) block are never processed, and convex
/// combinations keep their entries nonnegative forever — so an EFM with a
/// NEGATIVE flux on a free reversible reaction (and irreversible support
/// elsewhere, e.g. the toy network's Bext->B->C->D mode with r8r = -1)
/// could never be generated.  Preferring reversible columns as pivots
/// pushes them into the processed part; on the toy network this recovers
/// exactly the paper's free set {r2, r4, r5, r7}.
inline std::vector<std::size_t> pivot_preference(
    const std::vector<bool>& reversible) {
  std::vector<std::size_t> order;
  order.reserve(reversible.size());
  for (std::size_t j = 0; j < reversible.size(); ++j)
    if (reversible[j]) order.push_back(j);
  for (std::size_t j = 0; j < reversible.size(); ++j)
    if (!reversible[j]) order.push_back(j);
  return order;
}

/// An exact scalar matrix over the rationals, for exact elimination.
template <typename Scalar>
Matrix<BigRational> to_rational_matrix(const Matrix<Scalar>& a) {
  Matrix<BigRational> rat(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      rat(i, j) = BigRational(scalar_to_bigint(a(i, j)));
  return rat;
}

/// Kernel basis columns as primitive integer vectors in Scalar, plus the
/// free-column set.  The basis is computed in rationals, then each column
/// is scaled to primitive integers (CheckedI64 may throw OverflowError).
template <typename Scalar>
std::pair<std::vector<std::vector<Scalar>>, std::vector<std::size_t>>
kernel_columns(const Matrix<Scalar>& stoich,
               const std::vector<std::size_t>& col_order) {
  auto [basis, free_cols] =
      nullspace_basis(to_rational_matrix(stoich), col_order);
  std::vector<std::vector<Scalar>> columns;
  for (std::size_t c = 0; c < basis.cols(); ++c) {
    std::vector<BigRational> v(basis.rows());
    for (std::size_t i = 0; i < basis.rows(); ++i) v[i] = basis(i, c);
    std::vector<Scalar> out;
    out.reserve(v.size());
    for (const auto& x : to_primitive_integer(v))
      out.push_back(scalar_from_bigint<Scalar>(x));
    columns.push_back(std::move(out));
  }
  return {std::move(columns), std::move(free_cols)};
}

}  // namespace detail

template <typename Scalar, typename Support>
InitialBasis<Scalar, Support> compute_initial_basis(
    const EfmProblem<Scalar>& problem, const OrderingOptions& ordering = {},
    const std::vector<std::size_t>& exclude_rows = {}) {
  const std::size_t q = problem.num_reactions();
  InitialBasis<Scalar, Support> result;

  auto [raw_columns, free_cols] = detail::kernel_columns<Scalar>(
      problem.stoichiometry, detail::pivot_preference(problem.reversible));
  result.stoichiometry_rank = q - raw_columns.size();
  // A reversible reaction stuck in the free block (only possible when the
  // reversible columns are linearly dependent among themselves) would lose
  // modes that need negative flux through it; refuse rather than silently
  // drop EFMs.  Networks triggering this contain a fully-reversible linear
  // dependency and should have the offending reaction split into a forward/
  // backward pair first.
  for (std::size_t f : free_cols) {
    ELMO_REQUIRE(!problem.reversible[f],
                 "reversible reaction '" + problem.reaction_names[f] +
                     "' cannot be made a pivot; split it into two "
                     "irreversible reactions before solving");
  }
  for (auto& v : raw_columns)
    result.columns.push_back(
        FluxColumn<Scalar, Support>::from_values(std::move(v)));

  // Rows never processed: the identity block (free reactions) and the
  // caller's exclusions.
  std::vector<bool> skip(q, false);
  for (std::size_t f : free_cols) skip[f] = true;
  for (std::size_t e : exclude_rows) {
    ELMO_REQUIRE(e < q, "exclude_rows: row index out of range");
    skip[e] = true;
  }

  // Nonzero count per row across the initial columns.
  std::vector<std::size_t> nnz(q, 0);
  for (const auto& column : result.columns) {
    for (std::size_t i = 0; i < q; ++i)
      if (column.support.test(i)) ++nnz[i];
  }

  for (std::size_t i = 0; i < q; ++i)
    if (!skip[i]) result.processing_order.push_back(i);

  std::stable_sort(result.processing_order.begin(),
                   result.processing_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (ordering.reversible_last &&
                         problem.reversible[a] != problem.reversible[b])
                       return !problem.reversible[a];
                     if (ordering.sort_by_nonzeros && nnz[a] != nnz[b])
                       return nnz[a] < nnz[b];
                     return false;  // stable: keep index order
                   });
  return result;
}

}  // namespace elmo
