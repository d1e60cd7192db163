// Splitting of linearly dependent reversible reactions.
//
// The Nullspace Algorithm requires every reversible reaction to be a pivot
// of the initial basis (a reversible reaction in the identity block could
// never receive the negative flux some EFMs need).  When the reversible
// columns are linearly dependent among themselves — duplicated reversible
// reactions, fully reversible cycles — that is impossible.  The standard
// remedy is applied here: each offending reaction r is replaced by an
// irreversible forward copy (the original column) plus an appended
// irreversible backward copy (the negated column).
//
// The split problem's EFMs map back to the original reduced space by
// v[r] = v[r_fwd] - v[r_bwd]; an EFM never uses both directions except the
// spurious two-cycle {r_fwd, r_bwd}, which is dropped.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "bigint/rational.hpp"
#include "linalg/gauss.hpp"
#include "linalg/matrix.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/problem.hpp"

namespace elmo {

template <typename Scalar>
struct PreparedProblem {
  /// The (possibly expanded) problem to solve.  The first
  /// `original_reactions` columns are the reduced problem's, in order;
  /// backward copies are appended after them.
  EfmProblem<Scalar> problem;
  std::size_t original_reactions = 0;
  /// backward_of[k] = reduced column of the k-th appended backward copy.
  std::vector<std::size_t> backward_of;

  [[nodiscard]] bool has_splits() const { return !backward_of.empty(); }

  /// The rows to leave unprocessed in the split problem: `rows` (reduced
  /// row indices, e.g. divide-and-conquer's nonzero-flux partition rows)
  /// plus the backward copy of each split one — Proposition 1 needs the
  /// reaction's full flux untouched.
  [[nodiscard]] std::vector<std::size_t> excluded(
      const std::vector<std::size_t>& rows) const {
    std::vector<std::size_t> out = rows;
    for (std::size_t k = 0; k < backward_of.size(); ++k) {
      if (std::find(rows.begin(), rows.end(), backward_of[k]) != rows.end())
        out.push_back(original_reactions + k);
    }
    return out;
  }
};

/// Detect reversible reactions that cannot become pivots and split them.
template <typename Scalar>
PreparedProblem<Scalar> prepare_problem(const EfmProblem<Scalar>& problem) {
  PreparedProblem<Scalar> prepared;
  prepared.problem = problem;
  prepared.original_reactions = problem.num_reactions();

  // Run the same pivot-preference elimination the initial basis will use;
  // a reversible reaction left free must be split.
  auto rat = detail::to_rational_matrix(problem.stoichiometry);
  auto order = detail::pivot_preference(problem.reversible);
  auto echelon = rref(rat, order);
  std::vector<bool> is_pivot(problem.num_reactions(), false);
  for (std::size_t p : echelon.pivot_cols) is_pivot[p] = true;

  for (std::size_t j = 0; j < problem.num_reactions(); ++j) {
    if (is_pivot[j] || !problem.reversible[j]) continue;
    prepared.backward_of.push_back(j);
  }
  if (prepared.backward_of.empty()) return prepared;

  // Apply the splits: forward copy becomes irreversible in place, backward
  // copies are appended.
  auto& split = prepared.problem;
  const std::size_t q = problem.num_reactions();
  const std::size_t extra = prepared.backward_of.size();
  Matrix<Scalar> wide(problem.stoichiometry.rows(), q + extra);
  for (std::size_t i = 0; i < wide.rows(); ++i) {
    for (std::size_t j = 0; j < q; ++j)
      wide(i, j) = problem.stoichiometry(i, j);
    for (std::size_t k = 0; k < extra; ++k)
      wide(i, q + k) = -problem.stoichiometry(i, prepared.backward_of[k]);
  }
  split.stoichiometry = std::move(wide);
  for (std::size_t k = 0; k < extra; ++k) {
    const std::size_t j = prepared.backward_of[k];
    split.reversible[j] = false;
    split.reversible.push_back(false);
    split.reaction_names.push_back(problem.reaction_names[j] + "__rev");
  }
  return prepared;
}

/// Map solved columns of a split problem back to the reduced space:
/// fold each backward copy into its forward column (negated) and drop the
/// spurious two-cycle modes.
template <typename Scalar, typename Support>
std::vector<FluxColumn<Scalar, Support>> unsplit_columns(
    std::vector<FluxColumn<Scalar, Support>>&& columns,
    const PreparedProblem<Scalar>& prepared) {
  if (!prepared.has_splits()) return std::move(columns);
  const std::size_t q = prepared.original_reactions;
  std::vector<FluxColumn<Scalar, Support>> out;
  out.reserve(columns.size());
  for (auto& column : columns) {
    std::vector<Scalar> reduced(q, scalar_from_i64<Scalar>(0));
    for (std::size_t j = 0; j < q; ++j) reduced[j] = column.values[j];
    bool two_cycle = false;
    for (std::size_t k = 0; k < prepared.backward_of.size(); ++k) {
      const Scalar& backward = column.values[q + k];
      if (scalar_is_zero(backward)) continue;
      const std::size_t j = prepared.backward_of[k];
      // An elementary mode never runs both directions (that would strictly
      // contain the two-cycle's support) — unless it IS the two-cycle.
      if (!scalar_is_zero(reduced[j])) {
        two_cycle = true;
        break;
      }
      reduced[j] = -backward;
    }
    if (two_cycle) continue;
    out.push_back(FluxColumn<Scalar, Support>::from_values(std::move(reduced)));
  }
  return out;
}

}  // namespace elmo
