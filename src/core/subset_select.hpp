// Selection of the divide-and-conquer partition reactions.
//
// The paper selects the LAST reactions of the reordered nullspace matrix
// (necessarily reversible, since the ordering heuristic puts reversible
// rows last) — {R89r, R74r} for Network I, {R54r, R90r, R60r} for Network
// II — and notes (§IV.C) that an automated selection strategy is open
// future work.  select_partition_rows implements the paper's manual rule;
// select_partition_rows_up_to is the same rule when fewer rows may do
// (the combined driver takes its re-split spares from it).  No automated selection exists: the
// ablation bench (bench_ablation_qsub) scores candidate partitions with
// the cost estimator in core/estimate.hpp.
#pragma once

#include <algorithm>
#include <vector>

#include "bitset/dynbitset.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/reversible_split.hpp"
#include "support/assert.hpp"

namespace elmo {

/// The last processed rows of the reordered nullspace matrix (the paper's
/// choice), at most `count` of them — stops early when the trailing
/// reversible rows run out.  Partitioning requires sign-free rows.
template <typename Scalar>
std::vector<std::size_t> select_partition_rows_up_to(
    const EfmProblem<Scalar>& problem, const OrderingOptions& ordering,
    std::size_t count) {
  // The basis construction is cheap relative to any solve; recompute it.
  // The support representation is irrelevant here — only the processing
  // order is consumed — so the size-agnostic DynBitset is used.
  auto prepared = prepare_problem(problem);
  auto basis =
      compute_initial_basis<Scalar, DynBitset>(prepared.problem, ordering);
  std::vector<std::size_t> rows;
  for (auto it = basis.processing_order.rbegin();
       it != basis.processing_order.rend() && rows.size() < count; ++it) {
    // Only rows of the ORIGINAL problem (not split backward copies) and
    // only reversible ones qualify.
    if (*it >= prepared.original_reactions) continue;
    if (!problem.reversible[*it]) break;  // ran out of trailing reversibles
    rows.push_back(*it);
  }
  // Reverse so rows[0] is the outermost (least significant bit), matching
  // the paper's R60r-corresponds-to-the-last-row convention.
  std::reverse(rows.begin(), rows.end());
  return rows;
}

/// Exactly `count` trailing reversible rows.  Throws InvalidArgumentError
/// if the network cannot supply them.
template <typename Scalar>
std::vector<std::size_t> select_partition_rows(
    const EfmProblem<Scalar>& problem, const OrderingOptions& ordering,
    std::size_t count) {
  auto rows = select_partition_rows_up_to(problem, ordering, count);
  ELMO_REQUIRE(rows.size() == count,
               "network does not have enough trailing reversible reactions "
               "for the requested partition size");
  return rows;
}

}  // namespace elmo
