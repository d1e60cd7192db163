// The reduced EFM problem instance handed to the Nullspace Algorithm.
//
// Holds the reduced stoichiometry in the kernel's scalar type, per-reaction
// reversibility, and the names needed to report results.  Built from a
// CompressedProblem (or directly for tests).
#pragma once

#include <string>
#include <vector>

#include "bigint/scalar.hpp"
#include "compress/compression.hpp"
#include "linalg/matrix.hpp"

namespace elmo {

template <typename Scalar>
struct EfmProblem {
  /// Reduced stoichiometry, m x q.
  Matrix<Scalar> stoichiometry;
  /// Reversibility per reduced reaction (length q).
  std::vector<bool> reversible;
  /// Reaction names (length q), used in reports and partition selection.
  std::vector<std::string> reaction_names;

  [[nodiscard]] std::size_t num_reactions() const {
    return stoichiometry.cols();
  }
  [[nodiscard]] std::size_t num_metabolites() const {
    return stoichiometry.rows();
  }
};

/// Convert the compression output to the kernel scalar.  CheckedI64 throws
/// OverflowError if a stoichiometric coefficient exceeds 64 bits (it cannot
/// for networks parsed from int64 text, but derived problems could).
template <typename Scalar>
EfmProblem<Scalar> to_problem(const CompressedProblem& compressed) {
  EfmProblem<Scalar> problem;
  const auto& n = compressed.stoichiometry;
  problem.stoichiometry = Matrix<Scalar>(n.rows(), n.cols());
  for (std::size_t i = 0; i < n.rows(); ++i)
    for (std::size_t j = 0; j < n.cols(); ++j)
      problem.stoichiometry(i, j) = scalar_from_bigint<Scalar>(n(i, j));
  problem.reversible = compressed.reversible;
  problem.reaction_names = compressed.reaction_names;
  return problem;
}

}  // namespace elmo
