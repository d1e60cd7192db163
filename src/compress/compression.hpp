// Network compression (the paper's preprocessing step).
//
// Before the Nullspace Algorithm runs, the metabolic network is reduced to
// an equivalent smaller one (paper §II.C, citing Gagneur & Klamt 2004 and
// Terzer & Stelling 2008): the reduced network has the same elementary flux
// modes up to an exact linear reconstruction.  Three operations are applied
// to a fixpoint:
//
//   1. forced-zero removal — an internal metabolite all of whose reactions
//      are irreversible and on the same side (never producible or never
//      consumable), or which is touched by exactly one reaction, forces all
//      its reactions to zero flux; the columns are removed,
//   2. two-reaction coupling — an internal metabolite touched by exactly two
//      reactions couples them (v_b = -(a/b) v_a); the columns are merged and
//      the metabolite disappears (this is how the toy network's r9 merges
//      into r3, and why Eq (7) re-adds the r9 row at the end),
//   3. redundant-row removal — metabolite rows linearly dependent on the
//      others (conservation relations) are dropped.
//
// Every operation also updates a sparse reconstruction map: each original
// reaction's flux is one rational multiple of one reduced column's flux (or
// identically zero once the reaction is removed).  The final map stores
// those multiples as integers over one common denominator D, so expanding a
// mode is an int64 gather plus a gcd pass, redone in BigInt for the rare
// mode that overflows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "linalg/matrix.hpp"
#include "network/network.hpp"

namespace elmo {

struct CompressionOptions {
  bool remove_forced_zero = true;
  bool couple_two_reaction_metabolites = true;
  /// Kernel-based blocked-reaction removal and full-coupling merges
  /// (Gagneur & Klamt 2004); subsumes the structural rules but costs a
  /// nullspace computation per sweep.
  bool kernel_coupling = true;
  bool drop_redundant_rows = true;
};

struct CompressionStats {
  std::size_t forced_zero_reactions = 0;
  std::size_t merged_reactions = 0;
  std::size_t removed_metabolites = 0;
  std::size_t redundant_rows = 0;
};

/// Sparse integer map from reduced fluxes back to the original reactions:
/// for a reduced flux vector v, original reaction r carries
/// coefficient[r] * v[column[r]] / denominator, or zero flux when
/// column[r] == kRemoved.  `denominator` (D) is the least common denominator
/// of the rational factors the compression produced, so every coefficient is
/// an integer.
struct ReconstructionMap {
  static constexpr std::size_t kRemoved = static_cast<std::size_t>(-1);

  std::vector<std::size_t> column;  // per original reaction
  std::vector<BigInt> coefficient;  // per original reaction; 0 if removed
  BigInt denominator{1};
};

/// A compressed EFM problem plus everything needed to map results back.
struct CompressedProblem {
  /// Reduced stoichiometry matrix (m_red x q_red), integer, each column
  /// primitive (gcd of entries is 1).
  Matrix<BigInt> stoichiometry;
  /// Reversibility flag per reduced reaction.
  std::vector<bool> reversible;
  /// Name of the representative original reaction per reduced column.
  std::vector<std::string> reaction_names;
  /// Name per surviving metabolite row.
  std::vector<std::string> metabolite_names;

  /// Original reaction space.
  std::vector<std::string> original_reaction_names;
  std::vector<bool> original_reversible;
  ReconstructionMap reconstruction;

  CompressionStats stats;

  [[nodiscard]] std::size_t num_reactions() const {
    return stoichiometry.cols();
  }
  [[nodiscard]] std::size_t num_metabolites() const {
    return stoichiometry.rows();
  }

  /// Reduced column index whose flux determines the named original
  /// reaction's flux, or nullopt if the reaction was removed as forced-zero.
  /// For a merged (non-representative) reaction this is the representative's
  /// column — its flux is a fixed nonzero multiple, so zero/nonzero
  /// partitioning on either is equivalent.
  [[nodiscard]] std::optional<std::size_t> column_for(
      const std::string& original_reaction_name) const;

  /// Expand a reduced-space flux vector to the original reaction space as a
  /// primitive integer vector: one gather through `reconstruction` and a gcd
  /// pass, in int64 unless a value of this mode does not fit.
  [[nodiscard]] std::vector<BigInt> expand(
      const std::vector<BigInt>& reduced_flux) const;
};

/// Compress a network.  The reduced problem has exactly the same EFM set as
/// `network` under CompressedProblem::expand.
CompressedProblem compress(const Network& network,
                           const CompressionOptions& options = {});

/// Trivial (identity) compression: the problem is the network unchanged.
/// Used by ablation benches to measure what preprocessing buys.
CompressedProblem no_compression(const Network& network);

}  // namespace elmo
