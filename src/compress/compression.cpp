#include "compress/compression.hpp"

#include <algorithm>
#include <utility>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bigint/rational.hpp"
#include "bigint/scalar.hpp"
#include "linalg/gauss.hpp"
#include "linalg/matrix.hpp"
#include "linalg/scale.hpp"
#include "network/network.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace elmo {

namespace {

constexpr std::size_t kRemoved = ReconstructionMap::kRemoved;

/// Mutable working state during compression.  Columns/rows are erased by
/// rebuilding the vectors; sizes here are small (tens to low hundreds).
struct WorkState {
  Matrix<BigRational> n;            // rows x cols rational stoichiometry
  std::vector<bool> reversible;     // per column
  std::vector<std::string> names;   // per column (representative)
  std::vector<std::string> mets;    // per row
  // Per original reaction: flux = factor * flux of column `column`.
  std::vector<std::size_t> column;
  std::vector<BigRational> factor;
  CompressionStats stats;

  [[nodiscard]] std::size_t rows() const { return n.rows(); }
  [[nodiscard]] std::size_t cols() const { return n.cols(); }

  /// The reactions carried by column `from` move to column `into` with
  /// v_from = ratio * v_into (a merge; `from` == `into` rescales in place).
  void relabel(std::size_t from, std::size_t into, const BigRational& ratio) {
    for (std::size_t r = 0; r < column.size(); ++r) {
      if (column[r] != from) continue;
      column[r] = into;
      factor[r] *= ratio;
    }
  }

  void remove_columns(const std::vector<bool>& drop) {
    std::vector<std::size_t> keep;
    std::vector<std::size_t> new_index(cols(), kRemoved);
    for (std::size_t j = 0; j < cols(); ++j) {
      if (drop[j]) continue;
      new_index[j] = keep.size();
      keep.push_back(j);
    }
    n = n.select_columns(keep);
    for (std::size_t r = 0; r < column.size(); ++r) {
      if (column[r] == kRemoved) continue;
      column[r] = new_index[column[r]];
      if (column[r] == kRemoved) factor[r] = BigRational();
    }
    std::vector<bool> rev;
    std::vector<std::string> nm;
    rev.reserve(keep.size());
    nm.reserve(keep.size());
    for (std::size_t j : keep) {
      rev.push_back(reversible[j]);
      nm.push_back(std::move(names[j]));
    }
    reversible = std::move(rev);
    names = std::move(nm);
  }

  void remove_rows(const std::vector<bool>& drop) {
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < rows(); ++i)
      if (!drop[i]) keep.push_back(i);
    n = n.select_rows(keep);
    std::vector<std::string> ms;
    ms.reserve(keep.size());
    for (std::size_t i : keep) ms.push_back(std::move(mets[i]));
    mets = std::move(ms);
  }
};

/// One forced-zero sweep.  Returns true if anything was removed.
bool sweep_forced_zero(WorkState& w) {
  std::vector<bool> drop_col(w.cols(), false);
  std::vector<bool> drop_row(w.rows(), false);
  bool changed = false;

  for (std::size_t i = 0; i < w.rows(); ++i) {
    std::vector<std::size_t> touching;
    for (std::size_t j = 0; j < w.cols(); ++j)
      if (!drop_col[j] && !w.n(i, j).is_zero()) touching.push_back(j);

    if (touching.empty()) {
      drop_row[i] = true;
      ++w.stats.removed_metabolites;
      changed = true;
      continue;
    }

    bool forced = false;
    if (touching.size() == 1) {
      // c * v = 0 with c != 0 forces v = 0 even for a reversible reaction.
      forced = true;
    } else {
      // If every touching reaction is irreversible and enters with the same
      // sign, the steady-state sum of same-sign terms forces all to zero.
      bool all_irreversible_positive = true;
      bool all_irreversible_negative = true;
      for (std::size_t j : touching) {
        if (w.reversible[j]) {
          all_irreversible_positive = false;
          all_irreversible_negative = false;
          break;
        }
        if (w.n(i, j).sign() > 0) all_irreversible_negative = false;
        if (w.n(i, j).sign() < 0) all_irreversible_positive = false;
      }
      forced = all_irreversible_positive || all_irreversible_negative;
    }
    if (forced) {
      for (std::size_t j : touching) {
        drop_col[j] = true;
        ++w.stats.forced_zero_reactions;
      }
      changed = true;
    }
  }

  if (changed) {
    // Row indices are stable across column removal, so the unused-row flags
    // computed above remain valid.  Rows newly emptied by the column
    // removal are caught by the outer fixpoint loop on the next sweep.
    w.remove_columns(drop_col);
    w.remove_rows(drop_row);
  }
  return changed;
}

/// One coupling sweep: merge the first metabolite with exactly two touching
/// reactions.  Returns true if a merge (or a conflict-forced removal)
/// happened.  Merging one pair at a time keeps the bookkeeping simple; the
/// fixpoint loop re-scans.
bool sweep_coupling(WorkState& w) {
  for (std::size_t i = 0; i < w.rows(); ++i) {
    std::vector<std::size_t> touching;
    for (std::size_t j = 0; j < w.cols(); ++j)
      if (!w.n(i, j).is_zero()) touching.push_back(j);
    if (touching.size() != 2) continue;

    const std::size_t ja = touching[0];
    const std::size_t jb = touching[1];
    const BigRational a = w.n(i, ja);
    const BigRational b = w.n(i, jb);
    // Steady state on row i: a*va + b*vb = 0  =>  vb = ratio * va.
    const BigRational ratio = -(a / b);

    // Determine the merged reaction's reversibility from the sign
    // constraints each irreversible member imposes on va.
    bool lower_bounded = !w.reversible[ja];  // va >= 0 from ra
    bool upper_bounded = false;
    if (!w.reversible[jb]) {
      if (ratio.sign() > 0)
        lower_bounded = true;  // vb = ratio*va >= 0  =>  va >= 0
      else
        upper_bounded = true;  // va <= 0
    }

    if (lower_bounded && upper_bounded) {
      // va must be 0: both reactions are dead.
      std::vector<bool> drop(w.cols(), false);
      drop[ja] = drop[jb] = true;
      w.stats.forced_zero_reactions += 2;
      w.remove_columns(drop);
      return true;
    }

    // Merge jb into ja: col(ja) += ratio * col(jb).
    for (std::size_t r = 0; r < w.rows(); ++r) {
      if (!w.n(r, jb).is_zero()) w.n(r, ja) += ratio * w.n(r, jb);
    }
    w.relabel(jb, ja, ratio);
    bool merged_reversible = !lower_bounded && !upper_bounded;
    if (upper_bounded) {
      // Flip orientation so the merged reaction is a standard irreversible
      // (flux >= 0) reaction.
      for (std::size_t r = 0; r < w.rows(); ++r) w.n(r, ja) = -w.n(r, ja);
      w.relabel(ja, ja, BigRational(BigInt(-1)));
    }
    w.reversible[ja] = merged_reversible;
    ++w.stats.merged_reactions;

    std::vector<bool> drop(w.cols(), false);
    drop[jb] = true;
    w.remove_columns(drop);
    return true;
  }
  return false;
}

/// Kernel-based coupling sweep (Gagneur & Klamt 2004 style).
///
/// Compute a kernel basis K of the current stoichiometry.  A reaction whose
/// K-row is identically zero can never carry steady-state flux (blocked);
/// two reactions whose K-rows are proportional (row_i = lambda * row_j in
/// every kernel vector) are fully coupled and merge into one column.  This
/// subsumes the structural two-reaction rule and is what reduces the yeast
/// networks close to the paper's 35 x 55 / 40 x 61 sizes.
///
/// Returns true if anything changed (callers loop to a fixpoint).
bool sweep_kernel_coupling(WorkState& w) {
  if (w.cols() == 0) return false;
  auto [kernel, free_cols] = nullspace_basis(w.n);
  (void)free_cols;

  // Blocked reactions: zero kernel row.
  std::vector<bool> drop(w.cols(), false);
  bool any_blocked = false;
  for (std::size_t j = 0; j < w.cols(); ++j) {
    bool zero = true;
    for (std::size_t c = 0; c < kernel.cols() && zero; ++c)
      if (!kernel(j, c).is_zero()) zero = false;
    if (zero) {
      drop[j] = true;
      ++w.stats.forced_zero_reactions;
      any_blocked = true;
    }
  }
  if (any_blocked) {
    w.remove_columns(drop);
    return true;
  }

  // Coupled pair: find the first (i, j) with proportional kernel rows.
  for (std::size_t j = 0; j < w.cols(); ++j) {
    for (std::size_t i = j + 1; i < w.cols(); ++i) {
      // Determine lambda from the first nonzero of row j; rows are nonzero
      // here (blocked ones were removed above).
      BigRational lambda;
      bool proportional = true;
      bool have_lambda = false;
      for (std::size_t c = 0; c < kernel.cols(); ++c) {
        const BigRational& kj = kernel(j, c);
        const BigRational& ki = kernel(i, c);
        if (kj.is_zero()) {
          if (!ki.is_zero()) {
            proportional = false;
            break;
          }
          continue;
        }
        BigRational ratio = ki / kj;
        if (!have_lambda) {
          lambda = ratio;
          have_lambda = true;
        } else if (!(ratio == lambda)) {
          proportional = false;
          break;
        }
      }
      if (!proportional || !have_lambda || lambda.is_zero()) continue;

      // v_i = lambda * v_j in every steady state.  Sign constraints on v_j:
      bool lower_bounded = !w.reversible[j];
      bool upper_bounded = false;
      if (!w.reversible[i]) {
        if (lambda.sign() > 0)
          lower_bounded = true;
        else
          upper_bounded = true;
      }
      if (lower_bounded && upper_bounded) {
        // v_j forced to zero, and with it v_i.
        std::vector<bool> kill(w.cols(), false);
        kill[i] = kill[j] = true;
        w.stats.forced_zero_reactions += 2;
        w.remove_columns(kill);
        return true;
      }
      // Merge i into j: col(j) += lambda * col(i).
      for (std::size_t r = 0; r < w.rows(); ++r)
        if (!w.n(r, i).is_zero()) w.n(r, j) += lambda * w.n(r, i);
      w.relabel(i, j, lambda);
      bool merged_reversible = !lower_bounded && !upper_bounded;
      if (upper_bounded) {
        for (std::size_t r = 0; r < w.rows(); ++r) w.n(r, j) = -w.n(r, j);
        w.relabel(j, j, BigRational(BigInt(-1)));
      }
      w.reversible[j] = merged_reversible;
      ++w.stats.merged_reactions;
      std::vector<bool> kill(w.cols(), false);
      kill[i] = true;
      w.remove_columns(kill);
      return true;
    }
  }
  return false;
}

/// Drop metabolite rows linearly dependent on earlier rows.
void drop_redundant_rows(WorkState& w) {
  if (w.rows() == 0) return;
  // Incremental elimination: carry an RREF of the independent rows found so
  // far; a row that reduces to zero is redundant.
  std::vector<std::vector<BigRational>> reduced_rows;
  std::vector<std::size_t> pivot_cols;
  std::vector<bool> drop(w.rows(), false);

  for (std::size_t i = 0; i < w.rows(); ++i) {
    std::vector<BigRational> row(w.cols());
    for (std::size_t j = 0; j < w.cols(); ++j) row[j] = w.n(i, j);
    // Reduce against existing pivots.
    for (std::size_t k = 0; k < reduced_rows.size(); ++k) {
      const std::size_t p = pivot_cols[k];
      if (row[p].is_zero()) continue;
      BigRational factor = row[p];
      for (std::size_t j = 0; j < w.cols(); ++j) {
        if (!reduced_rows[k][j].is_zero())
          row[j] -= factor * reduced_rows[k][j];
      }
    }
    // Find this row's pivot.
    std::size_t pivot = w.cols();
    for (std::size_t j = 0; j < w.cols(); ++j) {
      if (!row[j].is_zero()) {
        pivot = j;
        break;
      }
    }
    if (pivot == w.cols()) {
      drop[i] = true;
      ++w.stats.redundant_rows;
      continue;
    }
    // Normalise so the pivot is 1 (keeps later reductions single-multiply).
    BigRational inv = row[pivot].reciprocal();
    for (std::size_t j = 0; j < w.cols(); ++j)
      if (!row[j].is_zero()) row[j] *= inv;
    reduced_rows.push_back(std::move(row));
    pivot_cols.push_back(pivot);
  }
  w.remove_rows(drop);
}

CompressedProblem finalize(WorkState&& w) {
  CompressedProblem out;
  out.reversible = std::move(w.reversible);
  out.reaction_names = std::move(w.names);
  out.metabolite_names = std::move(w.mets);
  out.stats = w.stats;

  out.stoichiometry = Matrix<BigInt>(w.n.rows(), w.n.cols());
  for (std::size_t j = 0; j < w.n.cols(); ++j) {
    std::vector<BigRational> column(w.n.rows());
    for (std::size_t i = 0; i < w.n.rows(); ++i) column[i] = w.n(i, j);
    // Find the primitive integer multiple: col_int = s * col_rat with s > 0.
    std::vector<BigInt> ints = to_primitive_integer(column);
    for (std::size_t i = 0; i < w.n.rows(); ++i)
      out.stoichiometry(i, j) = ints[i];
    // s = ints[i] / column[i] for any nonzero entry.
    BigRational scale = BigRational(BigInt(1));
    for (std::size_t i = 0; i < w.n.rows(); ++i) {
      if (!column[i].is_zero()) {
        scale = BigRational(ints[i]) / column[i];
        break;
      }
    }
    // A unit flux on the scaled column s * col does the work of s units on
    // col, so every reaction it carries scales by s.
    w.relabel(j, j, scale);
  }

  // Clear the factors' denominators: coefficient = D * factor.
  ReconstructionMap& map = out.reconstruction;
  for (const auto& f : w.factor) {
    if (f.is_zero()) continue;
    map.denominator *=
        f.den().exact_div(BigInt::gcd(map.denominator, f.den()));
  }
  map.coefficient.reserve(w.factor.size());
  for (const auto& f : w.factor)
    map.coefficient.push_back(f.num() * map.denominator.exact_div(f.den()));
  map.column = std::move(w.column);
  return out;
}

/// out[r] = coefficient[r] * v[column[r]], made primitive, computed in Int.
/// CheckedI64 throws OverflowError when a coefficient, a reduced entry or a
/// product does not fit.
template <typename Int>
std::vector<BigInt> gather_primitive(const ReconstructionMap& map,
                                     const std::vector<BigInt>& reduced) {
  std::vector<Int> out(map.column.size(), scalar_from_i64<Int>(0));
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::size_t j = map.column[r];
    if (j == kRemoved || reduced[j].is_zero()) continue;
    out[r] = scalar_from_bigint<Int>(map.coefficient[r]) *
             scalar_from_bigint<Int>(reduced[j]);
  }
  make_primitive(out);
  std::vector<BigInt> result;
  result.reserve(out.size());
  for (const auto& value : out) result.push_back(scalar_to_bigint(value));
  return result;
}

}  // namespace

std::optional<std::size_t> CompressedProblem::column_for(
    const std::string& original_reaction_name) const {
  // Find the original row index.
  std::size_t row = original_reaction_names.size();
  for (std::size_t r = 0; r < original_reaction_names.size(); ++r) {
    if (original_reaction_names[r] == original_reaction_name) {
      row = r;
      break;
    }
  }
  ELMO_REQUIRE(row < original_reaction_names.size(),
               "unknown original reaction: " + original_reaction_name);
  const std::size_t column = reconstruction.column[row];
  if (column == kRemoved) return std::nullopt;
  return column;
}

std::vector<BigInt> CompressedProblem::expand(
    const std::vector<BigInt>& reduced_flux) const {
  ELMO_REQUIRE(reduced_flux.size() == num_reactions(),
               "expand: flux dimension mismatch");
  // D * (E v) is a positive multiple of E v, so both normalise to the same
  // primitive vector; only this mode is redone when int64 is too narrow.
  try {
    return gather_primitive<CheckedI64>(reconstruction, reduced_flux);
  } catch (const OverflowError&) {
    return gather_primitive<BigInt>(reconstruction, reduced_flux);
  }
}

CompressedProblem compress(const Network& network,
                           const CompressionOptions& options) {
  WorkState w;
  const auto internals = network.internal_metabolites();
  auto n_int = network.stoichiometry<BigInt>();
  w.n = Matrix<BigRational>(n_int.rows(), n_int.cols());
  for (std::size_t i = 0; i < n_int.rows(); ++i)
    for (std::size_t j = 0; j < n_int.cols(); ++j)
      w.n(i, j) = BigRational(n_int(i, j));
  w.reversible = network.reversibility();
  for (const auto& reaction : network.reactions())
    w.names.push_back(reaction.name);
  for (auto met : internals) w.mets.push_back(network.metabolite(met).name);
  for (std::size_t j = 0; j < network.num_reactions(); ++j) {
    w.column.push_back(j);
    w.factor.emplace_back(BigInt(1));
  }

  bool changed = true;
  while (changed) {
    changed = false;
    if (options.remove_forced_zero && sweep_forced_zero(w)) changed = true;
    if (options.couple_two_reaction_metabolites && sweep_coupling(w))
      changed = true;
    // Only fall back to the (more expensive) kernel sweep once the cheap
    // structural sweeps have converged.
    if (!changed && options.kernel_coupling && sweep_kernel_coupling(w))
      changed = true;
  }
  if (options.drop_redundant_rows) drop_redundant_rows(w);

  CompressedProblem out = finalize(std::move(w));
  out.original_reaction_names.reserve(network.num_reactions());
  for (const auto& reaction : network.reactions())
    out.original_reaction_names.push_back(reaction.name);
  out.original_reversible = network.reversibility();
  return out;
}

CompressedProblem no_compression(const Network& network) {
  CompressionOptions off;
  off.remove_forced_zero = false;
  off.couple_two_reaction_metabolites = false;
  off.kernel_coupling = false;
  off.drop_redundant_rows = false;
  return compress(network, off);
}

}  // namespace elmo
