// Exact Gaussian elimination algorithms over the scalars of
// bigint/scalar.hpp (CheckedI64, BigInt) and their rationals.
//
//  * rref             - Gauss-Jordan over a field scalar (Rational), with a
//                       caller-supplied column pivot order so the caller
//                       controls which variables end up free.
//  * rank_bareiss     - fraction-free (Bareiss) elimination over an integer
//                       scalar; exact rank without rationals.  This is the
//                       workhorse of the algebraic rank test.
//  * nullity          - cols - rank; the rank test accepts a candidate flux
//                       mode iff the nullity of its support submatrix is 1.
#pragma once

#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "support/assert.hpp"

namespace elmo {

/// Result of reduced row echelon form.
struct RrefResult {
  /// pivot_cols[i] is the pivot column of row i; size == rank.
  std::vector<std::size_t> pivot_cols;
  [[nodiscard]] std::size_t rank() const { return pivot_cols.size(); }
};

/// In-place reduced row echelon form over a field scalar.
///
/// Columns are considered for pivoting in the order given by `col_order`
/// (every column index exactly once); a column becomes a pivot iff some
/// not-yet-pivoted row has a nonzero entry there.  Rows end up permuted so
/// that row i holds pivot i.
template <typename Field>
RrefResult rref(Matrix<Field>& a, const std::vector<std::size_t>& col_order) {
  ELMO_REQUIRE(col_order.size() == a.cols(),
               "rref: col_order must cover every column");
  RrefResult result;
  std::size_t next_row = 0;
  for (std::size_t col : col_order) {
    if (next_row >= a.rows()) break;
    // Find a pivot row at or below next_row.
    std::size_t pivot_row = next_row;
    while (pivot_row < a.rows() && scalar_is_zero(a(pivot_row, col)))
      ++pivot_row;
    if (pivot_row == a.rows()) continue;
    a.swap_rows(next_row, pivot_row);

    // Normalise the pivot row.
    Field inv = scalar_from_i64<Field>(1);
    inv /= a(next_row, col);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!scalar_is_zero(a(next_row, j))) a(next_row, j) *= inv;
    }

    // Eliminate the column everywhere else.
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (i == next_row || scalar_is_zero(a(i, col))) continue;
      Field factor = a(i, col);
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (scalar_is_zero(a(next_row, j))) continue;
        a(i, j) -= factor * a(next_row, j);
      }
    }
    result.pivot_cols.push_back(col);
    ++next_row;
  }
  return result;
}

/// rref with the natural column order 0..cols-1.
template <typename Field>
RrefResult rref(Matrix<Field>& a) {
  std::vector<std::size_t> order(a.cols());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  return rref(a, order);
}

/// Exact matrix rank via fraction-free (Bareiss) elimination.
///
/// Works on a copy; Int must be an exact integer scalar (CheckedI64 throws
/// OverflowError if intermediate minors exceed 64 bits — callers retry with
/// BigInt).
template <typename Int>
std::size_t rank_bareiss(Matrix<Int> a) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t rank = 0;
  Int prev_pivot = scalar_from_i64<Int>(1);
  std::size_t pivot_col = 0;
  for (std::size_t step = 0; step < rows && pivot_col < cols; ++pivot_col) {
    // Find a nonzero pivot in this column at or below `step`.
    std::size_t pivot_row = step;
    while (pivot_row < rows && scalar_is_zero(a(pivot_row, pivot_col)))
      ++pivot_row;
    if (pivot_row == rows) continue;
    a.swap_rows(step, pivot_row);

    const Int pivot = a(step, pivot_col);
    for (std::size_t i = step + 1; i < rows; ++i) {
      const Int factor = a(i, pivot_col);
      for (std::size_t j = pivot_col + 1; j < cols; ++j) {
        // Bareiss update: exact division by the previous pivot.
        Int value = pivot * a(i, j) - factor * a(step, j);
        a(i, j) = scalar_exact_div(std::move(value), prev_pivot);
      }
      a(i, pivot_col) = scalar_from_i64<Int>(0);
    }
    prev_pivot = pivot;
    ++rank;
    ++step;
  }
  return rank;
}

/// Dimension of the right nullspace: cols - rank.
template <typename Int>
std::size_t nullity(const Matrix<Int>& a) {
  return a.cols() - rank_bareiss(a);
}

/// Kernel (right nullspace) basis of an exact matrix, in the (I; R2) shape
/// the Nullspace Algorithm starts from.
///
/// Returned as a pair:
///   * basis: q x (q - rank) matrix over Field whose columns span null(a);
///     rows are in the ORIGINAL column (reaction) order of `a`.
///   * free_cols: the columns of `a` (reactions) that are free variables —
///     basis restricted to these rows is the identity.  These are the
///     "identity part" rows the algorithm never needs to process.
///
/// `col_order` controls pivoting preference exactly as in rref(): columns
/// late in the order are more likely to end up free.
template <typename Field>
std::pair<Matrix<Field>, std::vector<std::size_t>> nullspace_basis(
    const Matrix<Field>& a, const std::vector<std::size_t>& col_order) {
  Matrix<Field> r = a;
  RrefResult echelon = rref(r, col_order);

  std::vector<bool> is_pivot(a.cols(), false);
  for (std::size_t col : echelon.pivot_cols) is_pivot[col] = true;
  std::vector<std::size_t> free_cols;
  for (std::size_t j = 0; j < a.cols(); ++j)
    if (!is_pivot[j]) free_cols.push_back(j);

  Matrix<Field> basis(a.cols(), free_cols.size());
  for (std::size_t k = 0; k < free_cols.size(); ++k) {
    const std::size_t f = free_cols[k];
    basis(f, k) = scalar_from_i64<Field>(1);
    // x[pivot_i] = -r(i, f) for each pivot row i.
    for (std::size_t i = 0; i < echelon.pivot_cols.size(); ++i) {
      if (!scalar_is_zero(r(i, f)))
        basis(echelon.pivot_cols[i], k) = -r(i, f);
    }
  }
  return {std::move(basis), std::move(free_cols)};
}

template <typename Field>
std::pair<Matrix<Field>, std::vector<std::size_t>> nullspace_basis(
    const Matrix<Field>& a) {
  std::vector<std::size_t> order(a.cols());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  return nullspace_basis(a, order);
}

}  // namespace elmo
