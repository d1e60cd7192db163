// Fast modular rank test.
//
// The algebraic rank test (nullity(N_S) == 1) dominates Nullspace Algorithm
// runtime once the exact Bareiss elimination is used for every candidate.
// This tester runs the elimination over Z_p with the Mersenne prime
// p = 2^61 - 1 instead:
//
//   * rank can only DROP under reduction mod p, so nullity_p >= nullity.
//     Every candidate is a nonzero kernel vector, hence nullity >= 1.
//     Therefore nullity_p == 1  =>  nullity == 1: ACCEPTS ARE CERTIFIED,
//     no exact confirmation needed.
//   * nullity_p >= 2 is treated as a rejection.  It is wrong only if p
//     divides the specific minor that realises rank(N_S) = |S| - 1; for
//     the integer matrices arising here that has probability on the order
//     of 2^-45 per test (documented Monte-Carlo guarantee; the exact
//     Bareiss RankTester re-checks accepts under audit and serves as the
//     tests' reference).
//
// The solver's engine (sparse_rank.hpp) embeds this tester as its
// per-candidate fallback; on its own it is the engine's differential
// reference.
//
// Two equivalent formulations are chosen per candidate by operation count:
//
//   N-side:  nullity = |S| - rank(N[:, S])           (m x |S| elimination)
//   K-side:  nullity = k - rank(K[~S, :])            ((q-|S|) x k)
//
// where K is the initial kernel basis.  For supports near the rank bound
// the K-side matrix is smaller by the rank of N in both dimensions.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bigint/scalar.hpp"
#include "linalg/matrix.hpp"
#include "nullspace/flux_column.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace modular {

inline constexpr std::uint64_t kPrime = (1ULL << 61) - 1;

inline std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) {
  __uint128_t x = static_cast<__uint128_t>(a) * b;
  std::uint64_t lo = static_cast<std::uint64_t>(x) & kPrime;
  std::uint64_t hi = static_cast<std::uint64_t>(x >> 61);
  std::uint64_t s = lo + hi;
  if (s >= kPrime) s -= kPrime;
  return s;
}

inline std::uint64_t submod(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kPrime - b;
}

inline std::uint64_t powmod(std::uint64_t base, std::uint64_t exponent) {
  std::uint64_t result = 1;
  while (exponent) {
    if (exponent & 1) result = mulmod(result, base);
    base = mulmod(base, base);
    exponent >>= 1;
  }
  return result;
}

inline std::uint64_t invmod(std::uint64_t a) {
  ELMO_DCHECK(a != 0, "invmod of zero");
  return powmod(a, kPrime - 2);  // Fermat
}

inline std::uint64_t from_i64(std::int64_t v) {
  if (v >= 0) return static_cast<std::uint64_t>(v) % kPrime;
  // v < 0 here, so v + 1 cannot overflow and -(v + 1) fits in int64 even
  // for v == INT64_MIN; the + 1 after the cast is unsigned (wrap-defined).
  // lint:allow(overflow) deliberate INT64_MIN-safe negation
  std::uint64_t mag = static_cast<std::uint64_t>(-(v + 1)) + 1;
  std::uint64_t m = mag % kPrime;
  return m == 0 ? 0 : kPrime - m;
}

inline std::uint64_t from_scalar(const CheckedI64& v) {
  return from_i64(v.value());
}
inline std::uint64_t from_scalar(const BigInt& v) {
  // |v| mod p via BigInt division, sign fixed afterwards.
  BigInt q;
  BigInt r;
  BigInt::divmod(v.abs(), BigInt(static_cast<std::int64_t>(kPrime)), q, r);
  auto mag = static_cast<std::uint64_t>(r.to_i64());
  if (v.sign() < 0 && mag != 0) return kPrime - mag;
  return mag;
}

/// Rank of a dense row-major matrix over Z_p, with early abort: returns as
/// soon as the column deficiency (columns processed minus pivots found)
/// reaches `max_deficiency`, reporting rank = columns - max_deficiency - 1
/// sentinel via the bool.  Outputs (rank, aborted).
struct RankOutcome {
  std::size_t rank = 0;
  bool deficiency_exceeded = false;
};

inline RankOutcome rank_mod_p(std::vector<std::uint64_t>& a, std::size_t rows,
                              std::size_t cols,
                              std::size_t max_deficiency) {
  std::size_t rank = 0;
  std::size_t deficiency = 0;
  for (std::size_t col = 0; col < cols; ++col) {
    // Pivot search in this column at or below row `rank`.
    std::size_t pivot_row = rank;
    while (pivot_row < rows && a[pivot_row * cols + col] == 0) ++pivot_row;
    if (pivot_row == rows) {
      if (++deficiency > max_deficiency) {
        return {rank, true};
      }
      continue;
    }
    if (pivot_row != rank) {
      for (std::size_t j = col; j < cols; ++j)
        std::swap(a[rank * cols + j], a[pivot_row * cols + j]);
    }
    const std::uint64_t inv = invmod(a[rank * cols + col]);
    for (std::size_t i = rank + 1; i < rows; ++i) {
      const std::uint64_t head = a[i * cols + col];
      if (head == 0) continue;
      const std::uint64_t factor = mulmod(head, inv);
      a[i * cols + col] = 0;
      for (std::size_t j = col + 1; j < cols; ++j) {
        const std::uint64_t sub = mulmod(factor, a[rank * cols + j]);
        if (sub) a[i * cols + j] = submod(a[i * cols + j], sub);
      }
    }
    if (++rank == rows) {
      // All remaining columns are necessarily deficient... but they cannot
      // create pivots, so the final deficiency is fixed:
      deficiency += cols - col - 1;
      return {rank, deficiency > max_deficiency};
    }
  }
  return {rank, false};
}

}  // namespace modular

template <typename Scalar>
class ModularRankTester {
 public:
  /// `stoichiometry` is the reduced m x q matrix; `kernel_columns` the
  /// initial nullspace basis (one entry per basis column, values length q).
  template <typename Support>
  ModularRankTester(
      const Matrix<Scalar>& stoichiometry,
      const std::vector<FluxColumn<Scalar, Support>>& kernel_columns)
      : m_(stoichiometry.rows()),
        q_(stoichiometry.cols()),
        k_(kernel_columns.size()) {
    // N stored column-major: the N-side test copies whole columns.
    n_colmajor_.resize(m_ * q_);
    for (std::size_t i = 0; i < m_; ++i)
      for (std::size_t j = 0; j < q_; ++j)
        n_colmajor_[j * m_ + i] = modular::from_scalar(stoichiometry(i, j));
    // K stored row-major: the K-side test copies whole rows.
    k_rowmajor_.resize(q_ * k_);
    for (std::size_t c = 0; c < k_; ++c)
      for (std::size_t r = 0; r < q_; ++r)
        k_rowmajor_[r * k_ + c] =
            modular::from_scalar(kernel_columns[c].values[r]);
  }

  /// True iff nullity(N restricted to `support`) == 1, computed mod p.
  /// Accepts are exact; rejects are Monte-Carlo (see file comment).
  template <typename Support>
  bool is_elementary(const Support& support) {
    indices_.clear();
    support.append_indices(indices_);
    const std::size_t s = indices_.size();
    if (s == 0) return false;
    if (s > m_ + 1) return false;  // nullity >= s - m >= 2

    // Choose the cheaper side by elimination volume.
    const std::size_t n_side_cost = m_ * s * s;
    const std::size_t t = q_ - s;  // K-side rows
    const std::size_t k_side_cost = t * k_ * k_;
    if (n_side_cost <= k_side_cost) {
      scratch_.resize(m_ * s);
      // Gather selected columns, transposing column-major N into a
      // row-major m x s scratch.
      for (std::size_t j = 0; j < s; ++j) {
        const std::uint64_t* column = n_colmajor_.data() + indices_[j] * m_;
        for (std::size_t i = 0; i < m_; ++i)
          scratch_[i * s + j] = column[i];
      }
      auto outcome = modular::rank_mod_p(scratch_, m_, s, 1);
      if (outcome.deficiency_exceeded) return false;
      return s - outcome.rank == 1;
    }
    // K-side: rows of K outside the support; accept iff rank == k - 1.
    scratch_.resize(t * k_);
    std::size_t out_row = 0;
    std::size_t next = 0;  // cursor into sorted indices_
    for (std::size_t r = 0; r < q_; ++r) {
      if (next < s && indices_[next] == r) {
        ++next;
        continue;
      }
      const std::uint64_t* row = k_rowmajor_.data() + r * k_;
      std::copy(row, row + k_, scratch_.begin() + out_row * k_);
      ++out_row;
    }
    auto outcome = modular::rank_mod_p(scratch_, t, k_, 1);
    if (outcome.deficiency_exceeded) return false;
    return k_ - outcome.rank == 1;
  }

 private:
  std::size_t m_;
  std::size_t q_;
  std::size_t k_;
  std::vector<std::uint64_t> n_colmajor_;
  std::vector<std::uint64_t> k_rowmajor_;
  std::vector<std::uint32_t> indices_;
  std::vector<std::uint64_t> scratch_;
};

}  // namespace elmo
