// Shared helpers for EFM test suites: expansion to the original reaction
// space, canonicalisation, the invariant battery every EFM set must
// satisfy, and an exhaustive ground-truth EFM set that never runs the
// solver.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bigint/rational.hpp"
#include "compress/compression.hpp"
#include "linalg/gauss.hpp"
#include "linalg/scale.hpp"
#include "network/network.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/stats.hpp"

namespace elmo {

/// Expand reduced-space solver columns through the compression record and
/// canonicalise in the original reaction space.
template <typename Scalar, typename Support>
std::vector<std::vector<BigInt>> expand_and_canonicalize(
    const std::vector<FluxColumn<Scalar, Support>>& columns,
    const CompressedProblem& compressed, const Network& network) {
  auto reduced = columns_to_bigint(columns);
  std::vector<std::vector<BigInt>> modes;
  modes.reserve(reduced.size());
  for (const auto& mode : reduced) modes.push_back(compressed.expand(mode));
  canonicalize_modes(modes, network.reversibility());
  return modes;
}

/// The invariant battery:
///   1. every mode is nonzero and satisfies N * e == 0,
///   2. irreversible reactions never carry negative flux,
///   3. entries are primitive integers (gcd == 1),
///   4. supports are pairwise distinct and support-minimal,
///   5. every mode passes the algebraic rank test (nullity == 1) on the
///      original network.
inline void check_efm_invariants(const Network& network,
                                 const std::vector<std::vector<BigInt>>& modes) {
  auto n = network.stoichiometry<BigInt>();
  auto reversible = network.reversibility();
  RankTester<BigInt> tester(n);

  std::set<std::vector<bool>> supports;
  for (const auto& mode : modes) {
    ASSERT_EQ(mode.size(), network.num_reactions());
    // 1. steady state & nonzero.
    bool nonzero = false;
    for (const auto& v : mode) nonzero = nonzero || !v.is_zero();
    EXPECT_TRUE(nonzero);
    for (const auto& residual : n.multiply(mode))
      EXPECT_TRUE(residual.is_zero());
    // 2. irreversibility.
    for (std::size_t j = 0; j < mode.size(); ++j) {
      if (!reversible[j]) {
        EXPECT_GE(mode[j].sign(), 0) << "reaction " << j;
      }
    }
    // 3. primitive.
    BigInt g(0);
    for (const auto& v : mode) g = BigInt::gcd(g, v);
    EXPECT_EQ(g, BigInt(1));
    // 4a. distinct supports.
    std::vector<bool> support(mode.size());
    for (std::size_t j = 0; j < mode.size(); ++j)
      support[j] = !mode[j].is_zero();
    EXPECT_TRUE(supports.insert(support).second)
        << "duplicate support in EFM set";
    // 5. rank test on the original network.
    DynBitset bits(mode.size());
    for (std::size_t j = 0; j < mode.size(); ++j)
      if (!mode[j].is_zero()) bits.set(j);
    EXPECT_TRUE(tester.is_elementary(bits));
  }

  // 4b. support minimality across the set.
  std::vector<std::vector<bool>> all(supports.begin(), supports.end());
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = 0; b < all.size(); ++b) {
      if (a == b) continue;
      bool subset = true;
      bool strict = false;
      for (std::size_t j = 0; j < all[a].size(); ++j) {
        if (all[a][j] && !all[b][j]) subset = false;
        if (!all[a][j] && all[b][j]) strict = true;
      }
      EXPECT_FALSE(subset && strict)
          << "support " << a << " strictly inside support " << b;
    }
  }
}

/// Ground truth by exhaustion, for networks of at most 16 reactions: every
/// reaction subset S of the UNCOMPRESSED network is an EFM support iff
/// the exact (Bareiss) nullity of N_S is 1, the kernel vector of N_S has
/// full support on S, and one orientation of it respects irreversibility.
/// No compression, ordering, candidate generation or modular arithmetic is
/// involved.  Canonical and sorted, comparable with
/// expand_and_canonicalize and EfmResult::modes.
inline std::vector<std::vector<BigInt>> exhaustive_efms(
    const Network& network) {
  const std::size_t q = network.num_reactions();
  EXPECT_LE(q, 16u) << "the exhaustive oracle enumerates 2^q subsets";
  if (q > 16) return {};
  const auto n = network.stoichiometry<CheckedI64>();
  const auto reversible = network.reversibility();
  RankTester<CheckedI64> tester(n);
  std::vector<std::vector<BigInt>> modes;
  std::vector<std::size_t> columns;
  for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << q); ++mask) {
    DynBitset support(q);
    columns.clear();
    for (std::size_t j = 0; j < q; ++j) {
      if ((mask >> j) & 1u) {
        support.set(j);
        columns.push_back(j);
      }
    }
    if (!tester.is_elementary(support)) continue;
    // Nullity 1: the one kernel vector of N_S, as primitive integers.
    Matrix<BigRational> sub(n.rows(), columns.size());
    for (std::size_t i = 0; i < n.rows(); ++i)
      for (std::size_t k = 0; k < columns.size(); ++k)
        sub(i, k) = BigRational(scalar_to_bigint(n(i, columns[k])));
    const auto kernel = nullspace_basis(sub).first;
    std::vector<BigRational> ray(columns.size());
    for (std::size_t k = 0; k < columns.size(); ++k) ray[k] = kernel(k, 0);
    const auto flux = to_primitive_integer(ray);
    bool full_support = true;
    bool forward = true;
    bool backward = true;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      full_support = full_support && !flux[k].is_zero();
      if (!reversible[columns[k]]) {
        forward = forward && flux[k].sign() > 0;
        backward = backward && flux[k].sign() < 0;
      }
    }
    if (!full_support || (!forward && !backward)) continue;
    std::vector<BigInt> mode(q, BigInt(0));
    for (std::size_t k = 0; k < columns.size(); ++k)
      mode[columns[k]] = forward ? flux[k] : -flux[k];
    modes.push_back(std::move(mode));
  }
  canonicalize_modes(modes, reversible);
  return modes;
}

/// Every total_* counter of a solve ledger, by name (gtest prints the map
/// on a mismatch, so a failing comparison names the counter).
inline std::map<std::string, std::uint64_t> solve_totals(
    const SolveStats& stats) {
  return {
      {"pairs_probed", stats.total_pairs_probed},
      {"pretest_survivors", stats.total_pretest_survivors},
      {"rank_tests", stats.total_rank_tests},
      {"accepted", stats.total_accepted},
      {"duplicates_removed", stats.total_duplicates_removed},
      {"spilled_bytes", stats.total_spilled_bytes},
      {"rank_warmstart_reuses", stats.total_rank_warmstart_reuses},
      {"rank_gathered_nnz", stats.total_rank_gathered_nnz},
  };
}

/// A distributed solve's totals are the sums of its rank ledgers.
inline void expect_totals_are_rank_sums(const SolveStats& total,
                                        const std::vector<SolveStats>& ranks) {
  std::map<std::string, std::uint64_t> sums = solve_totals(SolveStats{});
  for (const SolveStats& rank : ranks) {
    for (const auto& [name, value] : solve_totals(rank)) sums[name] += value;
  }
  EXPECT_EQ(solve_totals(total), sums);
}

}  // namespace elmo
