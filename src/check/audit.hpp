// InvariantAuditor: machine-checked algebraic invariants of the Nullspace
// Algorithm, verified at runtime when auditing is requested
// (elmo_cli --audit, SolverOptions::audit, or any caller constructing one).
//
// The paper states the invariants; the solvers assume them.  The auditor
// re-derives each one from first principles against the live data:
//
//   nullspace-product    S · R = 0 for every column of every intermediate
//                        nullspace matrix (paper §II.A: columns stay in
//                        null(S) under convex combination).
//   rank-nullity         every accepted candidate's support submatrix has
//                        nullity exactly 1 (Algorithm 1's rank test),
//                        re-verified with the exact Bareiss RankTester,
//                        which only audit mode builds.
//   support-minimality   the final column set is an antichain under strict
//                        support inclusion (elementarity = support
//                        minimality; equal supports are mirror modes).
//   subset-partition     the 2^qsub zero/nonzero patterns of Algorithm 3
//                        (plus adaptive re-splits) are bitwise disjoint and
//                        cover the pattern space exactly (Proposition 1's
//                        premise).
//   proposition-1        every column a subset reports has nonzero flux on
//                        all its nonzero-pattern rows and zero flux on all
//                        removed rows.
//   pair-conservation    per iteration, the rank-local pairs_probed sum
//                        across the mpsim world equals the global
//                        positives x negatives count (slices partition the
//                        pair set; nothing is lost in the merges).
//
// A failed check throws ContractViolation with an "audit[<class>]" prefix
// and enough context to locate the corruption.  All checks tally into the
// process-global AuditLedger so drivers can report how much was verified.
//
// Cost: audit mode is O(columns x m x q) extra per iteration — fine for the
// toy/validation networks it is meant for, and strictly opt-in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/scalar.hpp"
#include "check/contracts.hpp"
#include "linalg/matrix.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/rank_test.hpp"

namespace elmo::check {

/// Snapshot of the process-global audit tally.
struct AuditStats {
  std::uint64_t nullspace_products = 0;
  std::uint64_t rank_nullity_checks = 0;
  std::uint64_t minimality_checks = 0;
  std::uint64_t partition_checks = 0;
  std::uint64_t proposition1_checks = 0;
  std::uint64_t pair_conservation_checks = 0;
  std::uint64_t failures = 0;

  [[nodiscard]] std::uint64_t total_checks() const {
    return nullspace_products + rank_nullity_checks + minimality_checks +
           partition_checks + proposition1_checks + pair_conservation_checks;
  }
};

/// Process-global, thread-safe tally of audit checks (parallel ranks audit
/// concurrently).  Reset between runs by tests/drivers that want per-run
/// numbers.
class AuditLedger {
 public:
  static AuditLedger& global();

  void add_nullspace_products(std::uint64_t n);
  void add_rank_nullity_checks(std::uint64_t n);
  void add_minimality_checks(std::uint64_t n);
  void add_partition_checks(std::uint64_t n);
  void add_proposition1_checks(std::uint64_t n);
  void add_pair_conservation_checks(std::uint64_t n);
  void add_failure();

  [[nodiscard]] AuditStats snapshot() const;
  void reset();

 private:
  struct Impl;
  AuditLedger();
  Impl* impl_;
};

/// Record the failure in the ledger and throw ContractViolation with the
/// canonical "audit[<invariant>]: <detail>" diagnostic.
[[noreturn]] void audit_failed(const char* invariant,
                               const std::string& detail);

/// One subset pattern of the combined driver: (reduced row, must-be-nonzero)
/// pairs, as executed (including adaptive extra splits).
using SubsetPattern = std::vector<std::pair<std::size_t, bool>>;

/// Verify the executed subset patterns are pairwise bitwise-disjoint and
/// cover the zero/nonzero pattern space exactly (every EFM falls in exactly
/// one subset).  `labels[i]` names pattern i in diagnostics (may be empty).
void check_subset_partition(const std::vector<SubsetPattern>& patterns,
                            const std::vector<std::string>& labels);

namespace detail {

/// S · column, redone in BigInt on CheckedI64 overflow (the audit must not
/// abort a run the kernel itself would survive).
template <typename Scalar>
std::vector<BigInt> exact_product(const Matrix<Scalar>& stoichiometry,
                                  const std::vector<Scalar>& values) {
  Matrix<BigInt> wide(stoichiometry.rows(), stoichiometry.cols());
  for (std::size_t i = 0; i < stoichiometry.rows(); ++i)
    for (std::size_t j = 0; j < stoichiometry.cols(); ++j)
      wide(i, j) = scalar_to_bigint(stoichiometry(i, j));
  std::vector<BigInt> x;
  x.reserve(values.size());
  for (const auto& v : values) x.push_back(scalar_to_bigint(v));
  return wide.multiply(x);
}

}  // namespace detail

/// The auditor itself is stateless apart from its sampling cap; checks are
/// safe to run concurrently from several ranks.
class InvariantAuditor {
 public:
  /// Cap on columns examined by the pairwise minimality check (the check is
  /// quadratic; sampling keeps audit mode usable on larger runs).
  std::size_t minimality_sample_cap = 256;

  /// nullspace-product: S * column == 0 for every column.
  template <typename Scalar, typename Support>
  void check_nullspace_product(
      const Matrix<Scalar>& stoichiometry,
      const std::vector<FluxColumn<Scalar, Support>>& columns,
      const std::string& context) const {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      bool zero = true;
      std::size_t bad_row = 0;
      std::vector<BigInt> y;
      try {
        auto narrow = stoichiometry.multiply(columns[c].values);
        y.reserve(narrow.size());
        for (const auto& v : narrow) y.push_back(scalar_to_bigint(v));
      } catch (const OverflowError&) {
        y = detail::exact_product(stoichiometry, columns[c].values);
      }
      for (std::size_t i = 0; i < y.size() && zero; ++i) {
        if (!y[i].is_zero()) {
          zero = false;
          bad_row = i;
        }
      }
      if (!zero) {
        audit_failed("nullspace-product",
                     context + ": S*R != 0 at column " + std::to_string(c) +
                         ", metabolite row " + std::to_string(bad_row));
      }
    }
    AuditLedger::global().add_nullspace_products(columns.size());
  }

  /// rank-nullity: each accepted candidate passes the EXACT rank test
  /// (nullity of the support submatrix == 1), independent of the modular
  /// engine that accepted it.
  template <typename Scalar, typename Support>
  void check_rank_nullity(
      RankTester<Scalar>& exact_tester,
      const std::vector<FluxColumn<Scalar, Support>>& accepted,
      const std::string& context) const {
    for (std::size_t c = 0; c < accepted.size(); ++c) {
      if (!exact_tester.is_elementary(accepted[c].support)) {
        audit_failed("rank-nullity",
                     context + ": accepted candidate " + std::to_string(c) +
                         " has nullity != 1 under the exact rank test");
      }
    }
    AuditLedger::global().add_rank_nullity_checks(accepted.size());
  }

  /// support-minimality: no column's support strictly contains another's
  /// (equal supports — mirror orientations of reversible modes — are fine).
  /// Checks all pairs up to the sample cap, then a deterministic stride.
  template <typename Scalar, typename Support>
  void check_support_minimality(
      const std::vector<FluxColumn<Scalar, Support>>& columns,
      const std::string& context) const {
    std::vector<std::size_t> chosen;
    if (columns.size() <= minimality_sample_cap) {
      chosen.resize(columns.size());
      for (std::size_t i = 0; i < columns.size(); ++i) chosen[i] = i;
    } else {
      const std::size_t stride = columns.size() / minimality_sample_cap + 1;
      for (std::size_t i = 0; i < columns.size(); i += stride)
        chosen.push_back(i);
    }
    std::uint64_t pairs = 0;
    for (std::size_t a = 0; a < chosen.size(); ++a) {
      for (std::size_t b = 0; b < chosen.size(); ++b) {
        if (a == b) continue;
        ++pairs;
        const auto& sa = columns[chosen[a]].support;
        const auto& sb = columns[chosen[b]].support;
        if (sa != sb && sa.is_subset_of(sb)) {
          audit_failed(
              "support-minimality",
              context + ": support of column " + std::to_string(chosen[a]) +
                  " is strictly contained in support of column " +
                  std::to_string(chosen[b]) + " (non-elementary mode kept)");
        }
      }
    }
    AuditLedger::global().add_minimality_checks(pairs);
  }

  /// proposition-1: a subset's reported columns carry nonzero flux on every
  /// nonzero-pattern row and exactly zero on every removed row.
  template <typename Scalar, typename Support>
  void check_proposition1(
      const std::vector<FluxColumn<Scalar, Support>>& columns,
      const SubsetPattern& pattern, const std::string& context) const {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      for (const auto& [row, nonzero] : pattern) {
        const bool has_flux = !scalar_is_zero(columns[c].values[row]);
        if (nonzero && !has_flux) {
          audit_failed("proposition-1",
                       context + ": column " + std::to_string(c) +
                           " has zero flux on nonzero-pattern row " +
                           std::to_string(row));
        }
        if (!nonzero && has_flux) {
          audit_failed("proposition-1",
                       context + ": column " + std::to_string(c) +
                           " has nonzero flux on removed row " +
                           std::to_string(row));
        }
      }
    }
    AuditLedger::global().add_proposition1_checks(columns.size() *
                                                  pattern.size());
  }

  /// pair-conservation: the world-wide sum of slice-local probed pairs must
  /// equal the global positives x negatives count of the iteration.
  void check_pair_conservation(std::uint64_t world_sum,
                               std::uint64_t expected,
                               const std::string& context) const {
    if (world_sum != expected) {
      audit_failed("pair-conservation",
                   context + ": ranks probed " + std::to_string(world_sum) +
                       " pairs in total, expected " +
                       std::to_string(expected) +
                       " (slices must partition the pair set)");
    }
    AuditLedger::global().add_pair_conservation_checks(1);
  }
};

}  // namespace elmo::check
