#include "analysis/decompose.hpp"

#include <cmath>

#include "bigint/bigint.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace {

/// The exact maximal step alpha > 0 along `mode` (optionally negated):
/// the ratio at which the first residual entry reaches zero.  The
/// orientation must be sign-compatible with `r` (compatible_orientations).
BigRational max_step(const std::vector<BigRational>& r,
                     const std::vector<BigInt>& mode, bool negate) {
  BigRational alpha;
  bool first = true;
  for (std::size_t j = 0; j < mode.size(); ++j) {
    if (mode[j].is_zero()) continue;
    // ratio = r_j / e_j  (> 0 since signs match).
    BigRational ratio = r[j] / BigRational(negate ? -mode[j] : mode[j]);
    if (first || ratio < alpha) {
      alpha = std::move(ratio);
      first = false;
    }
  }
  return alpha;
}

/// L1 mass the step removes: alpha * sum|e| (used to rank greedy picks).
double removed_mass(const BigRational& alpha,
                    const std::vector<BigInt>& mode) {
  double l1 = 0;
  for (const auto& e : mode) l1 += std::fabs(e.to_double());
  return alpha.to_double() * l1;
}

struct Orientations {
  bool plain = false;
  bool negated = false;
};

/// Which orientations of `mode` are sign-compatible with the residual
/// whose entry signs are `residual_sign`: supp(mode) ⊆ supp(r) with
/// matching signs, and negation only if every support reaction is
/// reversible.  One sign() per entry, stopping at the first clash; only
/// the orientations this keeps reach max_step's rational arithmetic.
Orientations compatible_orientations(const std::vector<int>& residual_sign,
                                     const std::vector<BigInt>& mode,
                                     const std::vector<bool>& reversible) {
  bool plain = true;
  bool negated = true;
  bool any = false;  // an all-zero mode removes nothing
  for (std::size_t j = 0; j < mode.size(); ++j) {
    const int es = mode[j].sign();
    if (es == 0) continue;
    any = true;
    plain = plain && residual_sign[j] == es;
    negated = negated && reversible[j] && residual_sign[j] == -es;
    if (!plain && !negated) return {};
  }
  return {any && plain, any && negated};
}

}  // namespace

double Decomposition::residual_l1() const {
  double total = 0;
  for (const auto& r : residual) total += std::fabs(r.to_double());
  return total;
}

Decomposition decompose_flux(const std::vector<BigRational>& flux,
                             const std::vector<std::vector<BigInt>>& modes,
                             const std::vector<bool>& reversible,
                             const DecomposeOptions& options) {
  ELMO_REQUIRE(flux.size() == reversible.size(),
               "decompose_flux: flux/reversibility dimension mismatch");
  for (const auto& mode : modes)
    ELMO_REQUIRE(mode.size() == flux.size(),
                 "decompose_flux: mode dimension mismatch");

  Decomposition out;
  out.residual = flux;
  const std::size_t max_terms =
      options.max_terms ? options.max_terms
                        : std::max<std::size_t>(modes.size(), flux.size());
  std::vector<int> residual_sign(flux.size());

  for (std::size_t step = 0; step < max_terms; ++step) {
    bool residual_zero = true;
    for (std::size_t j = 0; j < out.residual.size(); ++j) {
      residual_sign[j] = out.residual[j].sign();
      residual_zero = residual_zero && residual_sign[j] == 0;
    }
    if (residual_zero) break;

    // Greedy pick: the compatible (mode, orientation) absorbing the most
    // L1 flux this step.
    std::size_t best_mode = modes.size();
    bool best_negate = false;
    BigRational best_alpha;
    double best_mass = 0;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const Orientations usable =
          compatible_orientations(residual_sign, modes[m], reversible);
      for (bool negate : {false, true}) {
        if (!(negate ? usable.negated : usable.plain)) continue;
        BigRational alpha = max_step(out.residual, modes[m], negate);
        double mass = removed_mass(alpha, modes[m]);
        if (mass > best_mass) {
          best_mass = mass;
          best_mode = m;
          best_negate = negate;
          best_alpha = alpha;
        }
      }
    }
    if (best_mode == modes.size()) break;  // no compatible mode remains

    // Absorb: residual -= alpha * (+-mode).
    for (std::size_t j = 0; j < out.residual.size(); ++j) {
      const BigInt& e = modes[best_mode][j];
      if (e.is_zero()) continue;
      BigRational delta = best_alpha * BigRational(best_negate ? -e : e);
      out.residual[j] -= delta;
    }
    out.terms.push_back(DecompositionTerm{
        best_mode, best_negate ? -best_alpha : best_alpha});
  }

  out.exact = true;
  for (const auto& r : out.residual) out.exact = out.exact && r.is_zero();
  return out;
}

Decomposition decompose_flux(const std::vector<BigInt>& flux,
                             const std::vector<std::vector<BigInt>>& modes,
                             const std::vector<bool>& reversible,
                             const DecomposeOptions& options) {
  std::vector<BigRational> rational;
  rational.reserve(flux.size());
  for (const auto& v : flux) rational.emplace_back(v);
  return decompose_flux(rational, modes, reversible, options);
}

}  // namespace elmo
