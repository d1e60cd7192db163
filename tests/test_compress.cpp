// Tests for network compression and the exact reconstruction map.
#include "compress/compression.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/api.hpp"
#include "efm_test_util.hpp"
#include "linalg/gauss.hpp"
#include "linalg/scale.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "network/parser.hpp"

namespace elmo {
namespace {

TEST(Compress, ToyMatchesPaperReduction) {
  // Paper Eq (2) -> Eq (4): metabolite D and reaction r9 disappear (r9 is
  // coupled to r3), leaving a 4 x 8 problem.
  auto problem = compress(models::toy_network());
  EXPECT_EQ(problem.num_metabolites(), 4u);
  EXPECT_EQ(problem.num_reactions(), 8u);
  EXPECT_EQ(problem.reaction_names,
            (std::vector<std::string>{"r1", "r2", "r3", "r4", "r5", "r6r",
                                      "r7", "r8r"}));
  EXPECT_EQ(problem.metabolite_names,
            (std::vector<std::string>{"A", "B", "C", "P"}));

  auto expected = Matrix<BigInt>::from_rows({
      {1, -1, 0, 0, -1, 0, 0, 0},
      {0, 0, 0, 0, 1, -1, -1, -1},
      {0, 1, -1, 0, 0, 1, 0, 0},
      {0, 0, 1, -1, 0, 0, 2, 0},
  });
  EXPECT_EQ(problem.stoichiometry, expected);
  EXPECT_EQ(problem.stats.merged_reactions, 1u);
}

TEST(Compress, ToyReconstructionReAddsR9) {
  auto problem = compress(models::toy_network());
  // A reduced flux using r3 must expand with r9 == r3 (the coupled pair).
  std::vector<BigInt> reduced(8, BigInt(0));
  reduced[2] = BigInt(3);  // r3
  auto original = problem.expand(reduced);
  ASSERT_EQ(original.size(), 9u);
  EXPECT_EQ(original[2], original[8]);  // r9 == r3
  EXPECT_EQ(original[2], BigInt(1));    // primitive scaling
}

TEST(Compress, ColumnForMapsMergedAndRemovedReactions) {
  auto problem = compress(models::toy_network());
  EXPECT_EQ(problem.column_for("r3"), std::size_t{2});
  // r9 was merged into r3's column.
  EXPECT_EQ(problem.column_for("r9"), std::size_t{2});
  EXPECT_EQ(problem.column_for("r8r"), std::size_t{7});
  EXPECT_THROW((void)problem.column_for("bogus"), InvalidArgumentError);
}

TEST(Compress, ForcedZeroDeadEnd) {
  // B is produced but never consumed: R2 (and then R1, A) must die.
  Network net = parse_network(R"(
    R1 : Aext => A
    R2 : A => B
  )");
  auto problem = compress(net);
  EXPECT_EQ(problem.num_reactions(), 0u);
  EXPECT_EQ(problem.stats.forced_zero_reactions, 2u);
  EXPECT_FALSE(problem.column_for("R1").has_value());
  // Expansion of the empty flux vector is all zeros.
  auto original = problem.expand({});
  for (const auto& v : original) EXPECT_TRUE(v.is_zero());
}

TEST(Compress, SingleReactionMetaboliteForcedZero) {
  // B touched by exactly one (reversible!) reaction: flux still forced to 0.
  Network net = parse_network(R"(
    R1 : Aext <=> A
    R2r : A <=> B
    R3 : A => Xout
    external Xout
  )");
  auto problem = compress(net);
  EXPECT_FALSE(problem.column_for("R2r").has_value());
}

TEST(Compress, CouplingConflictKillsBothReactions) {
  // M: R1 produces (irreversible), R2 produces (irreversible): same sign,
  // forced zero by the sign rule.
  Network net = parse_network(R"(
    R1 : Aext => M
    R2 : Bext => M
  )");
  auto problem = compress(net);
  EXPECT_EQ(problem.num_reactions(), 0u);
}

TEST(Compress, CouplingFlipsOrientationWhenNeeded) {
  // M produced by reversible R1, consumed by irreversible R2; coupling on M
  // keeps the merged reaction irreversible in the forward direction.
  Network net = parse_network(R"(
    R1r : Aext <=> M
    R2 : M => Bext
  )");
  auto problem = compress(net);
  ASSERT_EQ(problem.num_reactions(), 1u);
  EXPECT_FALSE(problem.reversible[0]);
  // Unit flux on the merged column expands to R1 = R2 = 1 (both forward).
  auto original = problem.expand({BigInt(1)});
  EXPECT_EQ(original[0], BigInt(1));
  EXPECT_EQ(original[1], BigInt(1));
}

TEST(Compress, CouplingWithCoefficients) {
  // 2 A per R1 unit; R2 consumes 3 A: v2 = (2/3) v1.
  Network net = parse_network(R"(
    R1 : Xext => 2 A
    R2 : 3 A => Yext
  )");
  auto problem = compress(net);
  ASSERT_EQ(problem.num_reactions(), 1u);
  auto original = problem.expand({BigInt(1)});
  // Primitive integer expansion of (1, 2/3) is (3, 2).
  EXPECT_EQ(original[0], BigInt(3));
  EXPECT_EQ(original[1], BigInt(2));
}

TEST(Compress, RedundantRowsDropped) {
  // Duplicate metabolite constraint: B row equals A row doubled.
  Network net = parse_network(R"(
    R1 : Xext => A + 2 B
    R2 : A + 2 B => Yext
    R3r : A + 2 B <=> C
    R4 : C => Zext
  )");
  auto with_rows = compress(net, {.remove_forced_zero = true,
                                  .couple_two_reaction_metabolites = false,
                                  .drop_redundant_rows = false});
  auto without_rows = compress(net, {.remove_forced_zero = true,
                                     .couple_two_reaction_metabolites = false,
                                     .drop_redundant_rows = true});
  EXPECT_GT(with_rows.num_metabolites(), without_rows.num_metabolites());
  EXPECT_EQ(without_rows.stats.redundant_rows,
            with_rows.num_metabolites() - without_rows.num_metabolites());
}

TEST(Compress, NoCompressionIsIdentity) {
  Network net = models::toy_network();
  auto problem = no_compression(net);
  EXPECT_EQ(problem.num_reactions(), 9u);
  EXPECT_EQ(problem.num_metabolites(), 5u);
  std::vector<BigInt> flux(9, BigInt(0));
  flux[0] = BigInt(5);
  auto original = problem.expand(flux);
  EXPECT_EQ(original[0], BigInt(1));  // primitive
  for (std::size_t i = 1; i < 9; ++i) EXPECT_TRUE(original[i].is_zero());
  const auto& map = problem.reconstruction;
  EXPECT_EQ(map.denominator, BigInt(1));
  for (std::size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(map.column[r], r);
    EXPECT_EQ(map.coefficient[r], BigInt(1));
  }
}

TEST(Compress, YeastNetwork1ReducesNearPaperSize) {
  // Paper: 62 x 78 reduces to 35 x 55.  Our operation set is the standard
  // one but not necessarily identical to the authors'; sizes should land in
  // the same neighbourhood and never below (a smaller reduction is sound,
  // a larger one would indicate a missing rule firing).
  // Our pass reaches 40 x 65: the remaining gap to the paper's size is
  // duplicate-column and opposite-irreversible-pair merging, which change
  // the EFM count (nonlinear expansion) and are intentionally not applied —
  // the EFM total is the quantity validated against the paper instead.
  Network net = models::yeast_network_1();
  EXPECT_EQ(net.num_internal_metabolites(), 62u);
  EXPECT_EQ(net.num_reactions(), 78u);
  auto problem = compress(net);
  EXPECT_LE(problem.num_reactions(), 66u);
  EXPECT_GE(problem.num_reactions(), 55u);
  EXPECT_LE(problem.num_metabolites(), 40u);
}

TEST(Compress, YeastNetwork2Dimensions) {
  Network net = models::yeast_network_2();
  EXPECT_EQ(net.num_internal_metabolites(), 63u);
  EXPECT_EQ(net.num_reactions(), 83u);
  auto problem = compress(net);
  EXPECT_LE(problem.num_reactions(), 72u);
  // The paper's divide-and-conquer partition reactions must survive
  // compression (they are chosen from the reduced network).
  for (const char* name : {"R54r", "R90r", "R60r", "R22r"}) {
    EXPECT_TRUE(problem.column_for(name).has_value()) << name;
  }
}

TEST(Compress, ReducedStoichiometryAnnihilatesExpandedFluxes) {
  // For any reduced kernel vector v, the ORIGINAL stoichiometry must
  // annihilate expand(v).  Check with the toy network's known kernel.
  Network net = models::toy_network();
  auto problem = compress(net);
  // v = unit flux through r1..r4 chain + r9 via reconstruction: use the
  // reduced vector for the mode r1,r2,r3,r4 (indices 0..3 in reduced).
  std::vector<BigInt> reduced(8, BigInt(0));
  reduced[0] = BigInt(1);
  reduced[1] = BigInt(1);
  reduced[2] = BigInt(1);
  reduced[3] = BigInt(1);
  auto original = problem.expand(reduced);
  auto n = net.stoichiometry<BigInt>();
  auto y = n.multiply(original);
  for (const auto& value : y) EXPECT_TRUE(value.is_zero());
}

/// Canonical EFM set of the network computed on `problem`.
std::vector<std::vector<BigInt>> efms_through(const CompressedProblem& problem,
                                              const Network& network,
                                              bool force_bigint = false) {
  EfmOptions options;
  options.force_bigint = force_bigint;
  return compute_efms(problem, network.reversibility(), options).modes;
}

bool is_primitive(const std::vector<BigInt>& v) {
  BigInt g(0);
  for (const auto& x : v) g = BigInt::gcd(g, x);
  return g == BigInt(1);
}

TEST(Compress, EveryOptionCombinationKeepsTheEfmSet) {
  // The differential test of the reconstruction map: whatever subset of the
  // reduction rules runs, expanding the reduced EFMs must give exactly the
  // EFM set computed on the uncompressed network (identity map).
  // The second network needs a flip: M couples reversible R2r to
  // irreversible R3 with ratio -5/2, so the merged reaction runs R2r
  // backwards.
  std::vector<Network> networks{models::toy_network(), parse_network(R"(
    R1 : Aext => A
    R2r : 3 A <=> 5 M
    R3 : Bext => 2 M
    R4 : A => Cext
    R5 : A => Dext
  )")};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 5 + seed % 3;
    spec.max_coefficient = 5 + static_cast<std::int64_t>(seed % 3);
    networks.push_back(models::random_network(spec));
  }
  bool saw_rational_factor = false;
  std::size_t total_modes = 0;
  for (std::size_t k = 0; k < networks.size(); ++k) {
    const Network& net = networks[k];
    const auto reference = efms_through(no_compression(net), net);
    total_modes += reference.size();
    for (unsigned mask = 0; mask < 16; ++mask) {
      CompressionOptions options;
      options.remove_forced_zero = (mask & 1u) != 0;
      options.couple_two_reaction_metabolites = (mask & 2u) != 0;
      options.kernel_coupling = (mask & 4u) != 0;
      options.drop_redundant_rows = (mask & 8u) != 0;
      const auto problem = compress(net, options);
      const auto& map = problem.reconstruction;
      saw_rational_factor = saw_rational_factor || map.denominator != BigInt(1);
      for (const auto& c : map.coefficient)
        saw_rational_factor = saw_rational_factor || c.abs() > BigInt(1);
      EXPECT_EQ(efms_through(problem, net), reference)
          << "network " << k << ", options mask " << mask;
    }
  }
  // The inputs must exercise non-trivial ratios and column scales.
  EXPECT_TRUE(saw_rational_factor);
  EXPECT_GT(total_modes, 20u);
}

TEST(Compress, YeastNetwork1KernelBasisExpandsToPrimitiveSteadyStates) {
  Network net = models::yeast_network_1();
  const auto problem = compress(net);
  Matrix<BigRational> reduced(problem.num_metabolites(),
                              problem.num_reactions());
  for (std::size_t i = 0; i < reduced.rows(); ++i)
    for (std::size_t j = 0; j < reduced.cols(); ++j)
      reduced(i, j) = BigRational(problem.stoichiometry(i, j));
  const auto kernel = nullspace_basis(reduced).first;
  ASSERT_GT(kernel.cols(), 0u);
  const auto n = net.stoichiometry<BigInt>();
  for (std::size_t c = 0; c < kernel.cols(); ++c) {
    std::vector<BigRational> column(kernel.rows());
    for (std::size_t j = 0; j < kernel.rows(); ++j) column[j] = kernel(j, c);
    const auto original = problem.expand(to_primitive_integer(column));
    ASSERT_EQ(original.size(), net.num_reactions());
    EXPECT_TRUE(is_primitive(original)) << "kernel column " << c;
    for (const auto& residual : n.multiply(original))
      EXPECT_TRUE(residual.is_zero()) << "kernel column " << c;
  }
}

// Two coupled pairs with ~1e9 prime coefficients feeding one metabolite C:
// p A from R1 is consumed as q A by R2, r B from R3 as s B by R4, and R2,
// R4 each make one C that R5 exports as `k` C.  The map's coefficients are
// then ~1e18 (and ~1e19 for k = 10, past int64).
constexpr std::int64_t kP = 999999937;
constexpr std::int64_t kQ = 1000000007;
constexpr std::int64_t kR = 999999929;
constexpr std::int64_t kS = 1000000009;

Network big_coupling_network(int k) {
  return parse_network("R1 : Xext => " + std::to_string(kP) + " A\n" +
                       "R2 : " + std::to_string(kQ) + " A => C\n" +
                       "R3 : Zext => " + std::to_string(kR) + " B\n" +
                       "R4 : " + std::to_string(kS) + " B => C\n" +
                       "R5 : " + std::to_string(k) + " C => Yext\n");
}

TEST(Compress, ExpandEscapesToBigIntPerMode) {
  Network net = big_coupling_network(1);
  const auto problem = compress(net);
  ASSERT_EQ(problem.reaction_names,
            (std::vector<std::string>{"R1", "R3", "R5"}));
  ASSERT_EQ(problem.stoichiometry, Matrix<BigInt>::from_rows({{1, 1, -1}}));
  // Every coefficient fits int64, yet ten times one does not.
  for (const auto& c : problem.reconstruction.coefficient)
    EXPECT_TRUE(c.fits_i64());
  EXPECT_FALSE((problem.reconstruction.coefficient[0] * BigInt(10)).fits_i64());

  // Reference from the chemistry alone: reduced flux x1 is R2's flux (one C
  // per unit), so R1 runs at (q/p) x1; likewise R3 = (s/r) x2, R4 = x2.
  auto reference = [](const std::vector<BigInt>& x) {
    std::vector<BigRational> v{BigRational(x[0] * BigInt(kQ), BigInt(kP)),
                               BigRational(x[0]),
                               BigRational(x[1] * BigInt(kS), BigInt(kR)),
                               BigRational(x[1]), BigRational(x[2])};
    return to_primitive_integer(v);
  };
  const BigInt huge = BigInt(std::int64_t{1} << 62) * BigInt(256);  // 2^70
  const std::vector<std::vector<BigInt>> inputs{
      {BigInt(1), BigInt(0), BigInt(1)},    // fits
      {BigInt(10), BigInt(0), BigInt(10)},  // products overflow int64
      {BigInt(9), BigInt(5), BigInt(14)},   // overflow, gcd 1: huge output
      {huge, BigInt(3), huge},              // reduced entries beyond int64
      {-huge, BigInt(0), BigInt(0)},
  };
  for (const auto& x : inputs) {
    const auto got = problem.expand(x);
    EXPECT_EQ(got, reference(x)) << x[0].to_string();
    EXPECT_TRUE(is_primitive(got)) << x[0].to_string();
  }
}

TEST(Compress, BigCoefficientSolveMatchesForcedBigInt) {
  for (int k : {1, 10}) {
    Network net = big_coupling_network(k);
    const auto problem = compress(net);
    if (k == 10) {
      // R5's column scale 1/10 puts D = 10 p r past int64: every expand
      // takes the BigInt escape.
      EXPECT_FALSE(problem.reconstruction.denominator.fits_i64());
    }
    const auto modes = efms_through(problem, net);
    EXPECT_EQ(modes.size(), 2u) << "k = " << k;
    check_efm_invariants(net, modes);
    EXPECT_EQ(modes, efms_through(problem, net, /*force_bigint=*/true))
        << "k = " << k;
  }
}

}  // namespace
}  // namespace elmo
