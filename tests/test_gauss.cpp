// Tests for exact elimination: RREF, Bareiss rank, nullspace basis.
#include "linalg/gauss.hpp"

#include <gtest/gtest.h>

#include "bigint/bigint.hpp"
#include "bigint/rational.hpp"
#include "linalg/scale.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

using RMat = Matrix<BigRational>;
using IMat = Matrix<CheckedI64>;

RMat rational_from_rows(
    std::initializer_list<std::initializer_list<std::int64_t>> rows) {
  auto ints = Matrix<BigInt>::from_rows(rows);
  RMat out(ints.rows(), ints.cols());
  for (std::size_t i = 0; i < ints.rows(); ++i)
    for (std::size_t j = 0; j < ints.cols(); ++j)
      out(i, j) = BigRational(ints(i, j));
  return out;
}

TEST(Rref, IdentityIsFixedPoint) {
  auto m = rational_from_rows({{1, 0}, {0, 1}});
  auto result = rref(m);
  EXPECT_EQ(result.rank(), 2u);
  EXPECT_EQ(m, rational_from_rows({{1, 0}, {0, 1}}));
}

TEST(Rref, ReducesAndRecordsPivots) {
  auto m = rational_from_rows({{2, 4, 6}, {1, 2, 4}});
  auto result = rref(m);
  EXPECT_EQ(result.rank(), 2u);
  EXPECT_EQ(result.pivot_cols, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(m, rational_from_rows({{1, 2, 0}, {0, 0, 1}}));
}

TEST(Rref, RankDeficient) {
  auto m = rational_from_rows({{1, 2}, {2, 4}, {3, 6}});
  auto result = rref(m);
  EXPECT_EQ(result.rank(), 1u);
}

TEST(Rref, CustomColumnOrderChangesFreeVariables) {
  auto m = rational_from_rows({{1, 1, 1}});
  // Pivot preference: column 2 first, so columns 0 and 1 stay free.
  auto result = rref(m, {2, 0, 1});
  EXPECT_EQ(result.pivot_cols, (std::vector<std::size_t>{2}));
}

TEST(RankBareiss, KnownRanks) {
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{1, 0}, {0, 1}})), 2u);
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{1, 2}, {2, 4}})), 1u);
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{0, 0}, {0, 0}})), 0u);
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})),
            2u);
  // Wide and tall shapes.
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{1, 2, 3, 4}})), 1u);
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{1}, {2}, {3}})), 1u);
}

TEST(RankBareiss, NeedsColumnPivoting) {
  // Leading zero column forces the pivot search to skip columns.
  EXPECT_EQ(rank_bareiss(IMat::from_rows({{0, 1, 2}, {0, 2, 5}})), 2u);
}

TEST(RankBareiss, AgreesAcrossScalars) {
  Rng rng(11);
  for (int iter = 0; iter < 100; ++iter) {
    std::size_t rows = 1 + rng.below(6);
    std::size_t cols = 1 + rng.below(6);
    IMat mi(rows, cols);
    Matrix<BigInt> mb(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) {
        std::int64_t v = rng.range(-4, 4);
        mi(i, j) = CheckedI64(v);
        mb(i, j) = BigInt(v);
      }
    std::size_t ri = rank_bareiss(mi);
    EXPECT_EQ(ri, rank_bareiss(mb));
  }
}

TEST(Nullity, MatchesColsMinusRank) {
  auto m = IMat::from_rows({{1, -1, 0}, {0, 1, -1}});
  EXPECT_EQ(nullity(m), 1u);
  auto wide = IMat::from_rows({{1, 1, 1, 1}});
  EXPECT_EQ(nullity(wide), 3u);
}

TEST(NullspaceBasis, SpansKernel) {
  // Kernel of [1 -1 0; 0 1 -1] is span{(1,1,1)}.
  auto m = rational_from_rows({{1, -1, 0}, {0, 1, -1}});
  auto [basis, free_cols] = nullspace_basis(m);
  ASSERT_EQ(basis.cols(), 1u);
  ASSERT_EQ(basis.rows(), 3u);
  EXPECT_EQ(free_cols.size(), 1u);
  // Verify m * basis == 0 and the free row carries the identity.
  for (std::size_t i = 0; i < m.rows(); ++i) {
    BigRational acc;
    for (std::size_t j = 0; j < m.cols(); ++j) acc += m(i, j) * basis(j, 0);
    EXPECT_TRUE(acc.is_zero());
  }
  EXPECT_EQ(basis(free_cols[0], 0), BigRational(BigInt(1)));
}

TEST(NullspaceBasis, IdentityBlockOnFreeRows) {
  auto m = rational_from_rows({{1, 2, 3, 4}, {0, 1, 2, 3}});
  auto [basis, free_cols] = nullspace_basis(m);
  ASSERT_EQ(basis.cols(), 2u);
  ASSERT_EQ(free_cols.size(), 2u);
  for (std::size_t k = 0; k < free_cols.size(); ++k)
    for (std::size_t l = 0; l < free_cols.size(); ++l)
      EXPECT_EQ(basis(free_cols[k], l),
                BigRational(BigInt(k == l ? 1 : 0)));
}

TEST(NullspaceBasis, RandomKernelProperty) {
  Rng rng(23);
  for (int iter = 0; iter < 60; ++iter) {
    std::size_t rows = 1 + rng.below(5);
    std::size_t cols = rows + 1 + rng.below(4);
    RMat m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        m(i, j) = BigRational(BigInt(rng.range(-3, 3)));
    auto copy = m;
    auto [basis, free_cols] = nullspace_basis(m);
    auto rank = cols - basis.cols();
    RMat check = copy;
    EXPECT_EQ(rref(check).rank(), rank);
    // Every basis column is in the kernel.
    for (std::size_t c = 0; c < basis.cols(); ++c) {
      for (std::size_t i = 0; i < rows; ++i) {
        BigRational acc;
        for (std::size_t j = 0; j < cols; ++j)
          acc += copy(i, j) * basis(j, c);
        EXPECT_TRUE(acc.is_zero()) << "iter " << iter;
      }
    }
  }
}

TEST(Scale, ToPrimitiveInteger) {
  std::vector<BigRational> v = {BigRational::from_i64(1, 2),
                                BigRational::from_i64(-1, 3),
                                BigRational::from_i64(0)};
  auto ints = to_primitive_integer(v);
  EXPECT_EQ(ints[0], BigInt(3));
  EXPECT_EQ(ints[1], BigInt(-2));
  EXPECT_EQ(ints[2], BigInt(0));
}

TEST(Scale, MakePrimitive) {
  std::vector<CheckedI64> v = {CheckedI64(6), CheckedI64(-9), CheckedI64(0)};
  auto g = make_primitive(v);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(v[0].value(), 2);
  EXPECT_EQ(v[1].value(), -3);
  // Already primitive: no change.
  std::vector<CheckedI64> w = {CheckedI64(2), CheckedI64(3)};
  make_primitive(w);
  EXPECT_EQ(w[0].value(), 2);
}

}  // namespace
}  // namespace elmo
