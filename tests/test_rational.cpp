// Tests for exact rationals over CheckedI64 and BigInt.
#include "bigint/rational.hpp"

#include <gtest/gtest.h>

#include "bigint/bigint.hpp"
#include "support/error.hpp"

namespace elmo {
namespace {

template <typename T>
class RationalTest : public ::testing::Test {};

using IntKinds = ::testing::Types<CheckedI64, BigInt>;
TYPED_TEST_SUITE(RationalTest, IntKinds);

TYPED_TEST(RationalTest, NormalisesOnConstruction) {
  using R = Rational<TypeParam>;
  R half = R::from_i64(2, 4);
  EXPECT_EQ(half.num(), scalar_from_i64<TypeParam>(1));
  EXPECT_EQ(half.den(), scalar_from_i64<TypeParam>(2));

  // Denominator sign moves to the numerator.
  R neg = R::from_i64(3, -6);
  EXPECT_EQ(neg.num(), scalar_from_i64<TypeParam>(-1));
  EXPECT_EQ(neg.den(), scalar_from_i64<TypeParam>(2));

  // Zero normalises to 0/1.
  R zero = R::from_i64(0, 17);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.den(), scalar_from_i64<TypeParam>(1));
}

TYPED_TEST(RationalTest, ZeroDenominatorThrows) {
  using R = Rational<TypeParam>;
  EXPECT_THROW(R::from_i64(1, 0), InvalidArgumentError);
}

TYPED_TEST(RationalTest, Arithmetic) {
  using R = Rational<TypeParam>;
  R a = R::from_i64(1, 6);
  R b = R::from_i64(1, 10);
  EXPECT_EQ(a + b, R::from_i64(4, 15));
  EXPECT_EQ(a - b, R::from_i64(1, 15));
  EXPECT_EQ(a * b, R::from_i64(1, 60));
  EXPECT_EQ(a / b, R::from_i64(5, 3));
  EXPECT_EQ(-a, R::from_i64(-1, 6));
}

TYPED_TEST(RationalTest, DivisionByZeroThrows) {
  using R = Rational<TypeParam>;
  EXPECT_THROW(R::from_i64(1, 2) / R::from_i64(0), InvalidArgumentError);
  EXPECT_THROW((void)R::from_i64(0).reciprocal(), InvalidArgumentError);
}

TYPED_TEST(RationalTest, Ordering) {
  using R = Rational<TypeParam>;
  EXPECT_LT(R::from_i64(1, 3), R::from_i64(1, 2));
  EXPECT_LT(R::from_i64(-1, 2), R::from_i64(-1, 3));
  EXPECT_EQ(R::from_i64(2, 4), R::from_i64(1, 2));
  EXPECT_GT(R::from_i64(7, 3), R::from_i64(2));
}

TYPED_TEST(RationalTest, ToStringAndDouble) {
  using R = Rational<TypeParam>;
  EXPECT_EQ(R::from_i64(3).to_string(), "3");
  EXPECT_EQ(R::from_i64(-3, 7).to_string(), "-3/7");
  EXPECT_DOUBLE_EQ(R::from_i64(1, 4).to_double(), 0.25);
}

TEST(RationalCheckedOverflow, PropagatesToCaller) {
  RationalI64 huge = RationalI64::from_i64(INT64_MAX / 2, 3);
  // (max/2)/3 + (max/2)/5 overflows the cross-multiplied numerator.
  EXPECT_THROW(huge + RationalI64::from_i64(INT64_MAX / 2, 5), OverflowError);
}

TEST(RationalBigInt, NoOverflowForHugeValues) {
  BigRational huge(BigInt::from_string("92233720368547758070"),
                   BigInt::from_string("3"));
  BigRational other(BigInt::from_string("92233720368547758070"),
                    BigInt::from_string("5"));
  BigRational sum = huge + other;
  EXPECT_EQ(sum.to_string(), "147573952589676412912/3");
}

}  // namespace
}  // namespace elmo
