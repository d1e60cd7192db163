// Unit and property tests for the arbitrary-precision integer.
#include "bigint/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.to_i64(), 0);
}

TEST(BigInt, ConstructFromInt64Extremes) {
  BigInt max(INT64_MAX);
  BigInt min(INT64_MIN);
  EXPECT_EQ(max.to_string(), "9223372036854775807");
  EXPECT_EQ(min.to_string(), "-9223372036854775808");
  EXPECT_EQ(max.to_i64(), INT64_MAX);
  EXPECT_EQ(min.to_i64(), INT64_MIN);
  EXPECT_TRUE(max.fits_i64());
  EXPECT_TRUE(min.fits_i64());
  // One beyond either extreme no longer fits.
  EXPECT_FALSE((max + BigInt(1)).fits_i64());
  EXPECT_FALSE((min - BigInt(1)).fits_i64());
  EXPECT_THROW((void)(max + BigInt(1)).to_i64(), OverflowError);
}

TEST(BigInt, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "-1",
                         "42",
                         "-4294967296",
                         "18446744073709551616",
                         "-123456789012345678901234567890",
                         "999999999999999999999999999999999999"};
  for (const char* text : cases) {
    EXPECT_EQ(BigInt::from_string(text).to_string(), text) << text;
  }
}

TEST(BigInt, FromStringAcceptsPlusAndRejectsGarbage) {
  EXPECT_EQ(BigInt::from_string("+17").to_i64(), 17);
  EXPECT_THROW(BigInt::from_string(""), ParseError);
  EXPECT_THROW(BigInt::from_string("-"), ParseError);
  EXPECT_THROW(BigInt::from_string("12a"), ParseError);
  EXPECT_THROW(BigInt::from_string(" 1"), ParseError);
}

TEST(BigInt, NegativeZeroNormalises) {
  BigInt z = BigInt(5) - BigInt(5);
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ((-z).sign(), 0);
  EXPECT_EQ(BigInt::from_string("-0").to_string(), "0");
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::from_string("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).to_string(), "4294967296");
  BigInt b = BigInt::from_string("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).to_string(), "18446744073709551616");
}

TEST(BigInt, MixedSignAddition) {
  EXPECT_EQ((BigInt(10) + BigInt(-3)).to_i64(), 7);
  EXPECT_EQ((BigInt(-10) + BigInt(3)).to_i64(), -7);
  EXPECT_EQ((BigInt(-10) + BigInt(-3)).to_i64(), -13);
  EXPECT_EQ((BigInt(3) - BigInt(10)).to_i64(), -7);
}

TEST(BigInt, MultiplicationLarge) {
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  BigInt b = BigInt::from_string("-987654321098765432109876543210");
  EXPECT_EQ(
      (a * b).to_string(),
      "-121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ((a * BigInt(0)).to_string(), "0");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_i64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_i64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_i64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).to_i64(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_i64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_i64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).to_i64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).to_i64(), -1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), InvalidArgumentError);
  EXPECT_THROW(BigInt(1) % BigInt(0), InvalidArgumentError);
}

TEST(BigInt, KnuthDAddBackCase) {
  // A dividend/divisor pair engineered to trigger the rare "add back"
  // correction step in Algorithm D.
  BigInt dividend = BigInt::from_string("340282366920938463463374607431768211455");
  BigInt divisor = BigInt::from_string("18446744073709551615");
  BigInt q = dividend / divisor;
  BigInt r = dividend % divisor;
  EXPECT_EQ((q * divisor + r), dividend);
  EXPECT_LT(r.abs(), divisor.abs());
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt::from_string("99999999999999999999"),
            BigInt::from_string("100000000000000000000"));
  EXPECT_GT(BigInt::from_string("-99999999999999999999"),
            BigInt::from_string("-100000000000000000000"));
  EXPECT_EQ(BigInt(5), BigInt(5));
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(7)).to_i64(), 7);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_i64(), 0);
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ(BigInt::gcd(a * BigInt(35), a * BigInt(21)), a * BigInt(7));
}

TEST(BigInt, ExactDiv) {
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ((a * BigInt(12345)).exact_div(BigInt(12345)), a);
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt::from_string("18446744073709551616").bit_length(), 65u);
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).to_double(), -12345.0);
  EXPECT_NEAR(BigInt::from_string("1000000000000000000000").to_double(),
              1e21, 1e6);
}

// Property test: ring axioms and divmod identity hold for random values of
// mixed magnitudes, checked against the int64 reference where possible.
TEST(BigIntProperty, RandomizedAgainstI64Reference) {
  Rng rng(42);
  for (int iter = 0; iter < 2000; ++iter) {
    std::int64_t x = static_cast<std::int32_t>(rng.next());
    std::int64_t y = static_cast<std::int32_t>(rng.next());
    BigInt bx(x);
    BigInt by(y);
    EXPECT_EQ((bx + by).to_i64(), x + y);
    EXPECT_EQ((bx - by).to_i64(), x - y);
    EXPECT_EQ((bx * by).to_i64(), x * y);
    if (y != 0) {
      EXPECT_EQ((bx / by).to_i64(), x / y);
      EXPECT_EQ((bx % by).to_i64(), x % y);
    }
  }
}

TEST(BigIntProperty, DivmodIdentityLargeRandom) {
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    // Random dividends up to ~256 bits, divisors up to ~128 bits.
    BigInt dividend(static_cast<std::int64_t>(rng.next() >> 1));
    for (int k = 0; k < 3; ++k)
      dividend = dividend * BigInt(static_cast<std::int64_t>(rng.next() >> 1)) +
                 BigInt(static_cast<std::int64_t>(rng.next() >> 1));
    BigInt divisor(static_cast<std::int64_t>(rng.next() >> 1) + 1);
    divisor = divisor * BigInt(static_cast<std::int64_t>(rng.next() >> 1) + 1);
    if (rng.chance(0.5)) dividend = -dividend;
    if (rng.chance(0.5)) divisor = -divisor;

    BigInt q;
    BigInt r;
    BigInt::divmod(dividend, divisor, q, r);
    EXPECT_EQ(q * divisor + r, dividend);
    EXPECT_LT(r.abs(), divisor.abs());
    // Remainder sign follows the dividend (C semantics).
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), dividend.sign());
    }
  }
}

TEST(BigIntProperty, StringRoundTripRandom) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt v(static_cast<std::int64_t>(rng.next()));
    for (int k = 0; k < 4; ++k)
      v = v * BigInt(static_cast<std::int64_t>(rng.next() >> 3)) +
          BigInt(static_cast<std::int64_t>(rng.next() >> 3));
    EXPECT_EQ(BigInt::from_string(v.to_string()), v);
  }
}

// ---- Differential test across the int64 boundary ----
//
// Operands are drawn around every place the inline form ends (2^31, 2^32,
// 2^62, the int64 extremes, 2^63, 2^64) and from ~100-bit values.  Every
// result that fits __int128 is checked against __int128 arithmetic; the
// rest against a to_string/from_string round trip and the inverse
// operation.  fits_i64() is the inline form, so checking it against the
// reference's range checks the invariant: every value that fits int64 is
// inline, including results that come back into range.

using I128 = __int128;

constexpr I128 kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr I128 kI64Max = std::numeric_limits<std::int64_t>::max();

std::string i128_to_string(I128 value) {
  if (value == 0) return "0";
  const bool negative = value < 0;
  auto magnitude = negative ? -static_cast<unsigned __int128>(value)
                            : static_cast<unsigned __int128>(value);
  std::string digits;
  while (magnitude != 0) {
    digits.insert(digits.begin(), static_cast<char>('0' + magnitude % 10));
    magnitude /= 10;
  }
  return negative ? "-" + digits : digits;
}

BigInt from_i128(I128 value) {
  return BigInt::from_string(i128_to_string(value));
}

bool in_i64(I128 value) { return value >= kI64Min && value <= kI64Max; }

/// `actual` holds exactly `expected`, in the form the invariant asks for.
void expect_value(const BigInt& actual, I128 expected, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(actual.to_string(), i128_to_string(expected));
  EXPECT_EQ(actual.fits_i64(), in_i64(expected));
  EXPECT_EQ(actual.sign(), (expected > 0) - (expected < 0));
  EXPECT_EQ(actual.is_zero(), expected == 0);
  if (in_i64(expected)) {
    EXPECT_EQ(actual.to_i64(), static_cast<std::int64_t>(expected));
    EXPECT_EQ(actual.storage_bytes(), 0u);
  } else {
    EXPECT_THROW((void)actual.to_i64(), OverflowError);
  }
}

void expect_round_trip(const BigInt& value) {
  EXPECT_EQ(BigInt::from_string(value.to_string()), value);
  EXPECT_FALSE(value.fits_i64());
}

I128 gcd_i128(I128 a, I128 b) {
  auto x = a < 0 ? -static_cast<unsigned __int128>(a)
                 : static_cast<unsigned __int128>(a);
  auto y = b < 0 ? -static_cast<unsigned __int128>(b)
                 : static_cast<unsigned __int128>(b);
  while (y != 0) {
    const auto t = x % y;
    x = y;
    y = t;
  }
  return static_cast<I128>(x);
}

std::size_t bit_length_i128(I128 value) {
  auto magnitude = value < 0 ? -static_cast<unsigned __int128>(value)
                             : static_cast<unsigned __int128>(value);
  std::size_t bits = 0;
  for (; magnitude != 0; magnitude >>= 1) ++bits;
  return bits;
}

/// One operand from the boundary classes, with a small offset k.
I128 draw_operand(Rng& rng) {
  const I128 k = static_cast<I128>(rng.below(5));
  const I128 sign = rng.chance(0.5) ? -1 : 1;
  const I128 two31 = I128{1} << 31;
  const I128 two32 = I128{1} << 32;
  const I128 two62 = I128{1} << 62;
  const I128 two64 = I128{1} << 64;
  switch (rng.below(12)) {
    case 0: return 0;
    case 1: return sign;
    case 2: return sign * (two31 + (rng.chance(0.5) ? k : -k));
    case 3: return sign * (two32 + (rng.chance(0.5) ? k : -k));
    case 4: return sign * two62;
    case 5: return kI64Max - k;
    case 6: return kI64Min + k;
    case 7: return kI64Min;
    case 8: return I128{1} << 63;
    case 9: return sign * (two64 + (rng.chance(0.5) ? k : -k));
    case 10: {
      // ~100-bit value.
      const auto high = static_cast<I128>(rng.next() >> 28);  // 36 bits
      return sign * ((high << 64) | static_cast<I128>(rng.next()));
    }
    default:
      return static_cast<std::int64_t>(rng.next());
  }
}

TEST(BigIntBoundary, DifferentialAgainstInt128) {
  Rng rng(2023);
  for (int iter = 0; iter < 20000; ++iter) {
    const I128 x = draw_operand(rng);
    const I128 y = draw_operand(rng);
    const BigInt a = from_i128(x);
    const BigInt b = from_i128(y);
    SCOPED_TRACE(i128_to_string(x) + " , " + i128_to_string(y));
    expect_value(a, x, "from_string");
    EXPECT_EQ(a.bit_length(), bit_length_i128(x));
    EXPECT_DOUBLE_EQ(a.to_double(), static_cast<double>(x));

    // Operands stay below 2^101, so sums and differences fit __int128.
    expect_value(a + b, x + y, "+");
    expect_value(a - b, x - y, "-");
    expect_value(-a, -x, "unary -");
    expect_value(a.abs(), x < 0 ? -x : x, "abs");
    EXPECT_EQ(a == b, x == y);
    EXPECT_EQ(a != b, x != y);
    EXPECT_EQ(a <=> b, x <=> y);
    expect_value(BigInt::gcd(a, b), gcd_i128(x, y), "gcd");

    I128 product = 0;
    const BigInt ab = a * b;
    if (!__builtin_mul_overflow(x, y, &product)) {
      expect_value(ab, product, "*");
      if (y != 0) expect_value(ab.exact_div(b), x, "exact_div");
    } else {
      expect_round_trip(ab);
      EXPECT_EQ(ab / b, a);
      EXPECT_TRUE((ab % b).is_zero());
      EXPECT_EQ(ab.exact_div(a), b);
    }

    if (y == 0) {
      EXPECT_THROW(a / b, InvalidArgumentError);
      continue;
    }
    expect_value(a / b, x / y, "/");
    expect_value(a % b, x % y, "%");
    BigInt q;
    BigInt r;
    BigInt::divmod(a, b, q, r);
    expect_value(q, x / y, "divmod quotient");
    expect_value(r, x % y, "divmod remainder");
  }
}

TEST(BigIntBoundary, ResultsBackInRangeAreInline) {
  const BigInt max(INT64_MAX);
  const BigInt min(INT64_MIN);
  const BigInt past_max = max + BigInt(1);
  EXPECT_FALSE(past_max.fits_i64());
  EXPECT_GT(past_max.storage_bytes(), 0u);
  expect_value(past_max - BigInt(1), kI64Max, "(INT64_MAX + 1) - 1");
  const BigInt two64 = BigInt::from_string("18446744073709551616");
  expect_value(two64 - two64 + BigInt(5), 5, "2^64 - 2^64 + 5");
  expect_value(-past_max, kI64Min, "-(2^63)");
  expect_value(-min, -kI64Min, "-INT64_MIN");
  expect_value(min / BigInt(-1), -kI64Min, "INT64_MIN / -1");
  expect_value(min % BigInt(-1), 0, "INT64_MIN % -1");
  expect_value((min * BigInt(2)) / BigInt(2), kI64Min, "INT64_MIN * 2 / 2");
  expect_value(BigInt::gcd(min, BigInt(0)), -kI64Min, "gcd(INT64_MIN, 0)");
  expect_value(BigInt::gcd(min, min * BigInt(3)), -kI64Min, "gcd 2^63");
  expect_value(BigInt::gcd(two64 * BigInt(3), two64 * BigInt(-2) + BigInt(4)),
               4, "gcd of wide values");

  // Copies and assignments keep the value and its form.
  BigInt copy = past_max;
  EXPECT_EQ(copy, past_max);
  copy = BigInt(7);
  expect_value(copy, 7, "wide assigned inline");
  copy = two64;
  EXPECT_EQ(copy, two64);
  const BigInt& self = copy;
  copy = self;
  EXPECT_EQ(copy, two64);
  BigInt moved = std::move(copy);
  EXPECT_EQ(moved, two64);
}

// ---- Byte encoding ----
//
// serialize() writes a sign byte, a u32 limb count and the trimmed
// magnitude limbs, little-endian.  Checkpoints, spill blocks and messages
// store this form, so it must not change.

std::vector<std::uint8_t> encode(const BigInt& value) {
  std::vector<std::uint8_t> out;
  value.serialize(out);
  return out;
}

BigInt decode(const std::vector<std::uint8_t>& bytes) {
  const std::uint8_t* cursor = bytes.data();
  BigInt value = BigInt::deserialize(cursor, bytes.data() + bytes.size());
  EXPECT_EQ(cursor, bytes.data() + bytes.size());
  return value;
}

TEST(BigIntEncoding, BytesArePinned) {
  const std::vector<std::pair<BigInt, std::vector<std::uint8_t>>> cases = {
      {BigInt(0), {0, 0, 0, 0, 0}},
      {BigInt(1), {0, 1, 0, 0, 0, 1, 0, 0, 0}},
      {BigInt(-1), {1, 1, 0, 0, 0, 1, 0, 0, 0}},
      {BigInt(std::int64_t{1} << 32), {0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}},
      {BigInt(INT64_MAX),
       {0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
      {BigInt(INT64_MIN), {1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80}},
      {BigInt::from_string("18446744073709551616"),
       {0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}},
  };
  for (const auto& [value, bytes] : cases) {
    SCOPED_TRACE(value.to_string());
    EXPECT_EQ(encode(value), bytes);
    EXPECT_EQ(decode(bytes), value);
  }
}

TEST(BigIntEncoding, UntrimmedEncodingDecodesInline) {
  // -5 with three zero high limbs, and a negative zero.
  const BigInt minus_five =
      decode({1, 4, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  expect_value(minus_five, -5, "untrimmed -5");
  expect_value(decode({1, 0, 0, 0, 0}), 0, "negative zero");
  // 2^63 with a zero high limb stays wide; -2^63 fits.
  EXPECT_FALSE(decode({0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0})
                   .fits_i64());
  expect_value(decode({1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0}),
               kI64Min, "untrimmed INT64_MIN");
}

}  // namespace
}  // namespace elmo
