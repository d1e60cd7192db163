#include "bigint/bigint.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <limits>
#include <numeric>

#include "support/assert.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace elmo {

namespace {

using Limbs = std::vector<std::uint32_t>;

constexpr std::uint64_t kBase = 1ULL << 32;
constexpr std::uint64_t kMinMagnitude = 1ULL << 63;  // |INT64_MIN|

/// |value| without the undefined negation of INT64_MIN.
std::uint64_t magnitude_of(std::int64_t value) {
  return value < 0 ? ~static_cast<std::uint64_t>(value) + 1
                   : static_cast<std::uint64_t>(value);
}

/// True iff ±magnitude fits int64.
bool fits_inline(std::uint64_t magnitude, bool negative) {
  return magnitude < kMinMagnitude || (negative && magnitude == kMinMagnitude);
}

/// ±magnitude as an int64; requires fits_inline(magnitude, negative).
std::int64_t signed_value(std::uint64_t magnitude, bool negative) {
  return static_cast<std::int64_t>(negative ? ~magnitude + 1 : magnitude);
}

/// The quotient of two inline values stays inline except INT64_MIN / -1.
bool divides_inline(std::int64_t dividend, std::int64_t divisor) {
  return divisor != 0 &&
         !(divisor == -1 &&
           dividend == std::numeric_limits<std::int64_t>::min());
}

int compare_magnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void add_magnitude(Limbs& acc, const Limbs& rhs) {
  if (acc.size() < rhs.size()) acc.resize(rhs.size(), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::uint64_t sum = static_cast<std::uint64_t>(acc[i]) + carry;
    if (i < rhs.size()) sum += rhs[i];
    acc[i] = static_cast<std::uint32_t>(sum & 0xffffffffULL);
    carry = sum >> 32;
    if (carry == 0 && i >= rhs.size()) return;
  }
  if (carry) acc.push_back(static_cast<std::uint32_t>(carry));
}

/// acc -= rhs, requires |acc| >= |rhs|.
void sub_magnitude(Limbs& acc, const Limbs& rhs) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(acc[i]) - borrow;
    if (i < rhs.size()) diff -= rhs[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    acc[i] = static_cast<std::uint32_t>(diff);
    if (borrow == 0 && i >= rhs.size()) break;
  }
  ELMO_DCHECK(borrow == 0, "sub_magnitude requires |acc| >= |rhs|");
  while (!acc.empty() && acc.back() == 0) acc.pop_back();
}

Limbs mul_magnitude(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> product(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t value =
          static_cast<std::uint64_t>(product[i + j]) + ai * b[j] + carry;
      product[i + j] = static_cast<std::uint32_t>(value & 0xffffffffULL);
      carry = value >> 32;
    }
    product[i + b.size()] = static_cast<std::uint32_t>(carry);
  }
  while (!product.empty() && product.back() == 0) product.pop_back();
  return product;
}

/// Knuth Algorithm D on magnitudes; quotient/remainder are outputs.
void divmod_magnitude(const Limbs& dividend, const Limbs& divisor,
                      Limbs& quotient, Limbs& remainder) {
  quotient.clear();
  remainder.clear();
  if (compare_magnitude(dividend, divisor) < 0) {
    remainder = dividend;
    return;
  }
  if (divisor.size() == 1) {
    // Single-limb fast path.
    quotient.resize(dividend.size());
    std::uint64_t rem = 0;
    std::uint64_t d = divisor[0];
    for (std::size_t i = dividend.size(); i-- > 0;) {
      std::uint64_t value = (rem << 32) | dividend[i];
      quotient[i] = static_cast<std::uint32_t>(value / d);
      rem = value % d;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    if (rem) remainder.push_back(static_cast<std::uint32_t>(rem));
    return;
  }

  // Knuth TAOCP vol 2, Algorithm D.  Normalise so the divisor's top limb
  // has its high bit set.
  const std::size_t n = divisor.size();
  const std::size_t m = dividend.size() - n;
  int shift = 0;
  for (std::uint32_t top = divisor.back(); (top & 0x80000000U) == 0;
       top <<= 1) {
    ++shift;
  }

  auto shifted_left = [shift](const std::vector<std::uint32_t>& src,
                              bool extra_limb) {
    std::vector<std::uint32_t> out(src.size() + (extra_limb ? 1 : 0), 0);
    if (shift == 0) {
      std::copy(src.begin(), src.end(), out.begin());
      return out;
    }
    std::uint32_t carry = 0;
    for (std::size_t i = 0; i < src.size(); ++i) {
      out[i] = (src[i] << shift) | carry;
      carry = static_cast<std::uint32_t>(src[i] >> (32 - shift));
    }
    if (extra_limb)
      out[src.size()] = carry;
    else
      ELMO_DCHECK(carry == 0, "divisor normalisation overflow");
    return out;
  };

  std::vector<std::uint32_t> u = shifted_left(dividend, true);  // n + m + 1
  std::vector<std::uint32_t> v = shifted_left(divisor, false);  // n

  quotient.assign(m + 1, 0);
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_second = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v_top, then refine.
    std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v_top;
    std::uint64_t r_hat = numerator % v_top;
    while (q_hat >= kBase ||
           q_hat * v_second > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kBase) break;
    }
    // Multiply-subtract: u[j..j+n] -= q_hat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                          static_cast<std::int64_t>(product & 0xffffffffULL) -
                          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) -
                            static_cast<std::int64_t>(carry) - borrow;
    if (top_diff < 0) {
      // q_hat was one too large: add back.
      top_diff += static_cast<std::int64_t>(kBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffULL);
        add_carry = sum >> 32;
      }
      top_diff += static_cast<std::int64_t>(add_carry);
      top_diff &= 0xffffffffLL;
    }
    u[j + n] = static_cast<std::uint32_t>(top_diff);
    quotient[j] = static_cast<std::uint32_t>(q_hat);
  }

  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();

  // Denormalise the remainder (shift right).
  remainder.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  if (shift) {
    std::uint32_t carry = 0;
    for (std::size_t i = remainder.size(); i-- > 0;) {
      std::uint32_t value = remainder[i];
      remainder[i] = (value >> shift) | carry;
      carry = static_cast<std::uint32_t>(value << (32 - shift));
    }
  }
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

}  // namespace

const BigInt::Wide& BigInt::parts(Wide& scratch) const {
  if (wide_) return *wide_;
  const std::uint64_t magnitude = magnitude_of(small_);
  scratch.negative = small_ < 0;
  scratch.limbs.clear();
  if (magnitude != 0)
    scratch.limbs.push_back(
        static_cast<std::uint32_t>(magnitude & 0xffffffffULL));
  if (magnitude >> 32)
    scratch.limbs.push_back(static_cast<std::uint32_t>(magnitude >> 32));
  return scratch;
}

void BigInt::assign_parts(Wide parts) {
  Limbs& limbs = parts.limbs;
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  if (limbs.size() <= 2) {
    std::uint64_t magnitude = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() == 2)
      magnitude |= static_cast<std::uint64_t>(limbs[1]) << 32;
    if (fits_inline(magnitude, parts.negative)) {
      small_ = signed_value(magnitude, parts.negative);
      wide_.reset();
      return;
    }
  }
  small_ = 0;
  if (wide_)
    *wide_ = std::move(parts);
  else
    wide_ = std::make_unique<Wide>(std::move(parts));
}

BigInt BigInt::from_parts(Wide parts) {
  BigInt result;
  result.assign_parts(std::move(parts));
  return result;
}

BigInt BigInt::from_magnitude(std::uint64_t magnitude, bool negative) {
  if (fits_inline(magnitude, negative))
    return BigInt(signed_value(magnitude, negative));
  return from_parts(
      Wide{{static_cast<std::uint32_t>(magnitude & 0xffffffffULL),
            static_cast<std::uint32_t>(magnitude >> 32)},
           negative});
}

void BigInt::throw_out_of_i64() {
  throw OverflowError("BigInt::to_i64: value exceeds int64 range");
}

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw ParseError("BigInt: empty string");
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) throw ParseError("BigInt: sign without digits");
  Wide parts;
  parts.negative = negative;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9')
      throw ParseError("BigInt: invalid digit in '" + std::string(text) + "'");
    // magnitude = magnitude * 10 + digit, done limb-wise to stay O(n) per
    // digit.
    std::uint64_t carry = static_cast<std::uint64_t>(c - '0');
    for (auto& limb : parts.limbs) {
      std::uint64_t v = static_cast<std::uint64_t>(limb) * 10 + carry;
      limb = static_cast<std::uint32_t>(v & 0xffffffffULL);
      carry = v >> 32;
    }
    if (carry) parts.limbs.push_back(static_cast<std::uint32_t>(carry));
  }
  return from_parts(std::move(parts));
}

double BigInt::to_double() const {
  if (!wide_) return static_cast<double>(small_);
  double value = 0.0;
  for (auto it = wide_->limbs.rbegin(); it != wide_->limbs.rend(); ++it) {
    value = value * static_cast<double>(kBase) + static_cast<double>(*it);
  }
  return wide_->negative ? -value : value;
}

std::string BigInt::to_string() const {
  if (!wide_) {
    char buffer[24];
    const auto end = std::to_chars(buffer, buffer + sizeof buffer, small_).ptr;
    return std::string(buffer, end);
  }
  // Repeatedly divide the magnitude by 10^9 and emit 9-digit chunks.
  Limbs magnitude = wide_->limbs;
  std::string digits;
  while (!magnitude.empty()) {
    std::uint64_t remainder = 0;
    for (std::size_t i = magnitude.size(); i-- > 0;) {
      std::uint64_t value = (remainder << 32) | magnitude[i];
      magnitude[i] = static_cast<std::uint32_t>(value / 1000000000ULL);
      remainder = value % 1000000000ULL;
    }
    while (!magnitude.empty() && magnitude.back() == 0) magnitude.pop_back();
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (wide_->negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::size_t BigInt::bit_length() const {
  if (!wide_) return std::bit_width(magnitude_of(small_));
  return (wide_->limbs.size() - 1) * 32 + std::bit_width(wide_->limbs.back());
}

BigInt BigInt::operator-() const {
  if (!wide_) return from_magnitude(magnitude_of(small_), small_ > 0);
  Wide negated = *wide_;
  negated.negative = !negated.negative;
  return from_parts(std::move(negated));
}

BigInt BigInt::abs() const {
  if (!wide_) return from_magnitude(magnitude_of(small_), false);
  Wide magnitude = *wide_;
  magnitude.negative = false;
  return from_parts(std::move(magnitude));
}

BigInt& BigInt::add_wide(const BigInt& rhs, bool subtract) {
  Wide lhs_scratch;
  Wide rhs_scratch;
  Wide acc = parts(lhs_scratch);
  const Wide& other = rhs.parts(rhs_scratch);
  const bool other_negative = other.negative != subtract;
  if (acc.negative == other_negative) {
    add_magnitude(acc.limbs, other.limbs);
  } else if (compare_magnitude(acc.limbs, other.limbs) >= 0) {
    sub_magnitude(acc.limbs, other.limbs);
  } else {
    Limbs difference = other.limbs;
    sub_magnitude(difference, acc.limbs);
    acc = Wide{std::move(difference), other_negative};
  }
  assign_parts(std::move(acc));
  return *this;
}

BigInt& BigInt::mul_wide(const BigInt& rhs) {
  Wide lhs_scratch;
  Wide rhs_scratch;
  const Wide& a = parts(lhs_scratch);
  const Wide& b = rhs.parts(rhs_scratch);
  assign_parts(
      Wide{mul_magnitude(a.limbs, b.limbs), a.negative != b.negative});
  return *this;
}

void BigInt::divmod(const BigInt& dividend, const BigInt& divisor,
                    BigInt& quotient, BigInt& remainder) {
  if (divisor.is_zero())
    throw InvalidArgumentError("BigInt: division by zero");
  if (!dividend.wide_ && !divisor.wide_ &&
      divides_inline(dividend.small_, divisor.small_)) {
    const std::int64_t q = dividend.small_ / divisor.small_;
    const std::int64_t r = dividend.small_ % divisor.small_;
    quotient = q;
    remainder = r;
    return;
  }
  Wide dividend_scratch;
  Wide divisor_scratch;
  const Wide& a = dividend.parts(dividend_scratch);
  const Wide& b = divisor.parts(divisor_scratch);
  Wide q{{}, a.negative != b.negative};
  Wide r{{}, a.negative};
  divmod_magnitude(a.limbs, b.limbs, q.limbs, r.limbs);
  quotient.assign_parts(std::move(q));
  remainder.assign_parts(std::move(r));
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  if (!wide_ && !rhs.wide_ && divides_inline(small_, rhs.small_)) {
    small_ /= rhs.small_;
    return *this;
  }
  BigInt quotient;
  BigInt remainder;
  divmod(*this, rhs, quotient, remainder);
  *this = std::move(quotient);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  if (!wide_ && !rhs.wide_ && divides_inline(small_, rhs.small_)) {
    small_ %= rhs.small_;
    return *this;
  }
  BigInt quotient;
  BigInt remainder;
  divmod(*this, rhs, quotient, remainder);
  *this = std::move(remainder);
  return *this;
}

std::strong_ordering BigInt::compare_wide(const BigInt& lhs,
                                          const BigInt& rhs) {
  // A wide value lies outside int64, so beyond every inline value on the
  // side of its sign.
  if (!rhs.wide_)
    return lhs.wide_->negative ? std::strong_ordering::less
                               : std::strong_ordering::greater;
  if (!lhs.wide_)
    return rhs.wide_->negative ? std::strong_ordering::greater
                               : std::strong_ordering::less;
  if (lhs.wide_->negative != rhs.wide_->negative) {
    return lhs.wide_->negative ? std::strong_ordering::less
                               : std::strong_ordering::greater;
  }
  int cmp = compare_magnitude(lhs.wide_->limbs, rhs.wide_->limbs);
  if (lhs.wide_->negative) cmp = -cmp;
  return cmp <=> 0;
}

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  if (!a.wide_ && !b.wide_)
    return from_magnitude(std::gcd(magnitude_of(a.small_),
                                   magnitude_of(b.small_)),
                          false);
  BigInt x = a.abs();
  BigInt y = b.abs();
  while (!y.is_zero()) {
    BigInt quotient;
    BigInt remainder;
    divmod(x, y, quotient, remainder);
    x = std::move(y);
    y = std::move(remainder);
  }
  return x;
}

void BigInt::serialize(std::vector<std::uint8_t>& out) const {
  // Header byte: bit 0 = negative; remaining bits unused.  Then a 32-bit
  // limb count and the limbs, least significant first.
  if (wide_) {
    put_u8(out, wide_->negative ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(wide_->limbs.size()));
    for (std::uint32_t limb : wide_->limbs) put_u32(out, limb);
    return;
  }
  const std::uint64_t magnitude = magnitude_of(small_);
  const std::uint32_t count = magnitude == 0 ? 0 : (magnitude >> 32 ? 2 : 1);
  put_u8(out, small_ < 0 ? 1 : 0);
  put_u32(out, count);
  if (count >= 1)
    put_u32(out, static_cast<std::uint32_t>(magnitude & 0xffffffffULL));
  if (count == 2) put_u32(out, static_cast<std::uint32_t>(magnitude >> 32));
}

BigInt BigInt::deserialize(const std::uint8_t*& cursor,
                           const std::uint8_t* end) {
  const bool negative = (get_u8(cursor, end) & 1) != 0;
  const std::uint32_t count = get_u32(cursor, end);
  if (count <= 2) {
    std::uint64_t magnitude = 0;
    for (std::uint32_t i = 0; i < count; ++i)
      magnitude |= static_cast<std::uint64_t>(get_u32(cursor, end)) << (32 * i);
    return from_magnitude(magnitude, negative);
  }
  Wide parts;
  parts.negative = negative;
  parts.limbs.reserve(bounded_count(count, cursor, end, 4));
  for (std::uint32_t i = 0; i < count; ++i)
    parts.limbs.push_back(get_u32(cursor, end));
  return from_parts(std::move(parts));
}

BigInt BigInt::exact_div(const BigInt& divisor) const {
  if (!wide_ && !divisor.wide_ && divides_inline(small_, divisor.small_)) {
    ELMO_DCHECK(small_ % divisor.small_ == 0,
                "exact_div: division was not exact");
    return BigInt(small_ / divisor.small_);
  }
  BigInt quotient;
  BigInt remainder;
  divmod(*this, divisor, quotient, remainder);
  ELMO_DCHECK(remainder.is_zero(), "exact_div: division was not exact");
  return quotient;
}

}  // namespace elmo
