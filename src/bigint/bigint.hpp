// Arbitrary-precision signed integer.
//
// Two forms.  A value that fits int64_t is held inline in the object; only
// a value outside that range owns a heap block: a sign and a magnitude over
// 32-bit limbs (least significant limb first).  Invariant: every value
// that fits int64_t is inline, so tests, comparisons and arithmetic on two
// inline values are a few instructions and allocate nothing; an overflow or
// a wide operand takes the limb algorithms and the result is narrowed back.
// BigInt is the exact fallback scalar for the Nullspace Algorithm and the
// result representation: fraction-free Gaussian elimination grows
// intermediate values beyond 64 bits on networks with large stoichiometric
// coefficients (the yeast biomass reaction R70 has coefficients up to
// 40141), while almost every result entry is small.
//
// The implementation is self-contained (no GMP) because the reproduction
// environment is offline; schoolbook multiplication and Knuth Algorithm D
// division are sufficient for the value sizes arising in EFM computation
// (typically < 512 bits after gcd normalisation).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace elmo {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// Construct from a native signed integer.
  BigInt(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : small_(value) {}

  BigInt(const BigInt& other)
      : small_(other.small_),
        wide_(other.wide_ ? std::make_unique<Wide>(*other.wide_) : nullptr) {}
  BigInt(BigInt&& other) noexcept = default;
  BigInt& operator=(const BigInt& other) {
    if (other.wide_) {
      assign_parts(*other.wide_);
    } else {
      small_ = other.small_;
      wide_.reset();
    }
    return *this;
  }
  BigInt& operator=(BigInt&& other) noexcept = default;
  ~BigInt() = default;

  /// Parse a base-10 integer with optional leading '-' or '+'.
  /// Throws ParseError on malformed input.
  static BigInt from_string(std::string_view text);

  /// True iff the value is zero.
  [[nodiscard]] bool is_zero() const { return !wide_ && small_ == 0; }

  /// -1, 0 or +1.
  [[nodiscard]] int sign() const {
    if (wide_) return wide_->negative ? -1 : 1;
    return (small_ > 0) - (small_ < 0);
  }

  /// True iff the value fits in int64_t.
  [[nodiscard]] bool fits_i64() const { return !wide_; }

  /// Convert to int64_t; throws OverflowError if out of range.
  [[nodiscard]] std::int64_t to_i64() const {
    if (wide_) throw_out_of_i64();
    return small_;
  }

  /// Closest double (may lose precision for large magnitudes).
  [[nodiscard]] double to_double() const;

  /// Base-10 representation.
  [[nodiscard]] std::string to_string() const;

  /// Number of significant bits of the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  /// Heap bytes owned by the wide form (memory accounting); 0 inline.
  [[nodiscard]] std::size_t storage_bytes() const {
    return wide_ ? sizeof(Wide) +
                       wide_->limbs.capacity() * sizeof(std::uint32_t)
                 : 0;
  }

  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;

  BigInt& operator+=(const BigInt& rhs) {
    std::int64_t sum = 0;
    if (!wide_ && !rhs.wide_ &&
        !__builtin_add_overflow(small_, rhs.small_, &sum)) {
      small_ = sum;
      return *this;
    }
    return add_wide(rhs, false);
  }
  BigInt& operator-=(const BigInt& rhs) {
    std::int64_t diff = 0;
    if (!wide_ && !rhs.wide_ &&
        !__builtin_sub_overflow(small_, rhs.small_, &diff)) {
      small_ = diff;
      return *this;
    }
    return add_wide(rhs, true);
  }
  BigInt& operator*=(const BigInt& rhs) {
    std::int64_t product = 0;
    if (!wide_ && !rhs.wide_ &&
        !__builtin_mul_overflow(small_, rhs.small_, &product)) {
      small_ = product;
      return *this;
    }
    return mul_wide(rhs);
  }
  /// Truncated division (C semantics: quotient rounds toward zero).
  BigInt& operator/=(const BigInt& rhs);
  /// Remainder with the sign of the dividend (C semantics).
  BigInt& operator%=(const BigInt& rhs);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) {
    lhs *= rhs;
    return lhs;
  }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) {
    lhs /= rhs;
    return lhs;
  }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) {
    lhs %= rhs;
    return lhs;
  }

  /// Quotient and remainder in one pass; remainder has the dividend's sign.
  /// Throws InvalidArgumentError on division by zero.
  static void divmod(const BigInt& dividend, const BigInt& divisor,
                     BigInt& quotient, BigInt& remainder);

  friend bool operator==(const BigInt& lhs, const BigInt& rhs) {
    if (!lhs.wide_ || !rhs.wide_)
      return !lhs.wide_ && !rhs.wide_ && lhs.small_ == rhs.small_;
    return lhs.wide_->negative == rhs.wide_->negative &&
           lhs.wide_->limbs == rhs.wide_->limbs;
  }
  friend std::strong_ordering operator<=>(const BigInt& lhs,
                                          const BigInt& rhs) {
    if (!lhs.wide_ && !rhs.wide_) return lhs.small_ <=> rhs.small_;
    return compare_wide(lhs, rhs);
  }

  /// Greatest common divisor of |a| and |b|; gcd(0, 0) == 0.
  static BigInt gcd(const BigInt& a, const BigInt& b);

  /// Divide exactly, asserting there is no remainder (debug builds).
  /// Used by fraction-free elimination where divisibility is guaranteed.
  [[nodiscard]] BigInt exact_div(const BigInt& divisor) const;

  /// Append a length-prefixed little-endian encoding to `out`
  /// (message-passing serialisation): a sign byte, a u32 limb count and
  /// the trimmed magnitude limbs, least significant first.
  void serialize(std::vector<std::uint8_t>& out) const;

  /// Inverse of serialize(); advances `cursor`.  Throws ParseError on a
  /// truncated or malformed buffer.
  static BigInt deserialize(const std::uint8_t*& cursor,
                            const std::uint8_t* end);

 private:
  /// A value outside int64_t: sign and trimmed magnitude limbs.  Also the
  /// operand form of the limb algorithms, where it may hold any value.
  struct Wide {
    std::vector<std::uint32_t> limbs;
    bool negative = false;
  };

  /// The value as sign and magnitude limbs: the wide form itself, or
  /// `scratch` filled from the inline value.
  const Wide& parts(Wide& scratch) const;
  /// Trim `parts` and store it in whichever form the invariant asks for
  /// (reusing this value's wide block if it has one).
  void assign_parts(Wide parts);
  static BigInt from_parts(Wide parts);
  /// The value ±magnitude, inline when it fits.
  static BigInt from_magnitude(std::uint64_t magnitude, bool negative);
  BigInt& add_wide(const BigInt& rhs, bool subtract);
  BigInt& mul_wide(const BigInt& rhs);
  static std::strong_ordering compare_wide(const BigInt& lhs,
                                           const BigInt& rhs);
  [[noreturn]] static void throw_out_of_i64();

  // The value while wide_ is null; 0 while it is set.
  std::int64_t small_ = 0;
  std::unique_ptr<Wide> wide_;
};

static_assert(sizeof(BigInt) == 16, "BigInt is an int64 and one pointer");

inline BigInt abs(const BigInt& value) { return value.abs(); }

}  // namespace elmo
