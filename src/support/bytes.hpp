// The byte codec under every format elmo writes: mpsim messages, spill
// blocks and checkpoint files.
//
// Integers are little-endian.  Every get_* advances `cursor` and throws
// ParseError rather than read past `end`, so a decoder built from these
// never touches memory beyond its input.  A checksummed frame is
//
//   [u64 body_size][body][u32 crc32(body)]
//
// and a message is a body with only the CRC tail.  The CRC is CRC-32
// (IEEE 802.3, reflected polynomial 0xEDB88320).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace elmo {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

namespace detail {
template <typename T>
T get_le(const std::uint8_t*& cursor, const std::uint8_t* end) {
  if (end - cursor < static_cast<std::ptrdiff_t>(sizeof(T)))
    throw ParseError("byte codec: input ends inside a value");
  T v = 0;
  for (std::size_t b = 0; b < sizeof(T); ++b)
    v |= static_cast<T>(static_cast<T>(cursor[b]) << (8 * b));
  cursor += sizeof(T);
  return v;
}
}  // namespace detail

inline std::uint8_t get_u8(const std::uint8_t*& cursor,
                           const std::uint8_t* end) {
  return detail::get_le<std::uint8_t>(cursor, end);
}
inline std::uint32_t get_u32(const std::uint8_t*& cursor,
                             const std::uint8_t* end) {
  return detail::get_le<std::uint32_t>(cursor, end);
}
inline std::uint64_t get_u64(const std::uint8_t*& cursor,
                             const std::uint8_t* end) {
  return detail::get_le<std::uint64_t>(cursor, end);
}
inline double get_f64(const std::uint8_t*& cursor, const std::uint8_t* end) {
  const std::uint64_t bits = get_u64(cursor, end);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// `count`, a count just read from the input, as a size: throws ParseError
/// unless the bytes left in [cursor, end) can hold `count` items of at
/// least `min_bytes` each.  Check every count before reserving for it: a
/// crafted count must not allocate beyond the input or make reserve()
/// throw std::length_error.
inline std::size_t bounded_count(std::uint64_t count,
                                 const std::uint8_t* cursor,
                                 const std::uint8_t* end,
                                 std::size_t min_bytes) {
  if (count > static_cast<std::uint64_t>(end - cursor) / min_bytes)
    throw ParseError("byte codec: count exceeds the bytes left");
  return static_cast<std::size_t>(count);
}

/// CRC-32 of `size` bytes.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

/// Throws CorruptPayloadError unless the 4 bytes after the `size` body
/// bytes at `body` hold crc32 of the body.  The caller has checked that
/// those bytes exist.
inline void check_crc_tail(const std::uint8_t* body, std::size_t size) {
  const std::uint8_t* tail = body + size;
  const std::uint32_t stored = get_u32(tail, tail + 4);
  const std::uint32_t actual = crc32(body, size);
  if (stored != actual)
    throw CorruptPayloadError("byte codec: CRC-32 mismatch", stored, actual);
}

/// Append one frame holding `body`.
inline void put_frame(std::vector<std::uint8_t>& out,
                      std::span<const std::uint8_t> body) {
  put_u64(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
  put_u32(out, crc32(body.data(), body.size()));
}

/// The body size a frame header declares, checked against the `left`
/// bytes that follow the header.  Throws ParseError unless the body and
/// its CRC fit; compares without forming size + 4, which a crafted size
/// wraps.
inline std::size_t frame_body_size(std::uint64_t size, std::uint64_t left) {
  if (left < 4 || size > left - 4)
    throw ParseError("byte codec: frame runs past the end of its input");
  return static_cast<std::size_t>(size);
}

/// Read and check the frame at `cursor`; returns its body and advances
/// past the CRC.  Throws ParseError for a frame that does not fit in
/// [cursor, end), CorruptPayloadError for a CRC mismatch.
inline std::span<const std::uint8_t> get_frame(const std::uint8_t*& cursor,
                                               const std::uint8_t* end) {
  const std::uint64_t declared = get_u64(cursor, end);
  const std::size_t size = frame_body_size(
      declared, static_cast<std::uint64_t>(end - cursor));
  check_crc_tail(cursor, size);
  const std::span<const std::uint8_t> body(cursor, size);
  cursor += size + 4;
  return body;
}

}  // namespace elmo
