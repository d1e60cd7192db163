#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "bigint/bigint.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace elmo {

namespace {

constexpr char kMagic[8] = {'E', 'L', 'M', 'O', 'C', 'K', 'P', '1'};

using mpsim::Payload;
using mpsim::detail::get_u64;
using mpsim::detail::put_u64;

void put_f64(Payload& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

double get_f64(const std::uint8_t*& cursor, const std::uint8_t* end) {
  const std::uint64_t bits = get_u64(cursor, end);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Payload encode_record(const CheckpointRecord& record) {
  Payload body;
  put_u64(body, record.pattern.size());
  for (const auto& [row, nonzero] : record.pattern) {
    put_u64(body, row);
    body.push_back(nonzero ? 1 : 0);
  }
  put_u64(body, record.candidate_pairs);
  put_f64(body, record.seconds);
  put_u64(body, record.extra_splits);
  put_u64(body, record.attempts);
  put_u64(body, record.modes.size());
  for (const auto& mode : record.modes) {
    put_u64(body, mode.size());
    for (const auto& value : mode) value.serialize(body);
  }
  return body;
}

/// A count read from a record, capped by how many items of at least
/// `min_bytes` each the rest of the body can hold (9 per pattern entry, 8
/// per mode, 5 per BigInt): a crafted count must not make reserve() throw
/// or allocate beyond the file.
std::size_t reserve_bound(std::uint64_t count, const std::uint8_t* cursor,
                          const std::uint8_t* end, std::size_t min_bytes) {
  const auto fit = static_cast<std::uint64_t>(end - cursor) / min_bytes;
  return static_cast<std::size_t>(std::min(count, fit));
}

CheckpointRecord decode_record(const std::uint8_t* cursor,
                               const std::uint8_t* end) {
  CheckpointRecord record;
  const std::uint64_t pattern_count = get_u64(cursor, end);
  record.pattern.reserve(reserve_bound(pattern_count, cursor, end, 9));
  for (std::uint64_t i = 0; i < pattern_count; ++i) {
    const std::uint64_t row = get_u64(cursor, end);
    if (cursor == end) throw ParseError("checkpoint: truncated pattern");
    record.pattern.emplace_back(row, *cursor++ != 0);
  }
  record.candidate_pairs = get_u64(cursor, end);
  record.seconds = get_f64(cursor, end);
  record.extra_splits = get_u64(cursor, end);
  record.attempts = get_u64(cursor, end);
  const std::uint64_t mode_count = get_u64(cursor, end);
  record.modes.reserve(reserve_bound(mode_count, cursor, end, 8));
  for (std::uint64_t m = 0; m < mode_count; ++m) {
    const std::uint64_t length = get_u64(cursor, end);
    std::vector<BigInt> mode;
    mode.reserve(reserve_bound(length, cursor, end, 5));
    for (std::uint64_t v = 0; v < length; ++v)
      mode.push_back(BigInt::deserialize(cursor, end));
    record.modes.push_back(std::move(mode));
  }
  if (cursor != end)
    throw ParseError("checkpoint: trailing bytes in record body");
  return record;
}

}  // namespace

void append_checkpoint_record(const std::string& path,
                              const CheckpointRecord& record) {
  obs::TraceSpan span("checkpoint write", "checkpoint");
  static const obs::Counter writes =
      obs::Registry::global().counter("checkpoint.records_written");
  writes.add(1);
  bool needs_header = true;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    needs_header = !probe || probe.tellg() == std::streampos(0);
  }
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out)
    throw InvalidArgumentError("checkpoint: cannot open for append: " + path);
  if (needs_header) out.write(kMagic, sizeof kMagic);

  const Payload body = encode_record(record);
  Payload frame;
  put_u64(frame, body.size());
  frame.insert(frame.end(), body.begin(), body.end());
  const std::uint32_t crc = mpsim::crc32(body);
  for (int b = 0; b < 4; ++b)
    frame.push_back(static_cast<std::uint8_t>(crc >> (8 * b)));
  // Byte-for-byte frame write; uint8_t -> char is always representable.
  // lint:allow(reinterpret-cast)
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out)
    throw InvalidArgumentError("checkpoint: short write to " + path);
}

namespace {

/// Parse every complete frame of an in-memory checkpoint image.  On return
/// `valid_end` is the byte offset just past the last intact frame — bytes
/// beyond it are the interrupted/damaged tail.
std::vector<CheckpointRecord> parse_checkpoint(
    const std::vector<std::uint8_t>& bytes, const std::string& path,
    std::size_t& valid_end) {
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw ParseError("checkpoint: " + path + " is not a checkpoint file");
  }

  std::vector<CheckpointRecord> records;
  std::size_t offset = sizeof kMagic;
  valid_end = offset;
  while (offset < bytes.size()) {
    // Each frame is [u64 size][body][u32 crc]; any shortfall or CRC
    // mismatch marks the interrupted tail — stop and keep what we have.
    if (bytes.size() - offset < 8) break;
    std::uint64_t body_size = 0;
    for (int b = 0; b < 8; ++b)
      body_size |= static_cast<std::uint64_t>(bytes[offset + static_cast<std::size_t>(b)])
                   << (8 * b);
    offset += 8;
    // Compare without forming body_size + 4, which a crafted size wraps.
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < 4 || body_size > remaining - 4) break;
    const std::uint8_t* body = bytes.data() + offset;
    std::uint32_t stored = 0;
    for (int b = 0; b < 4; ++b)
      stored |= static_cast<std::uint32_t>(
                    bytes[offset + body_size + static_cast<std::size_t>(b)])
                << (8 * b);
    if (mpsim::crc32(body, body_size) != stored) break;
    try {
      records.push_back(decode_record(body, body + body_size));
    } catch (const ParseError&) {
      break;  // CRC collided with garbage; treat as tail damage
    }
    offset += body_size + 4;
    valid_end = offset;
  }
  return records;
}

}  // namespace

std::vector<CheckpointRecord> load_checkpoint(const std::string& path) {
  obs::TraceSpan span("checkpoint load", "checkpoint");
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (bytes.empty()) return {};
  std::size_t valid_end = 0;
  return parse_checkpoint(bytes, path, valid_end);
}

std::size_t repair_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  if (bytes.empty()) return 0;
  std::size_t valid_end = 0;
  parse_checkpoint(bytes, path, valid_end);
  const std::size_t damaged = bytes.size() - valid_end;
  if (damaged == 0) return 0;
  static const obs::Counter repairs =
      obs::Registry::global().counter("checkpoint.tail_bytes_trimmed");
  repairs.add(static_cast<std::uint64_t>(damaged));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw InvalidArgumentError("checkpoint: cannot rewrite " + path);
  // lint:allow(reinterpret-cast)
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(valid_end));
  out.flush();
  if (!out) throw InvalidArgumentError("checkpoint: short write to " + path);
  return damaged;
}

}  // namespace elmo
