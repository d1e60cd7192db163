#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <span>

#include "bigint/bigint.hpp"
#include "bigint/scalar.hpp"
#include "obs/obs.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace elmo {

namespace {

constexpr char kMagic[8] = {'E', 'L', 'M', 'O', 'C', 'K', 'P', '1'};

std::vector<std::uint8_t> encode_record(const CheckpointRecord& record) {
  std::vector<std::uint8_t> body;
  put_u64(body, record.pattern.size());
  for (const auto& [row, nonzero] : record.pattern) {
    put_u64(body, row);
    put_u8(body, nonzero ? 1 : 0);
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

/// Every count is bounded by the bytes left before it is reserved for: 9
/// per pattern entry, 8 per mode, kMinScalarBytes per BigInt.
CheckpointRecord decode_record(std::span<const std::uint8_t> body) {
  const std::uint8_t* cursor = body.data();
  const std::uint8_t* end = cursor + body.size();
  CheckpointRecord record;
  const std::uint64_t pattern_count = get_u64(cursor, end);
  record.pattern.reserve(bounded_count(pattern_count, cursor, end, 9));
  for (std::uint64_t i = 0; i < pattern_count; ++i) {
    const std::uint64_t row = get_u64(cursor, end);
    record.pattern.emplace_back(row, get_u8(cursor, end) != 0);
  }
  record.candidate_pairs = get_u64(cursor, end);
  record.seconds = get_f64(cursor, end);
  record.extra_splits = get_u64(cursor, end);
  record.attempts = get_u64(cursor, end);
  const std::uint64_t mode_count = get_u64(cursor, end);
  record.modes.reserve(bounded_count(mode_count, cursor, end, 8));
  for (std::uint64_t m = 0; m < mode_count; ++m) {
    const std::uint64_t length = get_u64(cursor, end);
    std::vector<BigInt> mode;
    mode.reserve(bounded_count(length, cursor, end, kMinScalarBytes));
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

  std::vector<std::uint8_t> frame;
  put_frame(frame, encode_record(record));
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
  const std::uint8_t* cursor = bytes.data() + sizeof kMagic;
  const std::uint8_t* end = bytes.data() + bytes.size();
  valid_end = sizeof kMagic;
  while (cursor != end) {
    try {
      records.push_back(decode_record(get_frame(cursor, end)));
    } catch (const ParseError&) {
      // A frame cut short, a CRC mismatch, or a CRC that collided with
      // garbage the decoder rejects: the interrupted tail.  Keep what we
      // have.
      break;
    }
    valid_end = static_cast<std::size_t>(cursor - bytes.data());
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
