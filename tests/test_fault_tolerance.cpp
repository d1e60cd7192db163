// End-to-end fault tolerance: per-subset retry in the Algorithm-3 driver,
// the cost model behind deadline scaling, subset checkpoint/restart, and
// the paper's Network-II memory story replayed under failure injection
// (budgeted Algorithm 2 dies; Algorithm 3 with adaptive re-splits and a
// retry policy completes and matches the serial result exactly).
#include "core/api.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bitset/bitset64.hpp"
#include "compress/compression.hpp"
#include "core/checkpoint.hpp"
#include "core/combined.hpp"
#include "efm_test_util.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "mpsim/fault.hpp"
#include "nullspace/efm.hpp"
#include "support/bytes.hpp"

namespace elmo {
namespace {

/// Unique scratch path inside gtest's temp dir, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_(::testing::TempDir() + "elmo_" + name) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Yeast Network I with the same knockouts the hybrid tests use, small
/// enough for exhaustive checks but big enough for real retry traffic.
Network trimmed_yeast_1() {
  Network net = models::yeast_network_1();
  std::vector<ReactionId> trim;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100",
                           "R77", "R101", "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  return net.without_reactions(trim);
}

/// Yeast Network II (Network I plus reversible R54r/R60r/R63r and modified
/// R62 — the paper's Table IV configuration) with the same trim applied.
Network trimmed_yeast_2() {
  Network net = models::yeast_network_2();
  std::vector<ReactionId> trim;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100",
                           "R77", "R101", "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  return net.without_reactions(trim);
}

EfmOptions toy_combined_options() {
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.partition_reactions = {"r6r", "r8r"};
  return options;
}

// ---------------------------------------------------------------------------
// Retry policy.

TEST(FaultTolerance, RankCrashMidRunIsRetried) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  // Four subsets on two ranks run as one-rank groups: every world's only
  // rank is rank 0.
  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->crash_rank(0, /*at_op=*/3, /*times=*/1);
  options.retry.max_attempts = 2;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_EQ(result.total_retries, 1u);
  EXPECT_EQ(options.fault_plan->totals().crashes, 1u);
  // The doomed subset reports both attempts; the rest ran clean.
  std::size_t retried = 0;
  for (const auto& subset : result.subsets) {
    if (subset.attempts == 2) ++retried;
  }
  EXPECT_EQ(retried, 1u);
}

TEST(FaultTolerance, CorruptedPayloadIsRetried) {
  // Two subsets on four ranks: each group has two ranks, so the exchange
  // carries payloads to corrupt.
  Network net = models::toy_network();
  auto clean = toy_combined_options();
  clean.num_ranks = 4;
  clean.partition_reactions = {"r8r"};
  auto baseline = compute_efms(net, clean);

  auto options = clean;
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->corrupt_payload(0, /*nth_payload=*/0);
  options.retry.max_attempts = 3;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_GE(result.total_retries, 1u);
  EXPECT_EQ(options.fault_plan->totals().corruptions, 1u);
}

TEST(FaultTolerance, RetryExhaustionCarriesSubsetContext) {
  Network net = models::toy_network();
  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  // Re-arms on every attempt: the subset can never succeed.
  options.fault_plan->crash_rank(0, 0, /*times=*/1000);
  options.retry.max_attempts = 2;
  try {
    compute_efms(net, options);
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    EXPECT_EQ(e.attempts, 2);
    EXPECT_FALSE(e.subset_label.empty());
    EXPECT_NE(e.last_error.find("injected crash"), std::string::npos);
  }
}

TEST(FaultTolerance, SerialFinalAttemptDefeatsPersistentCrashes) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->crash_rank(0, 0, /*times=*/1000);
  options.retry.max_attempts = 2;
  options.retry.serial_final_attempt = true;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  // Every one of the four subsets crashed once, then finished serially.
  EXPECT_EQ(result.total_retries, 4u);
  for (const auto& subset : result.subsets)
    EXPECT_EQ(subset.attempts, 2u) << subset.label;
}

TEST(FaultTolerance, StragglerChangesNothingButTime) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->straggle(0, /*delay_us=*/100);
  auto result = compute_efms(net, options);
  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_EQ(result.total_retries, 0u);
  EXPECT_GT(options.fault_plan->totals().delays, 0u);
}

// ---------------------------------------------------------------------------
// Deadline scaling's cost model: one prediction per queued subset.

/// The toy split on {r6r, r8r} under a 600 s deadline with the one-shot
/// crash of RankCrashMidRunIsRetried, and a cost hint that counts its calls.
CombinedOptions toy_hinted_options(std::size_t& calls) {
  CombinedOptions options;
  options.partition_reactions = {"r6r", "r8r"};
  options.num_ranks = 2;
  options.subset_deadlines = {.soft_seconds = 300,
                              .hard_seconds = 600,
                              .stall_seconds = 600};
  options.retry.max_attempts = 2;
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->crash_rank(0, /*at_op=*/3, /*times=*/1);
  options.subset_cost_hint = [&calls](const SubsetSpec&) {
    ++calls;
    return 1000.0;
  };
  return options;
}

TEST(FaultTolerance, CostHintRunsOncePerQueuedSubset) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  ScratchFile file("ckpt_hint.bin");

  // Four subsets, one of them retried: four predictions, none repeated
  // for the retry.
  std::size_t calls = 0;
  auto options = toy_hinted_options(calls);
  options.checkpoint_path = file.path();
  auto solved = solve_combined<CheckedI64, Bitset64>(problem, options);
  EXPECT_EQ(solved.total_retries, 1u);
  EXPECT_EQ(calls, 4u);

  // Every subset resumes from the checkpoint: nothing to predict.
  calls = 0;
  auto resume = toy_hinted_options(calls);
  resume.resume_from = file.path();
  auto resumed = solve_combined<CheckedI64, Bitset64>(problem, resume);
  EXPECT_EQ(resumed.columns.size(), solved.columns.size());
  EXPECT_EQ(calls, 0u);

  // No deadline, no scaling: nothing to predict either.
  calls = 0;
  auto unsupervised = toy_hinted_options(calls);
  unsupervised.subset_deadlines = {};
  auto plain = solve_combined<CheckedI64, Bitset64>(problem, unsupervised);
  EXPECT_EQ(plain.columns.size(), solved.columns.size());
  EXPECT_EQ(calls, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint file format.

TEST(Checkpoint, RoundTripAndTruncatedTail) {
  ScratchFile file("ckpt_roundtrip.bin");
  CheckpointRecord a;
  a.pattern = {{3, true}, {7, false}};
  a.modes = {{BigInt(1), BigInt(-2), BigInt(0)},
             {BigInt(0), BigInt(5), BigInt(9)}};
  a.candidate_pairs = 42;
  a.seconds = 1.5;
  a.extra_splits = 1;
  a.attempts = 2;
  CheckpointRecord b;
  b.pattern = {{3, false}, {7, true}};
  b.modes = {{BigInt::from_string("123456789012345678901234567890"),
              BigInt(0), BigInt(-1)}};
  append_checkpoint_record(file.path(), a);
  append_checkpoint_record(file.path(), b);

  auto records = load_checkpoint(file.path());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].pattern, a.pattern);
  EXPECT_EQ(records[0].modes, a.modes);
  EXPECT_EQ(records[0].candidate_pairs, 42u);
  EXPECT_DOUBLE_EQ(records[0].seconds, 1.5);
  EXPECT_EQ(records[0].extra_splits, 1u);
  EXPECT_EQ(records[0].attempts, 2u);
  EXPECT_EQ(records[1].modes, b.modes);

  // Chop bytes off the tail — the simulated kill -9 mid-append.  Record a
  // must survive; the damaged record b is dropped without an exception.
  std::ifstream in(file.path(), std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  in.close();
  std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(size - 5));
  out.close();

  auto recovered = load_checkpoint(file.path());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].modes, a.modes);
}

TEST(Checkpoint, MissingFileIsEmptyAndGarbageRejected) {
  EXPECT_TRUE(load_checkpoint(::testing::TempDir() + "elmo_no_such.bin")
                  .empty());
  ScratchFile file("ckpt_garbage.bin");
  std::ofstream(file.path(), std::ios::binary) << "definitely not a ckpt";
  EXPECT_THROW(load_checkpoint(file.path()), ParseError);
}

// ---------------------------------------------------------------------------
// Checkpoint/restart end-to-end on yeast Network I.

TEST(Checkpoint, ResumeSkipsEverythingAndIsBitIdentical) {
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_full.bin");

  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.checkpoint_path = file.path();
  auto baseline = compute_efms(net, options);
  ASSERT_GT(baseline.num_modes(), 0u);

  // The resumed run carries a hair-trigger fault plan: if ANY subset were
  // recomputed, its world would crash at the very first operation.  A clean
  // pass proves every subset came from the checkpoint.
  EfmOptions resume;
  resume.algorithm = Algorithm::kCombined;
  resume.num_ranks = 2;
  resume.qsub = 2;
  resume.resume_from = file.path();
  resume.fault_plan = std::make_shared<mpsim::FaultPlan>();
  for (int r = 0; r < 2; ++r)
    resume.fault_plan->crash_rank(r, 0, /*times=*/1000);
  auto resumed = compute_efms(net, resume);

  EXPECT_EQ(resumed.modes, baseline.modes);
  EXPECT_EQ(resume.fault_plan->totals().crashes, 0u);
  ASSERT_EQ(resumed.subsets.size(), baseline.subsets.size());
  for (const auto& subset : resumed.subsets) {
    EXPECT_TRUE(subset.resumed) << subset.label;
  }
}

TEST(Checkpoint, InterruptedRunResumesBitIdentical) {
  Network net = trimmed_yeast_1();

  // Pass 1 — measure: a trigger-free plan rides along only to count rank
  // 0's operations, giving a deterministic "minutes into the job" marker.
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  auto baseline = compute_efms(net, options);
  const std::uint64_t total_ops = options.fault_plan->ops_seen(0);
  ASSERT_GT(total_ops, 4u);

  // Pass 2 — interrupt: same computation, checkpointing enabled, rank 0
  // killed halfway through.  Some subsets must have committed by then.
  ScratchFile file("ckpt_yeast_interrupted.bin");
  EfmOptions interrupted;
  interrupted.algorithm = Algorithm::kCombined;
  interrupted.num_ranks = 2;
  interrupted.qsub = 2;
  interrupted.checkpoint_path = file.path();
  interrupted.fault_plan = std::make_shared<mpsim::FaultPlan>();
  interrupted.fault_plan->crash_rank(0, total_ops / 2, /*times=*/1);
  EXPECT_THROW(compute_efms(net, interrupted), mpsim::InjectedFaultError);

  auto committed = load_checkpoint(file.path());
  ASSERT_GT(committed.size(), 0u) << "crash landed before any checkpoint";
  ASSERT_LT(committed.size(), baseline.subsets.size());

  // Pass 3 — resume: skip the committed subsets, recompute the rest.
  EfmOptions resume;
  resume.algorithm = Algorithm::kCombined;
  resume.num_ranks = 2;
  resume.qsub = 2;
  resume.checkpoint_path = file.path();
  resume.resume_from = file.path();
  auto resumed = compute_efms(net, resume);

  EXPECT_EQ(resumed.modes, baseline.modes);
  std::size_t from_checkpoint = 0;
  for (const auto& subset : resumed.subsets)
    if (subset.resumed) ++from_checkpoint;
  EXPECT_EQ(from_checkpoint, committed.size());
  // The finished file now covers every subset.
  EXPECT_EQ(load_checkpoint(file.path()).size(), resumed.subsets.size());
}

// ---------------------------------------------------------------------------
// Resume from damaged checkpoint files.  The recovery contract: a damaged
// tail costs at most the records it covered — the valid prefix is honored,
// the rest is recomputed, and the final mode set is bit-identical.

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

EfmOptions yeast_checkpoint_options(const std::string& checkpoint_path) {
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.checkpoint_path = checkpoint_path;
  return options;
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b)
    out.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
}

/// Write one valid record followed by a crafted `tail`.  Loading must
/// return the valid prefix (no crash, no escaping exception), and repair
/// must trim exactly the tail.
void expect_prefix_recovered(const std::string& path, const std::string& tail) {
  CheckpointRecord valid;
  valid.pattern = {{2, true}};
  valid.modes = {{BigInt(1), BigInt(0), BigInt(-3)}};
  append_checkpoint_record(path, valid);
  const std::string prefix = read_file_bytes(path);
  write_file_bytes(path, prefix + tail);

  std::vector<CheckpointRecord> records;
  ASSERT_NO_THROW(records = load_checkpoint(path));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].modes, valid.modes);
  EXPECT_EQ(repair_checkpoint(path), tail.size());
  EXPECT_EQ(read_file_bytes(path), prefix);
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto byte = static_cast<std::uint8_t>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 15]);
  }
  return out;
}

TEST(Checkpoint, FileFormatIsPinned) {
  // Pinned bytes: a change here makes existing checkpoint files unreadable
  // by --resume.  Magic, then per record [u64 size][body][u32 crc32(body)];
  // the body is the pattern (u64 row, u8 nonzero flag each), the counters
  // (seconds as f64 bits) and the modes (u64 length, then BigInt bytes:
  // sign byte, u32 limb count, u32 limbs), all little-endian.  Record a
  // comes from the int64 kernel's columns, record b from the BigInt
  // kernel's; -(2^64 + 1) is a negative three-limb value.
  using I = CheckedI64;
  ScratchFile file("ckpt_pinned.bin");
  CheckpointRecord a;
  a.pattern = {{3, true}, {7, false}};
  a.modes = columns_to_bigint(std::vector{
      FluxColumn<I, Bitset64>::from_values({I(1), I(-2), I(0)})});
  a.candidate_pairs = 42;
  a.seconds = 1.5;
  a.extra_splits = 1;
  a.attempts = 2;
  CheckpointRecord b;
  b.pattern = {{5, false}};
  b.modes = columns_to_bigint(
      std::vector{FluxColumn<BigInt, DynBitset>::from_values(
          {BigInt::from_string("-18446744073709551617"), BigInt(0),
           BigInt(2)})});
  append_checkpoint_record(file.path(), a);
  append_checkpoint_record(file.path(), b);
  EXPECT_EQ(hex(read_file_bytes(file.path())),
            "454c4d4f434b5031"
            // record a: size 97, pattern (3, nonzero) (7, zero)
            "6100000000000000"
            "0200000000000000"
            "030000000000000001"
            "070000000000000000"
            // pairs 42, seconds 1.5, extra splits 1, attempts 2
            "2a00000000000000"
            "000000000000f83f"
            "0100000000000000"
            "0200000000000000"
            // one mode of length 3: 1, -2, 0
            "0100000000000000"
            "0300000000000000"
            "000100000001000000"
            "010100000002000000"
            "0000000000"
            "53150e1a"
            // record b: size 96, pattern (5, zero), counters 0 0 0 1
            "6000000000000000"
            "0100000000000000"
            "050000000000000000"
            "0000000000000000"
            "0000000000000000"
            "0000000000000000"
            "0100000000000000"
            // one mode of length 3: -(2^64 + 1), 0, 2
            "0100000000000000"
            "0300000000000000"
            "0103000000010000000000000001000000"
            "0000000000"
            "000100000002000000"
            "7437180a");

  const auto records = load_checkpoint(file.path());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].pattern, a.pattern);
  EXPECT_EQ(records[0].modes, a.modes);
  EXPECT_EQ(records[1].pattern, b.pattern);
  EXPECT_EQ(records[1].modes, b.modes);
  EXPECT_DOUBLE_EQ(records[0].seconds, 1.5);
}

TEST(Checkpoint, FrameSizeThatWrapsIsTailDamage) {
  // u64 frame size 0xFFFF...FF then 4 bytes: size + 4 wraps to 3, so a
  // bound check on that sum passes and the CRC reads past the buffer.
  std::string tail;
  put_le(tail, ~std::uint64_t{0}, 8);
  put_le(tail, 0, 4);
  ScratchFile file("ckpt_wrap.bin");
  expect_prefix_recovered(file.path(), tail);

  // The bare 20-byte file: magic, the wrapping size, 4 bytes.
  ScratchFile bare("ckpt_wrap_bare.bin");
  write_file_bytes(bare.path(), "ELMOCKP1" + tail);
  std::vector<CheckpointRecord> records;
  ASSERT_NO_THROW(records = load_checkpoint(bare.path()));
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(repair_checkpoint(bare.path()), 12u);
  EXPECT_EQ(read_file_bytes(bare.path()), "ELMOCKP1");
}

TEST(Checkpoint, HugeCountWithValidCrcIsTailDamage) {
  // A CRC-valid frame whose pattern_count is 2^62: reserve(pattern_count)
  // would throw std::length_error, which is not a ParseError.
  std::string body;
  put_le(body, std::uint64_t{1} << 62, 8);
  std::vector<std::uint8_t> raw(body.begin(), body.end());
  std::string tail;
  put_le(tail, body.size(), 8);
  tail += body;
  put_le(tail, crc32(raw.data(), raw.size()), 4);
  ScratchFile file("ckpt_huge_count.bin");
  expect_prefix_recovered(file.path(), tail);
}

TEST(Checkpoint, ResumeFromZeroLengthFileRecomputesEverything) {
  // The crash-before-first-commit case: the file exists but holds nothing,
  // not even the magic.  That is an empty checkpoint, not a corrupt one.
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_zero.bin");

  auto baseline = compute_efms(net, yeast_checkpoint_options(file.path()));
  ASSERT_GT(baseline.num_modes(), 0u);

  write_file_bytes(file.path(), "");
  EXPECT_TRUE(load_checkpoint(file.path()).empty());

  auto options = yeast_checkpoint_options(file.path());
  options.resume_from = file.path();
  auto resumed = compute_efms(net, options);
  EXPECT_EQ(resumed.modes, baseline.modes);
  for (const auto& subset : resumed.subsets)
    EXPECT_FALSE(subset.resumed) << subset.label;
  // The rerun re-checkpointed the full set.
  EXPECT_EQ(load_checkpoint(file.path()).size(), resumed.subsets.size());
}

TEST(Checkpoint, ResumeFromBitFlippedFileKeepsTheValidPrefix) {
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_bitflip.bin");

  auto baseline = compute_efms(net, yeast_checkpoint_options(file.path()));
  const std::size_t total = baseline.subsets.size();
  ASSERT_EQ(load_checkpoint(file.path()).size(), total);

  // Flip one bit in the last frame (past the magic, near the tail): the CRC
  // catches it, that record and everything after it is dropped, and the
  // records before it survive untouched.
  std::string bytes = read_file_bytes(file.path());
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 3] ^= 0x20;
  write_file_bytes(file.path(), bytes);

  auto damaged = load_checkpoint(file.path());
  ASSERT_GE(damaged.size(), 1u) << "flip unexpectedly destroyed every record";
  ASSERT_LT(damaged.size(), total);

  auto options = yeast_checkpoint_options(file.path());
  options.resume_from = file.path();
  auto resumed = compute_efms(net, options);
  EXPECT_EQ(resumed.modes, baseline.modes);
  std::size_t from_checkpoint = 0;
  for (const auto& subset : resumed.subsets)
    if (subset.resumed) ++from_checkpoint;
  EXPECT_EQ(from_checkpoint, damaged.size());
}

TEST(Checkpoint, ResumeFromTruncatedFileRecomputesTheTail) {
  // kill -9 mid-append leaves a short final frame; resume must treat the
  // file exactly like one that stopped at the previous commit.
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_trunc.bin");

  auto baseline = compute_efms(net, yeast_checkpoint_options(file.path()));
  const std::size_t total = baseline.subsets.size();

  std::string bytes = read_file_bytes(file.path());
  ASSERT_GT(bytes.size(), 32u);
  write_file_bytes(file.path(), bytes.substr(0, bytes.size() - 7));

  auto damaged = load_checkpoint(file.path());
  ASSERT_GE(damaged.size(), 1u);
  ASSERT_LT(damaged.size(), total);

  auto options = yeast_checkpoint_options(file.path());
  options.resume_from = file.path();
  options.checkpoint_path = file.path();
  auto resumed = compute_efms(net, options);
  EXPECT_EQ(resumed.modes, baseline.modes);
  // The finished file is whole again: every subset committed.
  EXPECT_EQ(load_checkpoint(file.path()).size(), total);
}

// ---------------------------------------------------------------------------
// The paper's Network II story, replayed with the fault machinery on the
// trimmed model: a memory budget kills Algorithm 2 outright, while
// Algorithm 3 survives it by re-splitting oversized subsets (Table IV) and
// retrying, and still reproduces the serial mode set exactly.

TEST(FaultTolerance, NetworkTwoMemoryStory) {
  Network net = trimmed_yeast_2();

  EfmOptions serial;
  auto expected = compute_efms(net, serial);
  ASSERT_GT(expected.num_modes(), 0u);

  // Probe both algorithms' appetites, then choose a budget that binds for
  // the biggest divide-and-conquer subset (and a fortiori for the full
  // replica Algorithm 2 keeps on every rank).
  EfmOptions probe;
  probe.algorithm = Algorithm::kCombinatorialParallel;
  probe.num_ranks = 2;
  auto unbudgeted = compute_efms(net, probe);
  ASSERT_GT(unbudgeted.peak_rank_memory, 0u);

  EfmOptions combined;
  combined.algorithm = Algorithm::kCombined;
  combined.num_ranks = 2;
  combined.partition_reactions = {"R54r", "R90r"};
  auto combined_probe = compute_efms(net, combined);
  ASSERT_GT(combined_probe.peak_rank_memory, 0u);
  const std::size_t budget = combined_probe.peak_rank_memory * 3 / 4;
  ASSERT_LT(budget, unbudgeted.peak_rank_memory);

  EfmOptions budgeted_flat = probe;
  budgeted_flat.memory_budget_per_rank = budget;
  EXPECT_THROW(compute_efms(net, budgeted_flat), MemoryBudgetError);

  combined.memory_budget_per_rank = budget;
  combined.max_extra_splits = 2;
  combined.retry.max_attempts = 2;
  combined.retry.serial_final_attempt = true;
  auto survived = compute_efms(net, combined);

  EXPECT_EQ(survived.modes, expected.modes);
  std::size_t resplit_subsets = 0;
  for (const auto& subset : survived.subsets)
    if (subset.extra_splits > 0) ++resplit_subsets;
  // The budget binds for Algorithm 2, so the divide-and-conquer run must
  // have leaned on at least one recovery mechanism to finish.
  EXPECT_TRUE(resplit_subsets > 0 || survived.total_retries > 0)
      << "budget never bound inside Algorithm 3";
}

}  // namespace
}  // namespace elmo
