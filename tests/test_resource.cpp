// Resource governance: the MemoryGovernor ledger and admission policy, the
// checksummed spill file and column codec, out-of-core solves (bit-identical
// to the in-memory path), the degrade rungs of the retry ladder under
// --mem-limit, watchdog deadlines (soft straggler diagnosis, hard abort,
// stall detection), and cooperative shutdown.
#include "resource/governor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bitset/bitset64.hpp"
#include "core/api.hpp"
#include "models/ecoli_core.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "bitset/dynbitset.hpp"
#include "mpsim/fault.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/spill.hpp"
#include "resource/shutdown.hpp"
#include "resource/spill.hpp"
#include "resource/watchdog.hpp"

namespace elmo {
namespace {

using resource::MemoryGovernor;
using resource::MemoryLease;
using resource::Subsystem;

// ---------------------------------------------------------------------------
// MemoryGovernor ledger + admission.

TEST(Governor, LeaseAccountingAndPeak) {
  MemoryGovernor gov;
  EXPECT_EQ(gov.usage(), 0u);
  {
    MemoryLease matrix(Subsystem::kMatrix, gov);
    MemoryLease cand(Subsystem::kCandidates, gov);
    matrix.set(1000);
    cand.set(500);
    EXPECT_EQ(gov.usage(), 1500u);
    EXPECT_EQ(gov.usage(Subsystem::kMatrix), 1000u);
    EXPECT_EQ(gov.usage(Subsystem::kCandidates), 500u);
    // Shrinking releases the delta; the peak remembers the high-water mark.
    cand.set(100);
    EXPECT_EQ(gov.usage(), 1100u);
    EXPECT_EQ(gov.peak_usage(), 1500u);
    matrix.release();
    EXPECT_EQ(gov.usage(), 100u);
  }
  // Destructors release whatever was still charged.
  EXPECT_EQ(gov.usage(), 0u);
  EXPECT_EQ(gov.peak_usage(), 1500u);
  gov.reset();
  EXPECT_EQ(gov.peak_usage(), 0u);
}

TEST(Governor, LeaseMoveTransfersTheCharge) {
  MemoryGovernor gov;
  MemoryLease a(Subsystem::kCheckpoint, gov);
  a.set(64);
  MemoryLease b = std::move(a);
  EXPECT_EQ(b.charged(), 64u);
  EXPECT_EQ(gov.usage(), 64u);
  b.release();
  EXPECT_EQ(gov.usage(), 0u);
}

TEST(Governor, EnforceResidentThrowsTypedRetryableError) {
  MemoryGovernor gov;
  gov.set_limit(100);
  MemoryLease lease(Subsystem::kMatrix, gov);
  lease.set(101);
  try {
    gov.enforce_resident("unit test");
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.requested_bytes, 101u);
    EXPECT_EQ(e.limit_bytes, 100u);
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
  }
  lease.set(100);  // at the limit is still admissible residency
  EXPECT_NO_THROW(gov.enforce_resident("unit test"));
}

// ---------------------------------------------------------------------------
// SpillFile framing + CRC.

TEST(Spill, FileRoundTripCreditsGovernorAndUnlinks) {
  MemoryGovernor gov;
  std::string path;
  const std::vector<std::vector<std::uint8_t>> blocks = {
      {1, 2, 3}, {}, {0xFF, 0x00, 0xAB, 0xCD, 9}};
  {
    resource::SpillFile spill(::testing::TempDir(), &gov);
    EXPECT_TRUE(spill.path().empty());  // lazily created
    for (const auto& b : blocks) spill.append_block(b);
    path = spill.path();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(spill.block_count(), 3u);
    EXPECT_EQ(spill.bytes_spilled(), 8u);
    EXPECT_EQ(gov.spill_bytes(), 8u);
    EXPECT_EQ(gov.spill_blocks(), 3u);

    // Streaming back is repeatable and order-preserving.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::vector<std::uint8_t>> read;
      spill.for_each_block(
          [&](std::vector<std::uint8_t>&& body) { read.push_back(body); });
      EXPECT_EQ(read, blocks);
    }
  }
  // Spill data never outlives the SpillFile.
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(Spill, CorruptedBlockIsDetectedNotDecoded) {
  MemoryGovernor gov;
  resource::SpillFile spill(::testing::TempDir(), &gov);
  spill.append_block({10, 20, 30, 40, 50, 60});
  // Flip one body byte behind the SpillFile's back (magic is 8 bytes, then
  // the u64 size header, then the body).
  {
    std::fstream f(spill.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 8 + 2);
    char byte = 0x7F;
    f.write(&byte, 1);
  }
  EXPECT_THROW(spill.for_each_block([](std::vector<std::uint8_t>&&) {}),
               CorruptPayloadError);
}

TEST(Spill, DamagedFrameSizeIsAParseError) {
  // A size header of 2^62 or more must be checked against the file before
  // the body is allocated, not turned into a failed allocation.
  MemoryGovernor gov;
  resource::SpillFile spill(::testing::TempDir(), &gov);
  spill.append_block({10, 20, 30});
  {
    std::fstream f(spill.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 7);  // the size header's most significant byte
    char byte = 0x40;
    f.write(&byte, 1);
  }
  EXPECT_THROW(spill.for_each_block([](std::vector<std::uint8_t>&&) {}),
               ParseError);
}

// ---------------------------------------------------------------------------
// Column codec: the body of every mpsim message and spill block.

/// Round-trip a batch of primitive columns through put_columns/get_columns
/// with `bits`-wide supports, and check that damage (a trailing byte, a
/// body cut short by one byte) is a ParseError.
template <typename Scalar, typename Support>
void check_column_codec(const std::vector<std::vector<Scalar>>& batch,
                        std::size_t bits) {
  using Column = FluxColumn<Scalar, Support>;
  std::vector<Column> columns;
  for (auto values : batch) {
    // Pad to the support width; the last entry sets a bit in the top word.
    values.resize(bits, scalar_from_i64<Scalar>(0));
    values[bits - 1] = scalar_from_i64<Scalar>(1);
    columns.push_back(Column::from_values(values));
    ASSERT_EQ(columns.back().values, values) << "test values must be primitive";
  }
  std::vector<std::uint8_t> body;
  put_columns(body, columns);
  std::vector<Column> decoded;
  get_columns<Scalar, Support>(body, decoded);
  EXPECT_EQ(decoded, columns);

  auto trailing = body;
  trailing.push_back(0);
  std::vector<Column> rejected;
  EXPECT_THROW((get_columns<Scalar, Support>(trailing, rejected)), ParseError);
  auto truncated = body;
  truncated.pop_back();
  EXPECT_THROW((get_columns<Scalar, Support>(truncated, rejected)), ParseError);
}

template <typename Scalar>
void check_column_codec(const std::vector<std::vector<Scalar>>& batch) {
  check_column_codec<Scalar, Bitset64>(batch, 64);
  check_column_codec<Scalar, DynBitset>(batch, 300);  // five words
}

TEST(ColumnCodec, Int64RoundTripIsValueExact) {
  using I = CheckedI64;
  // -1 leads the extremes column: make_primitive stops at gcd 1 before it
  // meets INT64_MIN, whose absolute value CheckedI64 cannot form.
  check_column_codec<I>({{I(1), I(0), I(-7), I(42)},
                         {I(0), I(123456789), I(-1), I(0)},
                         {I(-1), I(INT64_MIN), I(0), I(INT64_MAX)}});
}

TEST(ColumnCodec, BigIntRoundTrip) {
  check_column_codec<BigInt>(
      {{BigInt::from_string("-123456789012345678901234567890"), BigInt(0),
        BigInt(11)},
       {BigInt::from_string("-340282366920938463463374607431768211457"),
        BigInt(0), BigInt::from_string("18446744073709551617"), BigInt(-1),
        BigInt(INT64_MIN)}});
}

// ---------------------------------------------------------------------------
// Out-of-core solves.

TEST(Spill, SpillAlwaysSolveIsBitIdenticalToInMemory) {
  Network net = models::ecoli_core();
  auto baseline = compute_efms(net);
  ASSERT_GT(baseline.num_modes(), 0u);
  EXPECT_EQ(baseline.spill_blocks, 0u);

  EfmOptions options;
  options.spill.always = true;
  options.spill.directory = ::testing::TempDir();
  auto spilled = compute_efms(net, options);

  EXPECT_EQ(spilled.modes, baseline.modes);
  EXPECT_GT(spilled.spill_blocks, 0u);
  EXPECT_GT(spilled.spill_bytes, 0u);
  EXPECT_EQ(spilled.stats.total_rank_tests, baseline.stats.total_rank_tests);
  EXPECT_EQ(spilled.stats.total_duplicates_removed,
            baseline.stats.total_duplicates_removed);
}

TEST(Spill, ChunkedGovernedSolveTestsEachSupportOnce) {
  // A governed run drives candidate generation in 512-pair chunks; every
  // chunk offers to the iteration's one support table, so the chunking
  // must not add rank tests or lose duplicates.
  Network net = models::ecoli_core();
  auto baseline = compute_efms(net);

  EfmOptions governed;
  governed.mem_limit_bytes = 4'000'000;
  governed.spill.directory = ::testing::TempDir();
  auto chunked = compute_efms(net, governed);

  EXPECT_EQ(chunked.modes, baseline.modes);
  EXPECT_EQ(chunked.stats.total_rank_tests, baseline.stats.total_rank_tests);
  EXPECT_EQ(chunked.stats.total_duplicates_removed,
            baseline.stats.total_duplicates_removed);
  EXPECT_EQ(chunked.stats.total_accepted, baseline.stats.total_accepted);
}

TEST(Spill, GovernedSolveCompletesSpillsAndMatches) {
  // Self-calibrating: measure the ungoverned ledger peak (matrix plus
  // candidate transients), then rerun with a budget just above the matrix
  // floor — the matrix cannot spill — and strictly below the unconstrained
  // peak, so candidate generation is forced out-of-core.  The governed run
  // must finish and match bit-for-bit.
  Network net = models::ecoli_core();
  auto baseline = compute_efms(net);
  ASSERT_GT(baseline.mem_peak_bytes, baseline.stats.peak_matrix_bytes)
      << "candidate transients should push the peak above the matrix floor";

  EfmOptions governed;
  governed.mem_limit_bytes = baseline.stats.peak_matrix_bytes + 4096;
  ASSERT_LT(governed.mem_limit_bytes, baseline.mem_peak_bytes);
  governed.spill.directory = ::testing::TempDir();
  auto result = compute_efms(net, governed);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_GT(result.spill_blocks, 0u) << "limit never triggered the watermark";
  EXPECT_EQ(result.mem_limit_bytes, governed.mem_limit_bytes);

  // The run report carries the same resource ledger.
  auto report = make_solve_report(result, governed, "ecoli");
  EXPECT_EQ(report.mem_limit_bytes, governed.mem_limit_bytes);
  EXPECT_EQ(report.spill_blocks, result.spill_blocks);
  EXPECT_GT(report.rss_bytes, 0u);
}

TEST(Spill, GovernedYeastClassSolveMatches) {
  // The acceptance-criterion configuration: a yeast1-class network (yeast
  // Network I with the knockouts the hybrid tests use) governed below its
  // unconstrained ledger peak completes, records spill traffic, and matches
  // the unconstrained EFM set exactly.
  Network net = models::yeast_network_1();
  std::vector<ReactionId> trim;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100",
                           "R77", "R101", "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  net = net.without_reactions(trim);

  auto baseline = compute_efms(net);
  ASSERT_GT(baseline.num_modes(), 0u);
  ASSERT_GT(baseline.mem_peak_bytes, baseline.stats.peak_matrix_bytes);

  EfmOptions governed;
  governed.mem_limit_bytes = baseline.stats.peak_matrix_bytes + 4096;
  ASSERT_LT(governed.mem_limit_bytes, baseline.mem_peak_bytes);
  governed.spill.directory = ::testing::TempDir();
  auto result = compute_efms(net, governed);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_GT(result.spill_blocks, 0u);
  EXPECT_GT(result.spill_bytes, 0u);
}

TEST(Spill, ImpossibleLimitIsATypedResourceError) {
  // A limit below the matrix floor cannot be met by spilling; the serial
  // driver (no retry ladder) must fail with the typed, retryable error that
  // names the un-spillable matrix.
  Network net = models::toy_network();
  EfmOptions options;
  options.mem_limit_bytes = 1;
  try {
    compute_efms(net, options);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.limit_bytes, 1u);
    EXPECT_NE(std::string(e.what()).find("cannot spill"), std::string::npos);
  }
}

TEST(Retry, ResourceErrorDegradesThroughTheLadderToSerial) {
  // Algorithm 3 with an impossible budget: every subset's first attempt is
  // rejected by the governor; the retry ladder's ungoverned serial rung
  // must still complete the run, bit-identically.
  Network net = models::toy_network();
  EfmOptions plain;
  plain.algorithm = Algorithm::kCombined;
  plain.num_ranks = 2;
  plain.partition_reactions = {"r6r", "r8r"};
  auto baseline = compute_efms(net, plain);

  EfmOptions governed = plain;
  governed.mem_limit_bytes = 1;
  governed.retry.max_attempts = 2;
  governed.retry.serial_final_attempt = true;
  auto result = compute_efms(net, governed);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_GE(result.total_retries, 1u);
  for (const auto& subset : result.subsets)
    EXPECT_EQ(subset.attempts, 2u) << subset.label;
}

// ---------------------------------------------------------------------------
// Watchdog.

resource::Watchdog::Options fast_poll() {
  resource::Watchdog::Options options;
  options.poll_interval_seconds = 0.001;
  return options;
}

template <typename Pred>
void wait_until(const Pred& pred, double timeout_seconds = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (!pred() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(pred()) << "condition not reached within timeout";
}

TEST(Watchdog, SoftDeadlineNamesTheStraggler) {
  resource::Watchdog dog(fast_poll());
  std::atomic<std::uint64_t> fast{0};
  std::atomic<std::uint64_t> slow{3};
  std::mutex mu;
  std::string diagnosis;
  std::atomic<int> soft_fired{0};
  std::atomic<int> hard_fired{0};
  {
    auto token = dog.arm(
        "soft test", {.soft_seconds = 0.02},
        [&](const std::string& d) {
          std::lock_guard<std::mutex> lock(mu);
          diagnosis = d;
          soft_fired.fetch_add(1);
        },
        [&](const std::string&) { hard_fired.fetch_add(1); },
        {{"rank fast", &fast}, {"rank slow", &slow}});
    // "rank slow" keeps advancing while "rank fast" sits at the global
    // minimum — the diagnosis must name the one that is behind.
    for (int i = 0; i < 40 && soft_fired.load() == 0; ++i) {
      slow.fetch_add(10);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    wait_until([&] { return soft_fired.load() > 0; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(soft_fired.load(), 1) << "soft deadline must fire exactly once";
  EXPECT_EQ(hard_fired.load(), 0);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_NE(diagnosis.find("soft deadline"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("rank fast"), std::string::npos)
      << "diagnosis must name the counter at the global minimum: "
      << diagnosis;
}

TEST(Watchdog, HardDeadlineFiresOnceAndDisarmIsSafe) {
  resource::Watchdog dog(fast_poll());
  std::atomic<int> hard_fired{0};
  {
    auto token = dog.arm(
        "hard test", {.hard_seconds = 0.02}, {},
        [&](const std::string& d) {
          EXPECT_NE(d.find("hard deadline"), std::string::npos);
          hard_fired.fetch_add(1);
        });
    wait_until([&] { return hard_fired.load() > 0; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // disarm blocks until any in-flight callback returned
  EXPECT_EQ(hard_fired.load(), 1);
}

TEST(Watchdog, StallFiresOnlyWhenCountersFreeze) {
  resource::Watchdog dog(fast_poll());
  std::atomic<std::uint64_t> counter{0};
  std::atomic<int> wedged{0};
  auto token = dog.arm(
      "stall test", {.stall_seconds = 0.03}, {},
      [&](const std::string& d) {
        EXPECT_NE(d.find("wedged"), std::string::npos);
        wedged.fetch_add(1);
      },
      {{"rank 0", &counter}});
  // While progress advances, no stall fires.
  for (int i = 0; i < 25; ++i) {
    counter.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(wedged.load(), 0);
  // Freeze the counter: the wedge detector must trip.
  wait_until([&] { return wedged.load() > 0; });
  token.disarm();
  EXPECT_EQ(wedged.load(), 1);
}

TEST(Watchdog, DisarmBeforeDeadlineSuppressesCallbacks) {
  resource::Watchdog dog(fast_poll());
  std::atomic<int> fired{0};
  {
    auto token = dog.arm("early disarm", {.hard_seconds = 0.2}, {},
                         [&](const std::string&) { fired.fetch_add(1); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 0);
}

TEST(Watchdog, MpsimHardDeadlineSurfacesAsDeadlineExceeded) {
  // A straggling rank pushes the world past its hard deadline; the typed
  // error the retry ladder classifies as re-queue-with-split must surface
  // (not the ranks' secondary AbortedErrors).
  Network net = models::ecoli_core();
  EfmOptions options;
  options.algorithm = Algorithm::kCombinatorialParallel;
  options.num_ranks = 2;
  options.subset_deadline_seconds = 0.05;
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->straggle(1, /*delay_us=*/20'000);
  EXPECT_THROW(compute_efms(net, options), DeadlineExceededError);
}

TEST(Watchdog, CombinedSubsetDeadlineIsRecovered) {
  // The same straggler under Algorithm 3: a subset world that outlives its
  // (estimate-scaled) deadline re-enters the retry ladder, and the serial
  // final attempt, which runs without deadline or fault plan, finishes it.
  Network net = models::ecoli_core();
  EfmOptions clean;
  clean.algorithm = Algorithm::kCombined;
  clean.num_ranks = 2;
  auto baseline = compute_efms(net, clean);

  EfmOptions options = clean;
  options.subset_deadline_seconds = 0.05;
  options.retry.max_attempts = 2;
  options.retry.serial_final_attempt = true;
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  // Four subsets on two ranks run as one-rank groups, each its world's
  // rank 0.
  options.fault_plan->straggle(0, /*delay_us=*/20'000);
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  std::size_t extra_splits = 0;
  for (const auto& subset : result.subsets) extra_splits += subset.extra_splits;
  EXPECT_GE(result.total_retries + extra_splits, 1u);
}

// ---------------------------------------------------------------------------
// Cooperative shutdown.

TEST(Shutdown, RequestCancelsTheSolveWithoutRetry) {
  resource::reset_shutdown();
  resource::request_shutdown();
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.partition_reactions = {"r6r", "r8r"};
  options.retry.max_attempts = 5;  // cancellation must NOT be retried
  try {
    compute_efms(net, options);
    resource::reset_shutdown();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    resource::reset_shutdown();
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
  }
  // The flag is clear again: the next solve runs normally.
  auto result = compute_efms(net, options);
  EXPECT_GT(result.num_modes(), 0u);
  EXPECT_EQ(result.total_retries, 0u);
}

}  // namespace
}  // namespace elmo
