// Tests for the simulated message-passing runtime.
#include "mpsim/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <string>

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/flux_column.hpp"

namespace elmo::mpsim {
namespace {

TEST(Mpsim, SingleRankRuns) {
  int calls = 0;
  auto report = run_ranks(1, [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(report.ranks.size(), 1u);
}

TEST(Mpsim, PointToPointDelivery) {
  auto report = run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/7, {1, 2, 3});
    } else {
      Payload p = comm.recv(0, 7);
      EXPECT_EQ(p, (Payload{1, 2, 3}));
    }
  });
  EXPECT_EQ(report.ranks[0].messages_sent, 1u);
  EXPECT_EQ(report.ranks[0].bytes_sent, 3u);
  EXPECT_EQ(report.ranks[1].messages_sent, 0u);
}

TEST(Mpsim, TagsKeepStreamsSeparate) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, {11});
      comm.send(1, 2, {22});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv(0, 2), (Payload{22}));
      EXPECT_EQ(comm.recv(0, 1), (Payload{11}));
    }
  });
}

TEST(Mpsim, MessagesFromSameSourceKeepOrder) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::uint8_t i = 0; i < 10; ++i) comm.send(1, 0, {i});
    } else {
      for (std::uint8_t i = 0; i < 10; ++i)
        EXPECT_EQ(comm.recv(0, 0), Payload{i});
    }
  });
}

TEST(Mpsim, BarrierSynchronises) {
  std::atomic<int> phase_one{0};
  run_ranks(4, [&](Communicator& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all four increments.
    EXPECT_EQ(phase_one.load(), 4);
    comm.barrier();
  });
}

TEST(Mpsim, AllGatherCollectsInRankOrder) {
  run_ranks(3, [](Communicator& comm) {
    Payload mine = {static_cast<std::uint8_t>(comm.rank() * 10)};
    auto all = comm.all_gather(std::move(mine));
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                Payload{static_cast<std::uint8_t>(r * 10)});
  });
}

TEST(Mpsim, AllGatherRepeatedRounds) {
  // Exercises slot reuse across iterations (the Algorithm-2 inner loop).
  run_ranks(3, [](Communicator& comm) {
    for (std::uint8_t round = 0; round < 5; ++round) {
      Payload mine = {static_cast<std::uint8_t>(comm.rank()), round};
      auto all = comm.all_gather(std::move(mine));
      for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)],
                  (Payload{static_cast<std::uint8_t>(r), round}));
      }
    }
  });
}

TEST(Mpsim, AllReduce) {
  run_ranks(4, [](Communicator& comm) {
    auto rank = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.all_reduce_sum(rank + 1), 1u + 2u + 3u + 4u);
    EXPECT_EQ(comm.all_reduce_max(rank * 7), 21u);
  });
}

TEST(Mpsim, ExceptionInOneRankAbortsWorld) {
  EXPECT_THROW(
      run_ranks(3,
                [](Communicator& comm) {
                  if (comm.rank() == 1)
                    throw InvalidArgumentError("rank 1 exploded");
                  // Other ranks block forever unless aborted.
                  comm.recv(1, 99);
                }),
      InvalidArgumentError);
}

TEST(Mpsim, MemoryBudgetEnforced) {
  RunOptions options;
  options.memory_budget_per_rank = 1000;
  EXPECT_THROW(run_ranks(
                   2,
                   [](Communicator& comm) {
                     comm.set_memory_usage(500);   // fine
                     comm.set_memory_usage(1500);  // over budget
                   },
                   options),
               MemoryBudgetError);
  try {
    run_ranks(
        1, [](Communicator& comm) { comm.set_memory_usage(4096); }, options);
    FAIL() << "expected MemoryBudgetError";
  } catch (const MemoryBudgetError& e) {
    EXPECT_EQ(e.requested_bytes, 4096u);
    EXPECT_EQ(e.budget_bytes, 1000u);
  }
}

TEST(Mpsim, MemoryPeakTracked) {
  auto report = run_ranks(1, [](Communicator& comm) {
    comm.set_memory_usage(100);
    comm.set_memory_usage(700);
    comm.set_memory_usage(300);
  });
  EXPECT_EQ(report.ranks[0].memory_peak, 700u);
  EXPECT_EQ(report.ranks[0].memory_in_use, 300u);
  EXPECT_EQ(report.max_memory_peak(), 700u);
}

TEST(MpsimSerialize, ColumnsRoundTripCheckedI64) {
  using Col = FluxColumn<CheckedI64, Bitset64>;
  std::vector<Col> columns;
  columns.push_back(Col::from_values(
      {CheckedI64(2), CheckedI64(0), CheckedI64(-4), CheckedI64(6)}));
  columns.push_back(Col::from_values({CheckedI64(0), CheckedI64(5),
                                      CheckedI64(0), CheckedI64(0)}));
  auto payload = encode_columns(columns);
  auto decoded = decode_columns<CheckedI64, Bitset64>(payload);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], columns[0]);
  EXPECT_EQ(decoded[1], columns[1]);
}

TEST(MpsimSerialize, ColumnsRoundTripBigIntDynBitset) {
  using Col = FluxColumn<BigInt, DynBitset>;
  std::vector<BigInt> values(100, BigInt(0));
  values[3] = BigInt::from_string("123456789012345678901234567890");
  values[77] = BigInt::from_string("-987654321098765432109876543210");
  // Non-primitive on purpose: from_values normalises by the (huge) gcd.
  std::vector<Col> columns = {Col::from_values(std::move(values))};
  auto decoded =
      decode_columns<BigInt, DynBitset>(encode_columns(columns));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], columns[0]);
}

/// One column whose support has the given bits set over `bits` positions.
/// The value vector is short on purpose: encode_columns writes support and
/// values independently, and a few values keep the pinned bytes readable.
template <typename Support>
FluxColumn<CheckedI64, Support> wire_column(std::size_t bits,
                                            std::vector<std::size_t> set) {
  FluxColumn<CheckedI64, Support> column;
  column.support = make_support<Support>(bits);
  for (std::size_t i : set) column.support.set(i);
  column.values = {CheckedI64(3), CheckedI64(-1)};
  return column;
}

std::string hex(const Payload& payload) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : payload) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 15]);
  }
  return out;
}

TEST(MpsimSerialize, ColumnWireFormatIsPinned) {
  // Pinned bytes: a change here changes every Communicate&Merge message
  // (and mpsim.message_mb).
  // Fields: column count, support, value count, values, CRC32; every
  // integer little-endian.  Bitset64 writes its one word, DynBitset a
  // word count and then its words, least-significant first.
  EXPECT_EQ(hex(encode_columns(std::vector{
                wire_column<Bitset64>(60, {0, 5, 63})})),
            "0100000000000000"
            "2100000000000080"
            "0200000000000000"
            "0300000000000000ffffffffffffffff"
            "b53e7f94");
  EXPECT_EQ(hex(encode_columns(std::vector{
                wire_column<DynBitset>(100, {1, 64, 99})})),
            "0100000000000000"
            "0200000000000000"
            "02000000000000000100000008000000"
            "0200000000000000"
            "0300000000000000ffffffffffffffff"
            "23d82678");
  const auto five_words = std::vector{
      wire_column<DynBitset>(300, {0, 63, 64, 191, 192, 255, 256, 299})};
  const Payload payload = encode_columns(five_words);
  EXPECT_EQ(hex(payload),
            "0100000000000000"
            "0500000000000000"
            "01000000000000800100000000000000"
            "00000000000000800100000000000080"
            "0100000000080000"
            "0200000000000000"
            "0300000000000000ffffffffffffffff"
            "44521d72");
  const auto decoded = decode_columns<CheckedI64, DynBitset>(payload);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], five_words[0]);
  EXPECT_EQ(decoded[0].support.count(), 8u);
}

TEST(MpsimSerialize, EmptyBatch) {
  std::vector<FluxColumn<CheckedI64, Bitset64>> none;
  auto decoded =
      decode_columns<CheckedI64, Bitset64>(encode_columns(none));
  EXPECT_TRUE(decoded.empty());
}

TEST(MpsimSerialize, TruncatedBufferThrows) {
  using Col = FluxColumn<CheckedI64, Bitset64>;
  std::vector<Col> columns = {
      Col::from_values({CheckedI64(1), CheckedI64(2)})};
  auto payload = encode_columns(columns);
  payload.resize(payload.size() - 3);
  EXPECT_THROW((decode_columns<CheckedI64, Bitset64>(payload)), ParseError);
}

TEST(MpsimSerialize, CraftedCountsAreParseErrors) {
  // CRC-valid payloads whose counts claim far more than the bytes hold:
  // each count is checked before anything is reserved for it.
  const auto crafted = [](std::vector<std::uint64_t> words) {
    Payload payload;
    for (std::uint64_t w : words) put_u64(payload, w);
    append_crc32(payload);
    return payload;
  };
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;
  EXPECT_THROW((decode_columns<CheckedI64, DynBitset>(crafted({kHuge, 0, 0}))),
               ParseError);
  EXPECT_THROW((decode_columns<CheckedI64, DynBitset>(crafted({1, kHuge, 0}))),
               ParseError);
  // A well-formed column whose support is one word wider than any the
  // candidate engine builds.
  std::vector<std::uint64_t> too_wide = {1, kMaxSupportWords + 1};
  too_wide.resize(too_wide.size() + kMaxSupportWords + 2, 0);
  EXPECT_THROW((decode_columns<CheckedI64, DynBitset>(crafted(too_wide))),
               ParseError);
  EXPECT_THROW((decode_columns<CheckedI64, Bitset64>(crafted({1, 0, kHuge}))),
               ParseError);
}

TEST(MpsimSerialize, CrcFramingRoundTrip) {
  Payload payload = {10, 20, 30, 40};
  append_crc32(payload);
  ASSERT_EQ(payload.size(), 8u);
  EXPECT_EQ(verify_crc32(payload), 4u);  // body size, CRC stripped
}

TEST(MpsimSerialize, FlippedByteDetected) {
  Payload payload = {10, 20, 30, 40};
  append_crc32(payload);
  payload[2] ^= 0x40;
  try {
    verify_crc32(payload);
    FAIL() << "expected CorruptPayloadError";
  } catch (const CorruptPayloadError& e) {
    EXPECT_NE(e.expected_crc, e.actual_crc);
  }
}

TEST(MpsimSerialize, CorruptedColumnBatchNeverDecodes) {
  using Col = FluxColumn<CheckedI64, Bitset64>;
  std::vector<Col> columns = {
      Col::from_values({CheckedI64(3), CheckedI64(-9), CheckedI64(12)})};
  auto payload = encode_columns(columns);
  // Damage every byte position in turn: the CRC must catch each one.
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    auto damaged = payload;
    damaged[pos] ^= 0x01;
    EXPECT_THROW((decode_columns<CheckedI64, Bitset64>(damaged)),
                 CorruptPayloadError)
        << "flip at byte " << pos;
  }
}

// ---------------------------------------------------------------------------
// Abort propagation and exited-rank wakeups (satellite: no blocked primitive
// may hang when its peer is gone).

TEST(MpsimAbort, AbortedErrorCarriesOriginAndRootCause) {
  std::atomic<int> observed_origin{-2};
  std::atomic<bool> cause_mentions_boom{false};
  EXPECT_THROW(
      run_ranks(2,
                [&](Communicator& comm) {
                  if (comm.rank() == 1)
                    throw InvalidArgumentError("rank 1 went boom");
                  try {
                    comm.recv(1, 99);  // blocked until the abort wakes us
                  } catch (const AbortedError& e) {
                    observed_origin = e.origin_rank;
                    cause_mentions_boom =
                        e.root_cause.find("boom") != std::string::npos;
                    throw;
                  }
                }),
      InvalidArgumentError);
  EXPECT_EQ(observed_origin.load(), 1);
  EXPECT_TRUE(cause_mentions_boom.load());
}

TEST(MpsimAbort, RecvFromExitedRankWakesPromptly) {
  // Rank 1 exits without ever sending: rank 0's recv must throw, not hang.
  try {
    run_ranks(2, [](Communicator& comm) {
      if (comm.rank() == 0) comm.recv(1, 5);
    });
    FAIL() << "expected AbortedError";
  } catch (const AbortedError& e) {
    EXPECT_EQ(e.origin_rank, 1);
    EXPECT_NE(e.root_cause.find("exited"), std::string::npos);
  }
}

TEST(MpsimAbort, InFlightMessageFromExitedSenderStillDelivered) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {42});  // then exit immediately
    } else {
      EXPECT_EQ(comm.recv(0, 3), Payload{42});
    }
  });
}

TEST(MpsimAbort, ExitBeforeCollectiveAbortsWorld) {
  // Rank 1 skips the barrier and exits; ranks 0 and 2 must not deadlock.
  try {
    run_ranks(3, [](Communicator& comm) {
      if (comm.rank() != 1) comm.barrier();
    });
    FAIL() << "expected AbortedError";
  } catch (const AbortedError& e) {
    EXPECT_EQ(e.origin_rank, 1);
    EXPECT_NE(e.root_cause.find("exited"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Fault injection.

TEST(MpsimFault, CrashAtFirstOpPropagatesInjectedFault) {
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank(1, 0);
  RunOptions options;
  options.fault_plan = plan;
  try {
    run_ranks(
        3, [](Communicator& comm) { comm.barrier(); }, options);
    FAIL() << "expected InjectedFaultError";
  } catch (const InjectedFaultError& e) {
    EXPECT_EQ(e.rank, 1);
  }
  EXPECT_EQ(plan->totals().crashes, 1u);
}

/// Crash rank 1 at each primitive of a mixed collective sequence; whatever
/// the peers are blocked in, the world must abort rather than hang.
class MpsimCrashAtEachOp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpsimCrashAtEachOp, WorldAbortsNotHangs) {
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank(1, GetParam());
  RunOptions options;
  options.fault_plan = plan;
  EXPECT_THROW(run_ranks(
                   3,
                   [](Communicator& comm) {
                     comm.barrier();                             // op 0
                     (void)comm.all_gather({static_cast<std::uint8_t>(
                         comm.rank())});                         // op 1
                     (void)comm.all_reduce_sum(1);               // op 2
                     (void)comm.all_reduce_max(
                         static_cast<std::uint64_t>(comm.rank()));  // op 3
                     if (comm.rank() == 1) {
                       comm.send(0, 9, {1});                     // op 4
                     } else if (comm.rank() == 0) {
                       (void)comm.recv(1, 9);
                     }
                     comm.barrier();                             // op 5 (4)
                   },
                   options),
               InjectedFaultError);
  EXPECT_EQ(plan->totals().crashes, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllCollectives, MpsimCrashAtEachOp,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

TEST(MpsimFault, OneShotCrashDoesNotRefire) {
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank(0, 0, /*times=*/1);
  RunOptions options;
  options.fault_plan = plan;
  auto body = [](Communicator& comm) {
    comm.barrier();
    (void)comm.all_reduce_sum(1);
  };
  EXPECT_THROW(run_ranks(2, body, options), InjectedFaultError);
  // The retried world shares the plan; the exhausted trigger stays quiet.
  run_ranks(2, body, options);
  EXPECT_EQ(plan->totals().crashes, 1u);
  EXPECT_GT(plan->ops_seen(0), 0u);
}

TEST(MpsimFault, CorruptedPayloadSurfacesAsCorruptPayloadError) {
  auto plan = std::make_shared<FaultPlan>();
  plan->corrupt_payload(0, 0);
  RunOptions options;
  options.fault_plan = plan;
  using Col = FluxColumn<CheckedI64, Bitset64>;
  EXPECT_THROW(
      run_ranks(
          2,
          [](Communicator& comm) {
            if (comm.rank() == 0) {
              std::vector<Col> columns = {
                  Col::from_values({CheckedI64(5), CheckedI64(10)})};
              comm.send(1, 0, encode_columns(columns));
            } else {
              (void)decode_columns<CheckedI64, Bitset64>(comm.recv(0, 0));
            }
          },
          options),
      CorruptPayloadError);
  EXPECT_EQ(plan->totals().corruptions, 1u);
}

TEST(MpsimFault, DroppedMessageWakesReceiverInsteadOfDeadlocking) {
  auto plan = std::make_shared<FaultPlan>();
  plan->drop_message(0, 1, 0);
  RunOptions options;
  options.fault_plan = plan;
  EXPECT_THROW(run_ranks(
                   2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       comm.send(1, 0, {9});  // silently lost
                     } else {
                       (void)comm.recv(0, 0);
                     }
                   },
                   options),
               AbortedError);
  EXPECT_EQ(plan->totals().drops, 1u);
}

TEST(MpsimFault, SecondMessageSurvivesDropOfFirst) {
  auto plan = std::make_shared<FaultPlan>();
  plan->drop_message(0, 1, 0);
  RunOptions options;
  options.fault_plan = plan;
  run_ranks(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 0, {1});  // dropped
          comm.send(1, 0, {2});  // delivered
        } else {
          EXPECT_EQ(comm.recv(0, 0), Payload{2});
        }
      },
      options);
}

TEST(MpsimFault, StragglerDelaysAreCountedAndHarmless) {
  auto plan = std::make_shared<FaultPlan>();
  plan->straggle(1, /*delay_us=*/200);
  RunOptions options;
  options.fault_plan = plan;
  run_ranks(
      3,
      [](Communicator& comm) {
        for (int i = 0; i < 3; ++i)
          EXPECT_EQ(comm.all_reduce_sum(1), 3u);
      },
      options);
  EXPECT_GE(plan->totals().delays, 3u);
}

}  // namespace
}  // namespace elmo::mpsim
