// Tests for the machine simulator: message passing semantics, logical
// clocks / critical-path accounting, phase volumes, collectives (values
// and cost shapes), abort behavior, and the zero-copy message contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "machine/collectives.hpp"
#include "machine/machine.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::initializer_list<Dist> values) {
  return values;
}

TEST(Machine, PingPong) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({1.5, 2.5}));
      const auto back = comm.recv(1, 8);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_EQ(back[0], 4.0);
    } else {
      const auto data = comm.recv(0, 7);
      ASSERT_EQ(data.size(), 2u);
      comm.send(0, 8, payload({data[0] + data[1]}));
    }
  });
  // Critical path: 2 messages, 3 words.
  EXPECT_EQ(machine.report().critical_latency, 2);
  EXPECT_EQ(machine.report().critical_bandwidth, 3);
  EXPECT_EQ(machine.report().total_messages, 2);
  EXPECT_EQ(machine.report().total_words, 3);
}

TEST(Machine, TagsDisambiguateMessages) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 2, payload({2.0}));
      comm.send(1, 1, payload({1.0}));
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv(0, 1)[0], 1.0);
      EXPECT_EQ(comm.recv(0, 2)[0], 2.0);
    }
  });
}

TEST(Machine, SameTagDifferentSources) {
  Machine machine(3);
  machine.run([](Comm& comm) {
    if (comm.rank() == 2) {
      EXPECT_EQ(comm.recv(0, 5)[0], 10.0);
      EXPECT_EQ(comm.recv(1, 5)[0], 11.0);
    } else {
      comm.send(2, 5, payload({10.0 + comm.rank()}));
    }
  });
}

TEST(Machine, RejectsOutOfRangeRankCounts) {
  // The range CHECK must run before anything is sized from the count;
  // -1 would otherwise escape as std::length_error.
  for (const int ranks : {-1, 0, 4097})
    EXPECT_THROW(Machine machine(ranks), check_error) << ranks;
}

TEST(Machine, SelfSendRejected) {
  Machine machine(1);
  EXPECT_THROW(machine.run([](Comm& comm) {
    const std::vector<Dist> data{1.0};
    comm.send(0, 0, data);
  }),
               check_error);
}

TEST(Machine, RankExceptionPropagatesWithoutDeadlock) {
  Machine machine(2);
  EXPECT_THROW(machine.run([](Comm& comm) {
    if (comm.rank() == 0) throw check_error("rank 0 failed");
    comm.recv(0, 0);  // would block forever without the abort path
  }),
               check_error);
  // The failure, not a deadlock, is what surfaces.
  EXPECT_EQ(machine.deadlock_report(), nullptr);
}

TEST(Machine, UndeliveredMessageDetected) {
  Machine machine(2);
  EXPECT_THROW(machine.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 3, payload({1.0}));
  }),
               check_error);
}

TEST(Machine, RunTwiceResetsCosts) {
  Machine machine(2);
  auto program = [](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, payload({1.0}));
    if (comm.rank() == 1) comm.recv(0, 0);
  };
  machine.run(program);
  machine.run(program);
  EXPECT_EQ(machine.report().total_messages, 1);
}

TEST(Clock, DisjointPairsCountOnce) {
  // Ranks 0→1 and 2→3 send simultaneously: critical latency is 1, not 2.
  Machine machine(4);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, payload({1.0}));
    if (comm.rank() == 1) comm.recv(0, 0);
    if (comm.rank() == 2) comm.send(3, 0, payload({1.0}));
    if (comm.rank() == 3) comm.recv(2, 0);
  });
  EXPECT_EQ(machine.report().critical_latency, 1);
  EXPECT_EQ(machine.report().total_messages, 2);
}

TEST(Clock, SequentialSendsSerializeAtSender) {
  Machine machine(4);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (RankId r = 1; r < 4; ++r) comm.send(r, 0, payload({1.0}));
    } else {
      comm.recv(0, 0);
    }
  });
  EXPECT_EQ(machine.report().critical_latency, 3);
}

TEST(Clock, SequentialReceivesSerializeAtReceiver) {
  Machine machine(4);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (RankId r = 1; r < 4; ++r) comm.recv(r, 0);
    } else {
      comm.send(0, 0, payload({1.0}));
    }
  });
  EXPECT_EQ(machine.report().critical_latency, 3);
}

TEST(Clock, ChainDepthIsPathLength) {
  Machine machine(5);
  machine.run([](Comm& comm) {
    const RankId r = comm.rank();
    if (r > 0) comm.recv(r - 1, 0);
    if (r < 4) comm.send(r + 1, 0, payload({1.0, 2.0}));
  });
  EXPECT_EQ(machine.report().critical_latency, 4);
  EXPECT_EQ(machine.report().critical_bandwidth, 8);
}

TEST(Clock, ResetClockDropsHistory) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, payload({1.0}));
    if (comm.rank() == 1) comm.recv(0, 0);
    comm.reset_clock();
    EXPECT_EQ(comm.clock().latency, 0);
    if (comm.rank() == 1) comm.send(0, 1, payload({1.0}));
    if (comm.rank() == 0) comm.recv(1, 1);
  });
  EXPECT_EQ(machine.report().critical_latency, 1);
}

TEST(Phases, VolumesAttributedPerPhase) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    comm.set_phase("alpha");
    if (comm.rank() == 0) comm.send(1, 0, payload({1.0, 2.0}));
    if (comm.rank() == 1) comm.recv(0, 0);
    comm.set_phase("beta");
    if (comm.rank() == 1) comm.send(0, 1, payload({3.0}));
    if (comm.rank() == 0) comm.recv(1, 1);
  });
  const auto& report = machine.report();
  ASSERT_TRUE(report.phase_total.count("alpha"));
  ASSERT_TRUE(report.phase_total.count("beta"));
  EXPECT_EQ(report.phase_total.at("alpha").messages, 1);
  EXPECT_EQ(report.phase_total.at("alpha").words, 2);
  EXPECT_EQ(report.phase_total.at("beta").words, 1);
}

DistBlock constant_block(std::int64_t n, Dist value) {
  return DistBlock(n, n, value);
}

TEST(Collectives, BroadcastDeliversToAllMembers) {
  Machine machine(6);
  const std::vector<RankId> group{0, 2, 3, 5};
  machine.run([&](Comm& comm) {
    if (std::find(group.begin(), group.end(), comm.rank()) == group.end())
      return;
    DistBlock block(2, 2);
    if (comm.rank() == 3) {
      block = constant_block(2, 7.5);
    }
    group_broadcast(comm, group, 3, block, 42);
    EXPECT_EQ(block.at(1, 1), 7.5);
  });
  // Binomial tree over 4 members: 3 messages total, depth 2.
  EXPECT_EQ(machine.report().total_messages, 3);
  EXPECT_EQ(machine.report().critical_latency, 2);
}

TEST(Collectives, BroadcastLatencyIsLogarithmic) {
  for (int size : {2, 4, 8, 16, 32}) {
    Machine machine(size);
    std::vector<RankId> group(static_cast<std::size_t>(size));
    std::iota(group.begin(), group.end(), 0);
    machine.run([&](Comm& comm) {
      DistBlock block(1, 1);
      if (comm.rank() == 0) block = constant_block(1, 1.0);
      group_broadcast(comm, group, 0, block, 0);
    });
    EXPECT_EQ(machine.report().critical_latency, std::log2(size))
        << "size " << size;
    EXPECT_EQ(machine.report().total_messages, size - 1);
  }
}

TEST(Collectives, BroadcastFromNonFirstRoot) {
  Machine machine(5);
  std::vector<RankId> group{0, 1, 2, 3, 4};
  machine.run([&](Comm& comm) {
    DistBlock block(1, 3);
    if (comm.rank() == 2) {
      block.at(0, 0) = 1;
      block.at(0, 1) = 2;
      block.at(0, 2) = 3;
    }
    group_broadcast(comm, group, 2, block, 9);
    EXPECT_EQ(block.at(0, 2), 3);
  });
}

TEST(Collectives, SingletonGroupIsFree) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() != 0) return;
    const std::vector<RankId> group{0};
    DistBlock block = constant_block(3, 1.0);
    group_broadcast(comm, group, 0, block, 0);
    group_reduce_min(comm, group, 0, block, 1);
  });
  EXPECT_EQ(machine.report().total_messages, 0);
}

TEST(Collectives, ReduceMinComputesElementwiseMin) {
  Machine machine(4);
  const std::vector<RankId> group{0, 1, 2, 3};
  machine.run([&](Comm& comm) {
    DistBlock block(2, 2, static_cast<Dist>(10 + comm.rank()));
    block.at(0, 1) = -comm.rank();
    group_reduce_min(comm, group, 0, block, 5);
    if (comm.rank() == 0) {
      EXPECT_EQ(block.at(0, 0), 10.0);
      EXPECT_EQ(block.at(0, 1), -3.0);
    } else {
      // Non-root contributions unchanged.
      EXPECT_EQ(block.at(0, 0), 10.0 + comm.rank());
    }
  });
  EXPECT_EQ(machine.report().total_messages, 3);
  EXPECT_EQ(machine.report().critical_latency, 2);
}

TEST(Collectives, ReduceWithNonFirstRoot) {
  Machine machine(5);
  const std::vector<RankId> group{1, 2, 3, 4};
  machine.run([&](Comm& comm) {
    if (comm.rank() == 0) return;
    DistBlock block(1, 1, static_cast<Dist>(comm.rank()));
    group_reduce_min(comm, group, 3, block, 5);
    if (comm.rank() == 3) {
      EXPECT_EQ(block.at(0, 0), 1.0);
    }
  });
}

TEST(Collectives, ReduceHandlesInfinities) {
  Machine machine(3);
  const std::vector<RankId> group{0, 1, 2};
  machine.run([&](Comm& comm) {
    DistBlock block(1, 2);  // all infinite
    if (comm.rank() == 1) block.at(0, 0) = 4.0;
    group_reduce_min(comm, group, 0, block, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(block.at(0, 0), 4.0);
      EXPECT_TRUE(is_inf(block.at(0, 1)));
    }
  });
}

TEST(Collectives, GatherCollectsInGroupOrder) {
  Machine machine(3);
  const std::vector<RankId> group{2, 0, 1};
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes{
      {1, 1}, {1, 1}, {1, 1}};
  machine.run([&](Comm& comm) {
    const DistBlock mine(1, 1, static_cast<Dist>(comm.rank()));
    const auto gathered = group_gather(comm, group, 0, mine, shapes, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 3u);
      EXPECT_EQ(gathered[0].at(0, 0), 2.0);
      EXPECT_EQ(gathered[1].at(0, 0), 0.0);
      EXPECT_EQ(gathered[2].at(0, 0), 1.0);
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(Collectives, ScatterDeliversPerMemberBlocks) {
  Machine machine(3);
  const std::vector<RankId> group{0, 1, 2};
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes{
      {1, 1}, {2, 1}, {1, 2}};
  machine.run([&](Comm& comm) {
    std::vector<DistBlock> blocks;
    if (comm.rank() == 1) {
      blocks = {DistBlock(1, 1, 0.0), DistBlock(2, 1, 1.0),
                DistBlock(1, 2, 2.0)};
    }
    const DistBlock mine =
        group_scatter(comm, group, 1, blocks, shapes, 0);
    EXPECT_EQ(mine.at(0, 0), static_cast<Dist>(comm.rank()));
    EXPECT_EQ(mine.rows(), shapes[static_cast<std::size_t>(comm.rank())].first);
  });
}

TEST(Collectives, DuplicateGroupMemberRejected) {
  Machine machine(2);
  EXPECT_THROW(machine.run([](Comm& comm) {
    const std::vector<RankId> group{0, 0};
    DistBlock block(1, 1);
    if (comm.rank() == 0) group_broadcast(comm, group, 0, block, 0);
  }),
               check_error);
}

TEST(Pipelined, BroadcastDeliversCorrectPayload) {
  for (int size : {2, 3, 5, 8}) {
    Machine machine(size);
    std::vector<RankId> group(static_cast<std::size_t>(size));
    std::iota(group.begin(), group.end(), 0);
    machine.run([&](Comm& comm) {
      DistBlock block(4, 5);
      if (comm.rank() == 1 % size) {
        for (std::int64_t i = 0; i < block.size(); ++i)
          block.data()[static_cast<std::size_t>(i)] = static_cast<Dist>(i);
      }
      group_broadcast(comm, group, 1 % size, block, 0,
                      CollectiveAlgorithm::kPipelined);
      for (std::int64_t i = 0; i < block.size(); ++i)
        ASSERT_EQ(block.data()[static_cast<std::size_t>(i)],
                  static_cast<Dist>(i))
            << "size=" << size << " rank=" << comm.rank();
    });
  }
}

TEST(Pipelined, BroadcastMovesFewerWordsThanTreeForBigGroups) {
  constexpr int kSize = 16;
  constexpr std::int64_t kDim = 40;  // 1600-word payload
  auto run_with = [&](CollectiveAlgorithm algorithm) {
    Machine machine(kSize);
    std::vector<RankId> group(kSize);
    std::iota(group.begin(), group.end(), 0);
    machine.run([&](Comm& comm) {
      DistBlock block(kDim, kDim, comm.rank() == 0 ? 1.0 : kInf);
      group_broadcast(comm, group, 0, block, 0, algorithm);
      EXPECT_EQ(block.at(3, 3), 1.0);
    });
    return machine.report();
  };
  const CostReport tree = run_with(CollectiveAlgorithm::kBinomialTree);
  const CostReport pipe = run_with(CollectiveAlgorithm::kPipelined);
  // Tree: root re-sends the payload log2(16) = 4 times -> 4*1600 words on
  // its clock.  Pipelined: scatter (w) + ring (~w sent + ~w received per
  // rank); the serialized-receive accounting puts it a bit under 3w.
  EXPECT_EQ(tree.critical_bandwidth, 4 * kDim * kDim);
  EXPECT_LT(pipe.critical_bandwidth, 3 * kDim * kDim);
  // ...at the price of Θ(k) messages instead of Θ(log k).
  EXPECT_EQ(tree.critical_latency, 4);
  EXPECT_GE(pipe.critical_latency, kSize - 1);
}

TEST(Pipelined, ReduceMinMatchesTreeReduce) {
  for (int size : {2, 3, 4, 7}) {
    for (int root = 0; root < size; ++root) {
      Machine machine(size);
      std::vector<RankId> group(static_cast<std::size_t>(size));
      std::iota(group.begin(), group.end(), 0);
      machine.run([&](Comm& comm) {
        DistBlock block(3, 3, static_cast<Dist>(10 + comm.rank()));
        block.at(0, comm.rank() % 3) = -static_cast<Dist>(comm.rank());
        group_reduce_min(comm, group, root, block, 0,
                         CollectiveAlgorithm::kPipelined);
        if (comm.rank() == root) {
          EXPECT_EQ(block.at(1, 1), 10.0);  // min of 10..10+size-1
          EXPECT_EQ(block.at(0, (size - 1) % 3),
                    size == 4 ? -3.0 : -static_cast<Dist>(size - 1));
        }
      });
    }
  }
}

TEST(Pipelined, ReduceHandlesEmptyAndTinyPayloads) {
  Machine machine(4);
  const std::vector<RankId> group{0, 1, 2, 3};
  machine.run([&](Comm& comm) {
    DistBlock tiny(1, 1, static_cast<Dist>(comm.rank()));
    group_reduce_min(comm, group, 2, tiny, 0,
                     CollectiveAlgorithm::kPipelined);
    if (comm.rank() == 2) {
      EXPECT_EQ(tiny.at(0, 0), 0.0);
    }
    DistBlock empty(0, 3);
    group_broadcast(comm, group, 0, empty, 1,
                    CollectiveAlgorithm::kPipelined);
    group_reduce_min(comm, group, 0, empty, 2,
                     CollectiveAlgorithm::kPipelined);
  });
}

TEST(Machine, SameTagSamePairIsFifo) {
  // Message matching within one (src, dst, tag) triple is FIFO — the
  // pipelined collectives depend on it, so it gets its own stress test.
  constexpr int kMessages = 200;
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i)
        comm.send(1, /*tag=*/7, std::vector<Dist>{static_cast<Dist>(i)});
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const auto got = comm.recv(0, 7);
        ASSERT_EQ(got[0], static_cast<Dist>(i)) << "out of order at " << i;
      }
    }
  });
}

TEST(Machine, FifoPerPairEvenWhenInterleavedWithOtherTags) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        comm.send(1, 1, std::vector<Dist>{static_cast<Dist>(i)});
        comm.send(1, 2, std::vector<Dist>{static_cast<Dist>(100 + i)});
      }
    } else {
      // Drain tag 2 first, then tag 1: both must still be FIFO.
      for (int i = 0; i < 50; ++i)
        ASSERT_EQ(comm.recv(0, 2)[0], static_cast<Dist>(100 + i));
      for (int i = 0; i < 50; ++i)
        ASSERT_EQ(comm.recv(0, 1)[0], static_cast<Dist>(i));
    }
  });
}

TEST(Machine, ManyRanksStress) {
  // 225 ranks (the p used by the benches) exchanging a ring of messages.
  constexpr int kRanks = 225;
  Machine machine(kRanks);
  machine.run([](Comm& comm) {
    const RankId next = (comm.rank() + 1) % kRanks;
    const RankId prev = (comm.rank() + kRanks - 1) % kRanks;
    comm.send(next, 0, std::vector<Dist>{static_cast<Dist>(comm.rank())});
    const auto got = comm.recv(prev, 0);
    EXPECT_EQ(got[0], static_cast<Dist>(prev));
  });
  EXPECT_EQ(machine.report().total_messages, kRanks);
}

/// Address of the words a block reads, without the copy a mutable access
/// of a shared block would make.
std::uintptr_t storage_of(const DistBlock& block) {
  return reinterpret_cast<std::uintptr_t>(block.data().data());
}

DistBlock counting_block(std::int64_t rows, std::int64_t cols) {
  DistBlock block(rows, cols);
  for (std::int64_t i = 0; i < block.size(); ++i)
    block.data()[static_cast<std::size_t>(i)] = 0.5 + static_cast<Dist>(i);
  return block;
}

TEST(ZeroCopy, BroadcastFansOneAllocationOutToEveryMember) {
  constexpr int kRanks = 8;
  const DistBlock original = counting_block(3, 5);
  std::vector<RankId> group(kRanks);
  std::iota(group.begin(), group.end(), 0);
  // Every member's result stays alive until the run ends, so equal
  // addresses can only mean one shared buffer.
  std::vector<DistBlock> results(kRanks);
  std::uintptr_t source_storage = 0;
  Machine machine(kRanks);
  machine.run([&](Comm& comm) {
    const DistBlock source = comm.rank() == 2 ? original : DistBlock();
    DistBlock got = group_broadcast(comm, group, 2, source, 3, 5, 11);
    if (comm.rank() == 2) {
      source_storage = storage_of(source);
      EXPECT_EQ(source, original);
    }
    results[static_cast<std::size_t>(comm.rank())] = std::move(got);
  });
  for (const DistBlock& got : results) {
    EXPECT_TRUE(got.is_shared());
    EXPECT_EQ(got, original);
    EXPECT_EQ(storage_of(got), storage_of(results[0]));
  }
  // The root snapshot its block once; its own block stays private.
  EXPECT_NE(storage_of(results[0]), source_storage);
  EXPECT_EQ(machine.report().total_messages, kRanks - 1);
}

TEST(ZeroCopy, MovedBlockSendHandsItsStorageToTheReceiver) {
  std::uintptr_t sent_storage = 0;
  DistBlock received;
  Machine machine(2);
  machine.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      DistBlock block = counting_block(4, 4);
      sent_storage = storage_of(block);
      comm.send_block(1, 3, std::move(block));
    } else {
      received = comm.recv_block(0, 3, 4, 4);
    }
  });
  EXPECT_EQ(storage_of(received), sent_storage);
  EXPECT_EQ(received, counting_block(4, 4));
}

TEST(ZeroCopy, WritingAReceivedBlockGivesItPrivateStorage) {
  const std::vector<RankId> group{0, 1, 2, 3};
  const DistBlock original = counting_block(2, 3);
  std::vector<DistBlock> results(group.size());
  Machine machine(4);
  machine.run([&](Comm& comm) {
    const DistBlock source = comm.rank() == 0 ? original : DistBlock();
    DistBlock got = group_broadcast(comm, group, 0, source, 2, 3, 5);
    if (comm.rank() == 1) {
      const std::uintptr_t shared = storage_of(got);
      got.at(1, 2) = -7.0;  // first write: copy, then write the copy
      EXPECT_FALSE(got.is_shared());
      EXPECT_NE(storage_of(got), shared);
      EXPECT_EQ(got.at(1, 2), -7.0);
      // Only now may the others look at their blocks.
      for (const RankId r : {0, 2, 3}) comm.send(r, 6, payload({1.0}));
    } else {
      comm.recv(1, 6);
      EXPECT_EQ(got, original);
      EXPECT_EQ(source, comm.rank() == 0 ? original : DistBlock());
    }
    results[static_cast<std::size_t>(comm.rank())] = std::move(got);
  });
  EXPECT_EQ(storage_of(results[0]), storage_of(results[2]));
  EXPECT_EQ(storage_of(results[0]), storage_of(results[3]));
  EXPECT_NE(storage_of(results[1]), storage_of(results[0]));
}

TEST(ZeroCopy, SpanSendCopiesSoTheCallerMayOverwrite) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Dist> buffer{1.0, 2.0, 3.0};
      comm.send(1, 7, buffer);
      buffer[0] = 42.0;  // the message already in flight must not change
      comm.send(1, 8, buffer);
    } else {
      EXPECT_EQ(comm.recv(0, 7), payload({1.0, 2.0, 3.0}));
      EXPECT_EQ(comm.recv(0, 8), payload({42.0, 2.0, 3.0}));
    }
  });
}

}  // namespace
}  // namespace capsp
