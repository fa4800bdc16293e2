// Tests for the fault-injection harness (fault.hpp): plan parsing,
// injector determinism, each fault class observed end-to-end on the raw
// transport, and the seeded soak test asserting that the reliable
// transport delivers bit-identical distance matrices under survivable
// fault plans (with plan shrinking on failure).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/collectives.hpp"
#include "machine/fault.hpp"
#include "machine/machine.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::initializer_list<Dist> values) {
  return values;
}

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7,drop=0.05,dup=0.01,corrupt=0.02,delay=0.05,kill=3@120,"
      "stall=2@10:0.5");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.drop, 0.05);
  EXPECT_EQ(plan.duplicate, 0.01);
  EXPECT_EQ(plan.corrupt, 0.02);
  EXPECT_EQ(plan.delay, 0.05);
  ASSERT_EQ(plan.rank_faults.size(), 2u);
  EXPECT_EQ(plan.rank_faults.at(3).op_index, 120);
  EXPECT_EQ(plan.rank_faults.at(3).stall_seconds, 0);  // kill
  EXPECT_EQ(plan.rank_faults.at(2).op_index, 10);
  EXPECT_EQ(plan.rank_faults.at(2).stall_seconds, 0.5);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const std::string spec =
      "seed=9,drop=0.1,corrupt=0.25,kill=1@4,stall=5@2:0.125";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_EQ(again.drop, plan.drop);
  EXPECT_EQ(again.corrupt, plan.corrupt);
  EXPECT_EQ(again.rank_faults.at(1).op_index, 4);
  EXPECT_EQ(again.rank_faults.at(5).stall_seconds, 0.125);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), check_error);
  EXPECT_THROW(FaultPlan::parse("drop=abc"), check_error);
  EXPECT_THROW(FaultPlan::parse("explode=0.5"), check_error);
  EXPECT_THROW(FaultPlan::parse("kill=3"), check_error);       // missing @op
  EXPECT_THROW(FaultPlan::parse("stall=3@5"), check_error);    // missing :s
  EXPECT_THROW(FaultPlan::parse("stall=3@5:inf"), check_error);  // not finite
  // Finite, but past std::chrono::nanoseconds: sleep_for would overflow.
  EXPECT_THROW(FaultPlan::parse("stall=3@5:1e300"), check_error);
  EXPECT_THROW(FaultPlan::parse("drop=0.6,delay=0.6"), check_error);  // >1
  EXPECT_THROW(FaultPlan::parse("kill=1@2,kill=1@3"), check_error);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_FALSE(FaultPlan::parse("drop=0.1").empty());
  EXPECT_FALSE(FaultPlan::parse("kill=0@0").empty());
}

TEST(FaultInjector, DecisionsAreSeedDeterministic) {
  const FaultPlan plan = FaultPlan::parse("seed=5,drop=0.3,dup=0.2,delay=0.2");
  FaultInjector a(plan, 4);
  FaultInjector b(plan, 4);
  for (int i = 0; i < 200; ++i)
    for (RankId r = 0; r < 4; ++r) EXPECT_EQ(a.decide(r), b.decide(r));
}

TEST(FaultInjector, RankStreamsAreIndependent) {
  const FaultPlan plan = FaultPlan::parse("seed=5,drop=0.5");
  // Rank 0's decision sequence must not depend on how often other ranks
  // draw — that is what makes fault runs schedule-independent.
  FaultInjector lone(plan, 2);
  FaultInjector busy(plan, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lone.decide(0), busy.decide(0));
    busy.decide(1);
    busy.decide(1);
  }
}

TEST(FaultInjector, CorruptionFlipsExactlyOneBit) {
  const FaultPlan plan = FaultPlan::parse("seed=3,corrupt=1");
  FaultInjector injector(plan, 1);
  const std::vector<Dist> original{1.0, 2.0, 3.0, kInf};
  const Payload frame(original);
  const Payload mangled = injector.corrupted_copy(0, frame);
  EXPECT_EQ(frame, original);  // the shared frame is never written
  ASSERT_EQ(mangled.size(), original.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i)
    flipped_bits += std::popcount(std::bit_cast<std::uint64_t>(original[i]) ^
                                  std::bit_cast<std::uint64_t>(mangled[i]));
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultInjector, TargetRankOutOfRangeRejected) {
  EXPECT_THROW(FaultInjector(FaultPlan::parse("kill=9@0"), 4), check_error);
}

TEST(RawTransport, CorruptionIsSilentlyVisibleToTheProgram) {
  // corrupt=1 mangles every frame; without the reliable layer the program
  // simply reads damaged data — the motivation for payload checksums.
  Machine machine(2);
  machine.set_fault_plan(FaultPlan::parse("seed=3,corrupt=1"));
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({1.0, 2.0}));
    } else {
      const auto got = comm.recv(0, 7);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_NE(got, payload({1.0, 2.0}));  // exactly one bit differs
    }
  });
  EXPECT_EQ(machine.report().faults.corruptions, 1);
}

TEST(RawTransport, CorruptionOfASharedPayloadStaysPrivateToItsFrame) {
  // The root's one broadcast payload goes out twice, and corrupt=1
  // mangles both frames.  Each receiver sees exactly its own flipped bit;
  // the root's result, which reads the very same payload, sees none.
  const std::vector<RankId> group{0, 1, 2};
  DistBlock original(2, 3);
  for (std::int64_t r = 0; r < 2; ++r)
    for (std::int64_t c = 0; c < 3; ++c) original.at(r, c) = 1.5 + r * 3 + c;
  const auto flipped_bits = [&](const DistBlock& got) {
    int bits = 0;
    for (std::int64_t r = 0; r < 2; ++r)
      for (std::int64_t c = 0; c < 3; ++c)
        bits += std::popcount(std::bit_cast<std::uint64_t>(got.at(r, c)) ^
                              std::bit_cast<std::uint64_t>(original.at(r, c)));
    return bits;
  };
  Machine machine(3);
  machine.set_fault_plan(FaultPlan::parse("seed=3,corrupt=1"));
  machine.run([&](Comm& comm) {
    const DistBlock source = comm.rank() == 0 ? original : DistBlock();
    const DistBlock got = group_broadcast(comm, group, 0, source, 2, 3, 7);
    if (comm.rank() == 0) {
      EXPECT_TRUE(got.is_shared());  // the payload both frames carried
      EXPECT_EQ(flipped_bits(got), 0);
      EXPECT_EQ(flipped_bits(source), 0);
    } else {
      EXPECT_EQ(flipped_bits(got), 1) << "rank " << comm.rank();
    }
  });
  EXPECT_EQ(machine.report().faults.corruptions, 2);
}

TEST(RawTransport, DuplicateArrivesTwice) {
  Machine machine(2);
  machine.set_fault_plan(FaultPlan::parse("seed=3,dup=1"));
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({5.0}));
    } else {
      EXPECT_EQ(comm.recv(0, 7), payload({5.0}));
      EXPECT_EQ(comm.recv(0, 7), payload({5.0}));  // the network's copy
    }
  });
  EXPECT_EQ(machine.report().faults.duplicates, 1);
}

TEST(RawTransport, DropStarvesTheReceiverUntilTheWatchdogCallsIt) {
  Machine machine(2);
  machine.set_fault_plan(FaultPlan::parse("seed=3,drop=1"));
  EXPECT_THROW(machine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 7, payload({5.0}));
                 } else {
                   comm.recv(0, 7);
                 }
               }),
               DeadlockError);
  EXPECT_EQ(machine.report().faults.drops, 1);
}

TEST(RawTransport, DelayedFramesFlushInOrderAtProgramEnd) {
  Machine machine(2);
  machine.set_fault_plan(FaultPlan::parse("seed=3,delay=1"));
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({1.0}));
      comm.send(1, 7, payload({2.0}));
    } else {
      EXPECT_EQ(comm.recv(0, 7), payload({1.0}));
      EXPECT_EQ(comm.recv(0, 7), payload({2.0}));
    }
  });
  EXPECT_EQ(machine.report().faults.delays, 2);
}

TEST(RawTransport, DelayReordersAgainstALaterFrame) {
  // Hunt a seed whose first two decisions are (delay, deliver): the held
  // frame then flushes after the second one, swapping their order.
  const char* base = "delay=0.5,seed=";
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate < 200; ++candidate) {
    FaultInjector probe(FaultPlan::parse(base + std::to_string(candidate)),
                        2);
    if (probe.decide(0) == FaultDecision::kDelay &&
        probe.decide(0) == FaultDecision::kDeliver) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u);
  Machine machine(2);
  machine.set_fault_plan(FaultPlan::parse(base + std::to_string(seed)));
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({1.0}));  // delayed
      comm.send(1, 7, payload({2.0}));  // delivered, then 1.0 flushes
    } else {
      EXPECT_EQ(comm.recv(0, 7), payload({2.0}));
      EXPECT_EQ(comm.recv(0, 7), payload({1.0}));
    }
  });
  EXPECT_EQ(machine.report().faults.delays, 1);
}

TEST(ReliableTransport, GivesUpWhenEveryRetryIsDropped) {
  Machine machine(2);
  machine.set_fault_plan(FaultPlan::parse("seed=3,drop=1"));
  machine.enable_reliable_transport(true);
  bool gave_up = false;
  try {
    machine.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 7, payload({5.0}));
      } else {
        comm.recv(0, 7);
      }
    });
  } catch (const check_error& e) {
    gave_up = std::string(e.what()).find("gave up") != std::string::npos;
  }
  EXPECT_TRUE(gave_up);
  EXPECT_EQ(machine.report().reliability.give_ups, 1);
  // The first try and every retransmission.
  EXPECT_EQ(machine.report().faults.drops,
            ReliableComm::kMaxRetransmissions + 1);
}

// ---------------------------------------------------------------------------
// Soak: seeded random fault plans on the real algorithm, asserting
// bit-identical distances against the fault-free run, with plan shrinking
// on failure so a regression reports the smallest failing fault class.

bool bit_identical(const DistBlock& a, const DistBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (Vertex u = 0; u < a.rows(); ++u)
    for (Vertex v = 0; v < a.cols(); ++v)
      if (std::bit_cast<std::uint64_t>(a.at(u, v)) !=
          std::bit_cast<std::uint64_t>(b.at(u, v)))
        return false;
  return true;
}

bool plan_reproduces(const Graph& graph, const SparseApspOptions& base,
                     const FaultPlan& plan, const DistBlock& expected) {
  SparseApspOptions options = base;
  options.fault_plan = plan;
  options.reliable = true;
  return bit_identical(run_sparse_apsp(graph, options).distances, expected);
}

/// Greedily zero out fault probabilities while the plan still fails, so
/// the assertion message pins the failure on a minimal fault class.
FaultPlan shrink_failing_plan(const Graph& graph,
                              const SparseApspOptions& base, FaultPlan plan,
                              const DistBlock& expected) {
  for (double FaultPlan::*knob :
       {&FaultPlan::drop, &FaultPlan::duplicate, &FaultPlan::corrupt,
        &FaultPlan::delay}) {
    FaultPlan candidate = plan;
    candidate.*knob = 0;
    if (!plan_reproduces(graph, base, candidate, expected))
      plan = candidate;  // still fails without this class: drop it
  }
  return plan;
}

TEST(FaultSoak, ReliableTransportMatchesFaultFreeBitForBit) {
  Rng rng(17);
  const Graph graph = make_grid2d(7, 7, rng);
  SparseApspOptions base;
  base.height = 2;
  const DistBlock expected = run_sparse_apsp(graph, base).distances;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    FaultPlan plan;
    plan.seed = 1000 + trial;
    plan.drop = 0.06;
    plan.duplicate = 0.03;
    plan.corrupt = 0.03;
    plan.delay = 0.05;
    if (!plan_reproduces(graph, base, plan, expected)) {
      const FaultPlan minimal =
          shrink_failing_plan(graph, base, plan, expected);
      FAIL() << "distances diverged under plan \"" << plan.to_string()
             << "\"; minimal failing plan: \"" << minimal.to_string()
             << "\"";
    }
  }
}

TEST(FaultSoak, RetransmissionOverheadIsAccounted) {
  Rng rng(17);
  const Graph graph = make_grid2d(7, 7, rng);
  SparseApspOptions options;
  options.height = 2;
  options.fault_plan = FaultPlan::parse("seed=21,drop=0.15");
  options.reliable = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  const ReliabilityStats& stats = result.costs.reliability;
  EXPECT_GT(stats.frames_sent, 0);
  EXPECT_GT(stats.retransmissions, 0);  // 15% drop over dozens of frames
  EXPECT_EQ(stats.retransmissions, result.costs.faults.drops);
  EXPECT_EQ(stats.give_ups, 0);
}

}  // namespace
}  // namespace capsp
