// Tests for deadlock detection (watchdog.hpp): wait-for cycle
// detection, the golden hand-built recv cycle, kill/stall fault
// interaction, and post-mortem observability.  A deadlock is reported the
// moment no rank can proceed, so no test here sets a budget or times one.
#include <gtest/gtest.h>

#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/machine.hpp"
#include "machine/watchdog.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::initializer_list<Dist> values) {
  return values;
}

BlockedRecv blocked(RankId rank, RankId src) {
  BlockedRecv b;
  b.rank = rank;
  b.src = src;
  return b;
}

TEST(WaitCycle, FindsThreeCycle) {
  const std::vector<BlockedRecv> waits = {blocked(0, 1), blocked(1, 2),
                                          blocked(2, 0)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{0, 1, 2}));
}

TEST(WaitCycle, ChainIntoUnblockedRankIsNoCycle) {
  // 0 waits on 1, 1 waits on 2, but 2 is not blocked (e.g. dead).
  const std::vector<BlockedRecv> waits = {blocked(0, 1), blocked(1, 2)};
  EXPECT_TRUE(find_wait_cycle(waits).empty());
}

TEST(WaitCycle, FindsCycleBehindAChain) {
  // 5 -> 0 -> 1 -> 0: the cycle is {0, 1}, entered from a tail.
  const std::vector<BlockedRecv> waits = {blocked(5, 0), blocked(0, 1),
                                          blocked(1, 0)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{0, 1}));
}

TEST(WaitCycle, StartsAtSmallestRankPreservingOrder)
{
  // Cycle 3 -> 1 -> 2 -> 3 normalizes to 1 -> 2 -> 3.
  const std::vector<BlockedRecv> waits = {blocked(3, 1), blocked(1, 2),
                                          blocked(2, 3)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{1, 2, 3}));
}

TEST(WaitCycle, TwoRankHandshakeDeadlock) {
  const std::vector<BlockedRecv> waits = {blocked(0, 1), blocked(1, 0)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{0, 1}));
}

/// The golden test of ISSUE.md: a hand-built receive cycle must produce a
/// structured DeadlockReport naming every blocked (rank, src, tag) and
/// the cycle.
TEST(Watchdog, ReportsHandBuiltRecvCycle) {
  Machine machine(3);
  bool threw = false;
  try {
    machine.run([](Comm& comm) {
      comm.set_phase("waiting");
      // Every rank waits on its right neighbor: a 3-cycle, no messages.
      comm.recv((comm.rank() + 1) % 3, /*tag=*/42);
    });
  } catch (const DeadlockError& e) {
    threw = true;
    const DeadlockReport& report = e.report;
    EXPECT_EQ(report.cycle, (std::vector<RankId>{0, 1, 2}));
    EXPECT_TRUE(report.dead.empty());
    ASSERT_EQ(report.blocked.size(), 3u);
    for (const BlockedRecv& b : report.blocked) {
      EXPECT_EQ(b.src, (b.rank + 1) % 3);
      EXPECT_EQ(b.tag, 42);
      EXPECT_EQ(b.phase, "waiting");
      EXPECT_EQ(b.clock.latency, 0);  // blocked before any traffic
    }
    // The human rendering names the pieces apsp_tool prints.
    const std::string text = report.to_string();
    EXPECT_NE(text.find("deadlock: no rank can proceed; 3 blocked receives"),
              std::string::npos);
    EXPECT_NE(text.find("rank 0 <- (src 1, tag 42)"), std::string::npos);
    EXPECT_NE(text.find("wait cycle: 0 -> 1 -> 2 -> 0"), std::string::npos);
  }
  EXPECT_TRUE(threw);
  // The report stays readable on the machine after the throw.
  ASSERT_NE(machine.deadlock_report(), nullptr);
  EXPECT_EQ(machine.deadlock_report()->cycle, (std::vector<RankId>{0, 1, 2}));
}

TEST(Watchdog, KilledRankShowsUpAsDeadNotCycle) {
  Machine machine(2);
  FaultPlan plan;
  plan.rank_faults[1] = RankFault{0, 0};  // rank 1 dies at its first op
  machine.set_fault_plan(plan);
  bool threw = false;
  try {
    machine.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.recv(1, 7);  // waits forever: the sender is dead
      } else {
        comm.send(0, 7, payload({1.0}));  // killed before this sends
      }
    });
  } catch (const DeadlockError& e) {
    threw = true;
    EXPECT_EQ(e.report.dead, (std::vector<RankId>{1}));
    EXPECT_TRUE(e.report.cycle.empty());  // a chain into a corpse
    ASSERT_EQ(e.report.blocked.size(), 1u);
    EXPECT_EQ(e.report.blocked[0].rank, 0);
    EXPECT_EQ(e.report.blocked[0].src, 1);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(machine.report().faults.kills, 1);
}

TEST(Watchdog, LongStallCompletesWithoutReport) {
  // A stalled rank is a slow rank, still running: its peer waits for it
  // however long it naps, and no deadlock is reported.
  Machine machine(2);
  FaultPlan plan;
  plan.rank_faults[1] = RankFault{0, 0.6};
  machine.set_fault_plan(plan);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv(1, 7), payload({1.0}));
    } else {
      comm.send(0, 7, payload({1.0}));
    }
  });
  EXPECT_EQ(machine.report().faults.stalls, 1);
  EXPECT_EQ(machine.report().faults.kills, 0);
  EXPECT_EQ(machine.deadlock_report(), nullptr);
}

TEST(Watchdog, QuietWhenScheduleIsSound) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, payload({2.0}));
    } else {
      EXPECT_EQ(comm.recv(0, 1), payload({2.0}));
    }
  });
  EXPECT_EQ(machine.deadlock_report(), nullptr);
  EXPECT_EQ(machine.report().total_messages, 1);
}

TEST(Watchdog, PostMortemKeepsPartialCostsAndTrace) {
  Machine machine(2);
  machine.enable_tracing(true);
  EXPECT_THROW(machine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 1, payload({1.0, 2.0}));
                   comm.recv(1, 99);  // never sent
                 } else {
                   comm.recv(0, 1);
                 }
               }),
               DeadlockError);
  // The send that did happen is still metered and traced — that is the
  // (L, B)-stamped context the DeadlockReport is read against.
  EXPECT_EQ(machine.report().total_messages, 1);
  EXPECT_EQ(machine.report().total_words, 2);
  ASSERT_TRUE(machine.trace().enabled());
  EXPECT_GT(machine.trace().num_events(), 0u);
  ASSERT_NE(machine.deadlock_report(), nullptr);
  ASSERT_EQ(machine.deadlock_report()->blocked.size(), 1u);
  EXPECT_EQ(machine.deadlock_report()->blocked[0].rank, 0);
  // The blocked receive carries the rank's clock: one send = (1, 2).
  EXPECT_EQ(machine.deadlock_report()->blocked[0].clock.latency, 1);
  EXPECT_EQ(machine.deadlock_report()->blocked[0].clock.words, 2);
}

TEST(Deadlock, CleanRunScheduleBugIsReported) {
  // No fault plan: a schedule bug alone (each rank receives from the next,
  // nobody sends) is reported rather than left to hang.
  Machine machine(3);
  try {
    machine.run([](Comm& comm) { comm.recv((comm.rank() + 1) % 3, 5); });
    ADD_FAILURE() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.report.cycle, (std::vector<RankId>{0, 1, 2}));
    EXPECT_TRUE(e.report.dead.empty());
    ASSERT_EQ(e.report.blocked.size(), 3u);
    for (const BlockedRecv& b : e.report.blocked) {
      EXPECT_EQ(b.src, (b.rank + 1) % 3);
      EXPECT_EQ(b.tag, 5);
    }
  }
}

TEST(Deadlock, KillInsideGridSolveNamesTheDeadRank) {
  // Rank 3 dies at its first operation of a 12x12 grid solve at h = 3
  // (p = 49); the survivors that need it block, and the run is reported
  // as soon as nothing else can run.
  Rng rng(1);
  const Graph graph = make_named_graph("grid", 144, rng);
  SparseApspOptions options;
  options.height = 3;
  options.fault_plan = FaultPlan::parse("seed=7,kill=3@0");
  try {
    run_sparse_apsp(graph, options);
    ADD_FAILURE() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.report.dead, (std::vector<RankId>{3}));
    EXPECT_FALSE(e.report.blocked.empty());
    EXPECT_TRUE(e.report.cycle.empty());  // every chain ends at the corpse
    for (const BlockedRecv& b : e.report.blocked) EXPECT_NE(b.rank, 3);
  }
}

}  // namespace
}  // namespace capsp
