// Ranks as fibers (machine/fibers.hpp, DESIGN.md decision 15): a run on
// one carrier gives the distances and (L,B) of a run on every CPU, a
// scope parked in a receive is billed only its own fiber's CPU, and a
// rank that overflows its stack still leaves a flight-recorder dump.
#include <gtest/gtest.h>
#include <signal.h>
#include <time.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/fibers.hpp"
#include "machine/machine.hpp"
#include "one_cpu.hpp"
#include "util/context.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

double thread_cpu_now() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

TEST(Fibers, APinnedRunHasOneCarrierTheCallingThread) {
  const OneCpu pin;
  EXPECT_EQ(Fibers::carrier_count(49), 1);
  const std::uint64_t caller = os_thread_id();
  std::vector<std::uint64_t> tids(49, 0);
  Machine(49).run([&tids](Comm& comm) {
    // A ring around the machine, so every rank parks at least once.
    const RankId next = (comm.rank() + 1) % comm.size();
    const RankId prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send(next, 0, std::vector<Dist>{1.0});
    comm.recv(prev, 0);
    tids[static_cast<std::size_t>(comm.rank())] = os_thread_id();
  });
  EXPECT_EQ(std::set<std::uint64_t>(tids.begin(), tids.end()),
            std::set<std::uint64_t>{caller});
}

struct SolveCase {
  const char* name;
  int side;
  int height;
  SparseApspResult (*solve)(const Graph&, const SparseApspOptions&);
  bool faults;
};

SparseApspResult sparse(const Graph& graph, const SparseApspOptions& options) {
  return run_sparse_apsp(graph, options);
}

TEST(Fibers, OneCarrierSolvesMatchUnpinnedRunsBitForBit) {
  const SolveCase cases[] = {
      {"sparse p=49", 16, 3, &sparse, false},
      {"sparse p=225", 20, 4, &sparse, false},
      {"bottleneck p=49", 16, 3, &run_sparse_bottleneck, false},
      {"bottleneck p=225", 20, 4, &run_sparse_bottleneck, false},
      {"closure p=49", 16, 3, &run_sparse_closure, false},
      {"closure p=225", 20, 4, &run_sparse_closure, false},
      {"reliable under faults p=49", 16, 3, &sparse, true},
      {"reliable under faults p=225", 20, 4, &sparse, true},
  };
  for (const SolveCase& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(11);
    const Graph graph = make_grid2d(c.side, c.side, rng);
    SparseApspOptions options;
    options.height = c.height;
    if (c.faults) {
      options.fault_plan =
          FaultPlan::parse("seed=5,drop=0.05,dup=0.02,corrupt=0.02,delay=0.05");
      options.reliable = true;
    }
    const SparseApspResult unpinned = c.solve(graph, options);
    SparseApspResult pinned;
    {
      const OneCpu pin;
      pinned = c.solve(graph, options);
    }
    ASSERT_EQ(pinned.num_ranks, unpinned.num_ranks);
    EXPECT_EQ(pinned.costs.critical_latency, unpinned.costs.critical_latency);
    EXPECT_EQ(pinned.costs.critical_bandwidth,
              unpinned.costs.critical_bandwidth);
    EXPECT_EQ(pinned.costs.total_messages, unpinned.costs.total_messages);
    EXPECT_EQ(pinned.costs.total_words, unpinned.costs.total_words);
    const auto a = pinned.distances.data();
    const auto b = unpinned.distances.data();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
  }
}

TEST(Fibers, AParkedScopeIsBilledOnlyItsOwnFibersCpu) {
  const OneCpu pin;
  ProfOptions options;
  options.hz = 61;
  options.perf_counters = false;
  ASSERT_TRUE(Profiler::global().start(options));
  std::uint64_t waiter = 0, burner = 0;
  Machine(2).run([&](Comm& comm) {
    if (comm.rank() == 1) {
      const ProfScope scope("test.fibers.parked");
      waiter = os_thread_id();
      comm.send(0, 0, std::vector<Dist>{});  // ready: about to park
      comm.recv(0, 1);
      return;
    }
    comm.recv(1, 0);
    // Rank 1 is parked inside its scope; burn this carrier's CPU.
    burner = os_thread_id();
    const double until = thread_cpu_now() + 0.06;
    while (thread_cpu_now() < until) {
    }
    comm.send(1, 1, std::vector<Dist>{});
  });
  const ProfReport report = Profiler::global().stop();
  EXPECT_EQ(waiter, burner) << "both ranks ran on the one carrier";
  const auto it = report.kernels.find("test.fibers.parked");
  ASSERT_NE(it, report.kernels.end());
  EXPECT_LT(it->second.seconds, 0.005);
}

/// Recurses until the fiber's guard page stops it.
int overflow(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth < 0) return 0;  // never: keeps the recursion finite to GCC
  return overflow(depth + 1) + frame[0];
}

TEST(FibersDeathTest, ARankThatOverflowsItsStackLeavesADump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The same name in the re-executed child that dies and in this parent.
  const std::string path = ::testing::TempDir() + "fibers_overflow.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        flightrec::set_dump_path(path);
        flightrec::install_crash_handlers();
        Machine(2).run([](Comm& comm) {
          CAPSP_LOG(kWarn, "test.fibers.overflow", {"rank", comm.rank()});
          if (comm.rank() == 1) overflow(1);
        });
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  std::ifstream in(path);
  const std::string dump((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(dump.find("\"reason\":\"SIGSEGV\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("test.fibers.overflow"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capsp
