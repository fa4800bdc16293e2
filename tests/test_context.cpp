// The rank context (util/context.hpp, DESIGN.md decision 14): the pool a
// Machine::run claims its ranks' contexts from, the fields a claimed
// context starts with, the rank, phase and scope stack a CHECK inside a
// rank reports, and a race soak — the sampler and flight-recorder dumps
// walking contexts and rings while runs claim and park them — that the
// TSan leg of the sanitizer matrix makes a real test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "util/check.hpp"
#include "util/context.hpp"
#include "util/flightrec.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"

namespace capsp {
namespace {

TEST(RankContext, ASecondRunReusesTheParkedContextsAndStartsThemClean) {
  constexpr int kRanks = 49;
  current_context();  // the calling thread's own context, made up front
  std::vector<int> clean(kRanks, 0);
  const auto program = [&clean](Comm& comm) {
    const RankContext& context = current_context();
    clean[static_cast<std::size_t>(comm.rank())] =
        context.rank == comm.rank() && context.request_id == -1 &&
        context.phase[0] == '\0' && context.metrics != nullptr &&
        context.depth.load() == 0;
    // Leave state behind that a reused context must not carry over.
    comm.set_phase("L3/R4");
    current_context().request_id = 7;
    CAPSP_LOG(kDebug, "test.context.rank");  // claims a ring
    // Hold every rank's context and ring at once, so the first run
    // reaches the most a run of 49 ranks can claim: a message barrier
    // (every rank reports to rank 0, which answers each once all have).
    if (comm.rank() == 0) {
      for (RankId r = 1; r < kRanks; ++r) comm.recv(r, 0);
      for (RankId r = 1; r < kRanks; ++r) comm.send(r, 1, std::vector<Dist>{});
    } else {
      comm.send(0, 0, std::vector<Dist>{});
      comm.recv(0, 1);
    }
  };

  Machine(kRanks).run(program);
  const std::int64_t contexts = context_pool().made();
  const std::int64_t rings = flightrec::stats().rings;
  for (int r = 0; r < kRanks; ++r) EXPECT_TRUE(clean[r]) << "rank " << r;

  clean.assign(kRanks, 0);
  Machine(kRanks).run(program);
  EXPECT_EQ(context_pool().made(), contexts) << "the pool grew";
  EXPECT_EQ(flightrec::stats().rings, rings) << "the ring pool grew";
  for (int r = 0; r < kRanks; ++r)
    EXPECT_TRUE(clean[r]) << "rank " << r << " started with stale fields";
  // Parked with their ranks: every context's scope stack is empty again.
  for (const RankContext* context = context_pool().first();
       context != nullptr; context = context->next)
    EXPECT_EQ(context->depth.load(), 0);
}

TEST(RankContext, CheckInsideARankCarriesItsRankPhaseAndScopes) {
  Machine machine(4);
  std::string what;
  try {
    machine.run([](Comm& comm) {
      if (comm.rank() != 2) return;
      comm.set_phase("L1/R2");
      const ProfScope scope("test.context.region");
      CAPSP_CHECK_MSG(comm.rank() != 2, "deliberate");
    });
  } catch (const check_error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("deliberate"), std::string::npos) << what;
  EXPECT_NE(what.find("; rank 2; phase L1/R2; scopes: test.context.region]"),
            std::string::npos)
      << what;

  const JsonValue logs = parse_json(flightrec::recent_events_json(0));
  const JsonValue* event = nullptr;
  for (const JsonValue& candidate : logs.find("logs")->find("events")->array)
    if (candidate.find("event")->string == "check.failed" &&
        candidate.find("detail")->string.find("test.context.region") !=
            std::string::npos)
      event = &candidate;
  ASSERT_NE(event, nullptr) << "no check.failed event names the scope";
  ASSERT_NE(event->find("rank"), nullptr);
  EXPECT_EQ(event->find("rank")->number, 2);
  ASSERT_NE(event->find("phase"), nullptr);
  EXPECT_EQ(event->find("phase")->string, "L1/R2");
  EXPECT_NE(event->find("detail")->string.find("comm.rank() != 2"),
            std::string::npos);
}

TEST(RankContextSoak, SamplerAndDumpsWhileRunsClaimAndParkContexts) {
  ProfOptions options;
  options.hz = 2003;
  options.perf_counters = false;
  ASSERT_TRUE(Profiler::global().start(options));
  std::atomic<bool> stop{false};
  std::thread dumper([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string dump = flightrec::dump_string("soak");
      EXPECT_EQ(dump.find("{\"flightrec\":{"), 0u);
    }
  });
  for (int run = 0; run < 3; ++run) {
    Machine(49).run([](Comm& comm) {
      comm.set_phase("soak");
      const ProfScope scope("test.context.soak");
      CAPSP_LOG(kDebug, "test.context.soak", {"rank", comm.rank()});
      const RankId next = (comm.rank() + 1) % comm.size();
      const RankId prev = (comm.rank() + comm.size() - 1) % comm.size();
      for (int i = 0; i < 4; ++i) {
        comm.send(next, i, std::vector<Dist>(16, 1.0));
        comm.recv(prev, i);
      }
    });
  }
  stop.store(true);
  dumper.join();
  const ProfReport report = Profiler::global().stop();
  EXPECT_EQ(report.dropped, 0);
  std::int64_t folded = 0;
  for (const FoldedStack& stack : report.folded) folded += stack.count;
  EXPECT_EQ(folded, report.samples);
}

}  // namespace
}  // namespace capsp
