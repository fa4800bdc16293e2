// Tests for the black-box flight recorder (util/flightrec.hpp): ring
// recording and wrap-around, thread churn with ring reuse, the dump
// JSON schema and its string escaping, CHECK-failure enrichment (thread
// id + ProfScope stack in the message, a ring event, a dump when a path
// is armed), and the acceptance scenario — a chaos-style service run
// whose dump carries the injected faults, quarantine transitions, and
// the request ids of in-flight queries (docs/observability.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/reference.hpp"
#include "graph/generators.hpp"
#include "serve/servefault.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/context.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

flightrec::Event make_event(const char* name, const char* detail,
                            double ts = 0) {
  flightrec::Event event;
  event.event = name;
  event.file = "test_flightrec.cpp";
  event.line = 1;
  event.level = 2;  // info
  event.ts = ts;
  std::snprintf(event.detail, sizeof(event.detail), "%s", detail);
  return event;
}

// ---------------------------------------------------------------------------
// Recording

TEST(FlightRecorder, RecordedEventsComeBackFromRecentEvents) {
  flightrec::record(make_event("test.rec.alpha", "a=1"));
  flightrec::record(make_event("test.rec.beta", "b=2"));
  const std::string json = flightrec::recent_events_json(1024);
  EXPECT_NE(json.find("\"logs\""), std::string::npos);
  EXPECT_NE(json.find("test.rec.alpha"), std::string::npos);
  EXPECT_NE(json.find("test.rec.beta"), std::string::npos);
  EXPECT_NE(json.find("a=1"), std::string::npos);
}

TEST(FlightRecorder, RingKeepsOnlyTheLastCapacityEvents) {
  // Overfill this thread's ring; the oldest events must be evicted.
  for (std::int64_t i = 0; i < flightrec::kRingCapacity + 50; ++i) {
    char detail[32];
    std::snprintf(detail, sizeof(detail), "i=%lld",
                  static_cast<long long>(i));
    flightrec::record(make_event("test.wrap", detail, 1e9 + double(i)));
  }
  const std::string dump = flightrec::dump_string("wrap_test");
  EXPECT_NE(dump.find("\"i=305\""), std::string::npos)  // the newest
      << dump.substr(0, 400);
  EXPECT_EQ(dump.find("\"i=5\""), std::string::npos);  // evicted
}

TEST(FlightRecorder, RecentEventsAreTimeSortedAndBounded) {
  flightrec::record(make_event("test.sort.late", "", 2e9));
  flightrec::record(make_event("test.sort.early", "", 1.5e9));
  const std::string json = flightrec::recent_events_json(4096);
  const std::size_t early = json.find("test.sort.early");
  const std::size_t late = json.find("test.sort.late");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  // max_events bounds the tail: asking for 1 returns only the newest.
  const std::string tail = flightrec::recent_events_json(1);
  EXPECT_EQ(tail.find("test.sort.early"), std::string::npos);
  EXPECT_NE(tail.find("test.sort.late"), std::string::npos);
}

TEST(FlightRecorder, ThreadChurnReclaimsParkedRings) {
  // Sequential short-lived threads must reuse parked rings, not grow
  // the ring pool without bound.
  const std::int64_t rings_before = flightrec::stats().rings;
  for (int i = 0; i < 16; ++i) {
    std::thread([] {
      flightrec::record(make_event("test.churn", ""));
    }).join();
  }
  const flightrec::Stats stats = flightrec::stats();
  // All 16 ran one-at-a-time: at most one new ring was ever needed.
  EXPECT_LE(stats.rings - rings_before, 1);
}

// ---------------------------------------------------------------------------
// Dump schema

TEST(FlightRecorder, DumpJsonSchemaAndEscaping) {
  flightrec::record(
      make_event("test.schema", "msg=a\"quote\" back\\slash\ttab"));
  const std::string dump = flightrec::dump_string("schema_test");
  EXPECT_EQ(dump.find("{\"flightrec\":{"), 0u);
  for (const char* key :
       {"\"reason\":\"schema_test\"", "\"pid\":", "\"recorded\":",
        "\"ring_capacity\":256", "\"threads\":[", "\"tid\":",
        "\"events\":[", "\"ts\":", "\"level\":\"info\"",
        "\"event\":\"test.schema\""}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key;
  }
  // The writer escapes quotes/backslashes and control chars, so the
  // document stays valid JSON whatever lands in a detail string.
  EXPECT_NE(dump.find("a\\\"quote\\\""), std::string::npos);
  EXPECT_NE(dump.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(dump.find("\\u0009tab"), std::string::npos);
}

TEST(FlightRecorder, DumpFileWritesTheSameDocument) {
  const std::string path = ::testing::TempDir() + "/capsp_frdump.json";
  flightrec::record(make_event("test.dumpfile", "x=1"));
  ASSERT_TRUE(flightrec::dump_file(path, "file_test"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_EQ(dump.find("{\"flightrec\":{"), 0u);
  EXPECT_NE(dump.find("\"reason\":\"file_test\""), std::string::npos);
  EXPECT_NE(dump.find("test.dumpfile"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CHECK-failure enrichment (util/check.cpp)

TEST(CheckFailure, MessageCarriesThreadIdAndScopeStack) {
  try {
    ProfScope outer("test.check.outer");
    ProfScope inner("test.check.inner");
    CAPSP_CHECK_MSG(false, "deliberate");
    FAIL() << "CHECK did not throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deliberate"), std::string::npos);
    EXPECT_NE(what.find("[tid "), std::string::npos);
    EXPECT_NE(what.find("scopes: test.check.outer test.check.inner"),
              std::string::npos)
        << what;
  }
}

TEST(CheckFailure, ScopeStackIsMaintainedEvenWithoutProfiling) {
  // PR8 made ProfScope push frames unconditionally so CHECK context is
  // never empty outside profiling sessions; timing stays gated.
  ASSERT_FALSE(Profiler::global().running());
  try {
    ProfScope scope("test.check.unprofiled");
    CAPSP_CHECK_MSG(false, "x");
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("test.check.unprofiled"),
              std::string::npos);
  }
}

TEST(CheckFailure, RecordsARingEventWithTheFailedExpression) {
  try {
    CAPSP_CHECK_MSG(1 == 2, "never");
  } catch (const check_error&) {
  }
  const std::string recent = flightrec::recent_events_json(16);
  EXPECT_NE(recent.find("check.failed"), std::string::npos);
  EXPECT_NE(recent.find("1 == 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a chaos-style service dump tells the story.

TEST(FlightRecorder, ChaosServiceDumpNamesFaultsQuarantineAndRequests) {
  // Ring-only capture at trace level, exactly as serve_tool arms it
  // when a fault plan is active; the sink stays quiet.
  const LogLevel ring_before = Logger::global().ring_level();
  Logger::global().set_ring_level(LogLevel::kTrace);

  Rng rng(42);
  const Graph graph = make_grid2d(8, 8, rng);
  const DistBlock matrix = reference_apsp(graph);
  // File-backed on purpose: injected read faults only bite on real IO.
  const std::string path = ::testing::TempDir() + "/capsp_frchaos_" +
                           std::to_string(::getpid()) + ".snap";
  write_snapshot(path, matrix, 8);
  const auto reader = std::make_shared<SnapshotReader>(path);

  // Tile 0 is a permanent bad sector: three exhausted fetches quarantine
  // it for the rest of the run, and a fourth request is blocked.
  ServeFaultPlan plan;
  plan.bad_tile = 0;
  plan.bad_tile_fails = 1000000;
  ServeOptions options;
  options.threads = 2;
  options.quarantine_cooldown_ms = 1e9;
  options.trace_sample_every = 1;  // every request carries a trace id
  options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
  DistanceService service(reader, graph, options);

  for (int fetch = 0; fetch <= QuarantineRegistry::kThreshold; ++fetch)
    EXPECT_EQ(service.distance(0, 1).error, ServeError::kDegraded);
  const DistanceReply healthy = service.distance(63, 62);
  EXPECT_EQ(healthy.error, ServeError::kOk);
  EXPECT_EQ(healthy.distance, matrix.at(63, 62));
  service.stop();
  Logger::global().set_ring_level(ring_before);
  std::remove(path.c_str());

  // The post-mortem story, in one dump: the injected fault, the
  // quarantine transition, and the request-scoped job events.
  const std::string dump = flightrec::dump_string("chaos_test");
  EXPECT_NE(dump.find("serve.fault.inject"), std::string::npos);
  EXPECT_NE(dump.find("kind=bad_tile_eio"), std::string::npos);
  EXPECT_NE(dump.find("serve.quarantine.enter"), std::string::npos);
  EXPECT_NE(dump.find("serve.job.start"), std::string::npos);
  // In-flight request ids: the "req" key is only emitted for events
  // recorded inside a LogRequestScope, so its presence is the claim.
  EXPECT_NE(dump.find("\"req\":"), std::string::npos)
      << "no event carried a request id";
}

// ---------------------------------------------------------------------------
// TSan soak: emission × thread churn × concurrent scrapes (the
// acceptance criterion runs this under the sanitizer matrix).

TEST(FlightRecorderSoak, ConcurrentRecordDumpAndChurn) {
  // One deterministic event up front: under heavy CPU oversubscription
  // the scrape loop below can finish before any writer is scheduled, so
  // the final recorded>0 assertion must not depend on thread timing.
  flightrec::record(make_event("test.soak.main", ""));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, t] {
      const RankContextScope context(t, nullptr);
      std::int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        CAPSP_LOG(kDebug, "test.soak", {"i", i++});
      }
    });
  }
  std::thread churn([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::thread([] {
        flightrec::record(make_event("test.soak.churn", ""));
      }).join();
    }
  });
  // Concurrent scrapes: the /logs path and the on-demand dump path.
  for (int i = 0; i < 50; ++i) {
    const std::string recent = flightrec::recent_events_json(64);
    EXPECT_NE(recent.find("\"logs\""), std::string::npos);
    const std::string dump = flightrec::dump_string("soak");
    EXPECT_NE(dump.find("\"flightrec\""), std::string::npos);
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  churn.join();
  EXPECT_GT(flightrec::stats().recorded, 0);
}

}  // namespace
}  // namespace capsp
