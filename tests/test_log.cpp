// Tests for the structured logging subsystem (util/log.hpp): level
// filtering with the errors-always-print rule, JSON-lines vs human sink
// formats, per-call-site rate limiting with the drained suppressed
// counter, the injectable clock, rank-context correlation (rank /
// request id / phase), env + flag configuration precedence, and the
// logger↔flight-recorder seam (docs/observability.md).
//
// The Logger is a process-wide singleton, so every test runs under
// LoggerSandbox, which redirects the sink and restores all knobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/context.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

/// Redirects the global logger into a private buffer and restores every
/// knob (level, ring level, json, clock, site limit, sink) on exit.
class LoggerSandbox {
 public:
  LoggerSandbox() {
    Logger& logger = Logger::global();
    level_ = logger.level();
    ring_level_ = logger.ring_level();
    json_ = logger.json();
    limit_ = logger.site_limit_per_second();
    logger.set_sink(&out_);
    logger.set_clock([this] { return clock_; });
  }
  ~LoggerSandbox() {
    Logger& logger = Logger::global();
    logger.set_level(level_);
    logger.set_ring_level(ring_level_);
    logger.set_json(json_);
    logger.set_site_limit_per_second(limit_);
    logger.set_clock(nullptr);
    logger.set_sink(nullptr);
  }

  std::string text() const { return out_.str(); }
  void advance(double seconds) { clock_ += seconds; }

 private:
  std::ostringstream out_;
  double clock_ = 1000.0;  // deterministic "now"
  LogLevel level_;
  LogLevel ring_level_;
  bool json_;
  std::int64_t limit_;
};

int count_lines(const std::string& text) {
  int lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  return lines;
}

// ---------------------------------------------------------------------------
// Levels

TEST(LogLevelNames, RoundTripAndRejection) {
  for (const char* name : {"trace", "debug", "info", "warn", "error",
                           "off"}) {
    EXPECT_STREQ(to_string(log_level_from_string(name)), name);
  }
  EXPECT_THROW(log_level_from_string("verbose"), check_error);
  EXPECT_THROW(log_level_from_string(""), check_error);
}

TEST(Logger, SinkThresholdFiltersBelowLevel) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  CAPSP_LOG(kDebug, "test.debug", {"x", 1});
  CAPSP_LOG(kInfo, "test.info", {"x", 2});
  CAPSP_LOG(kWarn, "test.warn", {"x", 3});
  const std::string text = sandbox.text();
  EXPECT_EQ(text.find("test.debug"), std::string::npos);
  EXPECT_NE(text.find("test.info"), std::string::npos);
  EXPECT_NE(text.find("test.warn"), std::string::npos);
  EXPECT_EQ(count_lines(text), 2);
}

TEST(Logger, ErrorsPrintEvenWhenTheSinkIsOff) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kOff);
  CAPSP_LOG(kWarn, "test.quiet_warn");
  CAPSP_LOG(kError, "test.loud_error", {"what", "boom"});
  const std::string text = sandbox.text();
  EXPECT_EQ(text.find("test.quiet_warn"), std::string::npos);
  EXPECT_NE(text.find("test.loud_error"), std::string::npos);
  EXPECT_NE(text.find("what=boom"), std::string::npos);
}

TEST(Logger, BelowSinkLevelStillReachesTheFlightRecorder) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kOff);
  Logger::global().set_ring_level(LogLevel::kDebug);
  const std::int64_t before = flightrec::stats().recorded;
  CAPSP_LOG(kDebug, "test.ring_only", {"k", 7});
  EXPECT_EQ(sandbox.text(), "");  // sink-silent
  EXPECT_EQ(flightrec::stats().recorded, before + 1);
  const std::string recent = flightrec::recent_events_json(8);
  EXPECT_NE(recent.find("test.ring_only"), std::string::npos);
  EXPECT_NE(recent.find("k=7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Line formats

TEST(Logger, HumanLineCarriesFieldsAndCallSite) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  CAPSP_LOG(kInfo, "test.human", {"tile", 42}, {"ratio", 0.5},
            {"ok", true}, {"name", "r1"});
  const std::string text = sandbox.text();
  EXPECT_NE(text.find("1000.000000 info test.human"), std::string::npos);
  EXPECT_NE(text.find("tile=42"), std::string::npos);
  EXPECT_NE(text.find("ratio=0.5"), std::string::npos);
  EXPECT_NE(text.find("ok=true"), std::string::npos);
  EXPECT_NE(text.find("name=r1"), std::string::npos);
  EXPECT_NE(text.find("test_log.cpp:"), std::string::npos);
}

TEST(Logger, JsonLinesShape) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  Logger::global().set_json(true);
  CAPSP_LOG(kWarn, "test.json", {"tile", 42}, {"why", "io \"err\""});
  const std::string text = sandbox.text();
  EXPECT_NE(text.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"test.json\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(text.find("\"tile\":42"), std::string::npos);
  // String values escape through JsonWriter — embedded quotes stay JSON.
  EXPECT_NE(text.find("\"why\":\"io \\\"err\\\"\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":"), std::string::npos);
  EXPECT_EQ(count_lines(text), 1);
}

// ---------------------------------------------------------------------------
// Context correlation

TEST(Logger, RankRequestAndPhaseContextFlowIntoLines) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  {
    const RankContextScope context(3, nullptr);
    const LogRequestScope request(91);
    log_set_phase("L2/R4");
    CAPSP_LOG(kInfo, "test.context");
    log_set_phase("");
  }
  CAPSP_LOG(kInfo, "test.after_scope");
  const std::string text = sandbox.text();
  const std::size_t first = text.find('\n');
  const std::string line1 = text.substr(0, first);
  const std::string line2 = text.substr(first + 1);
  EXPECT_NE(line1.find("rank=3"), std::string::npos);
  EXPECT_NE(line1.find("req=91"), std::string::npos);
  EXPECT_NE(line1.find("phase=L2/R4"), std::string::npos);
  // The scope restores the previous context on exit: the second line
  // carries no stale rank, request or phase.
  EXPECT_EQ(line2.find("rank="), std::string::npos);
  EXPECT_EQ(line2.find("req="), std::string::npos);
  EXPECT_EQ(line2.find("phase="), std::string::npos);
}

TEST(Logger, ScopesNestAndRestoreThePreviousContext) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  const RankContextScope outer(1, nullptr);
  {
    const RankContextScope inner(2, nullptr);
    CAPSP_LOG(kInfo, "test.inner");
  }
  CAPSP_LOG(kInfo, "test.outer");
  const std::string text = sandbox.text();
  EXPECT_NE(text.find("test.inner rank=2"), std::string::npos);
  EXPECT_NE(text.find("test.outer rank=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rate limiting

TEST(Logger, PerSiteTokenBucketSuppressesAndDrains) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  Logger::global().set_site_limit_per_second(3);
  // One call site throughout: the suppressed counter is per site, so the
  // drain lands on the next event emitted from the SAME CAPSP_LOG line.
  for (int i = 0; i < 11; ++i) {
    if (i == 10) {
      EXPECT_EQ(count_lines(sandbox.text()), 3);
      // A new one-second window opens; the first event through reports
      // how many the bucket swallowed.
      sandbox.advance(1.5);
    }
    CAPSP_LOG(kInfo, "test.flood", {"i", i});
  }
  const std::string text = sandbox.text();
  EXPECT_EQ(count_lines(text), 4);
  EXPECT_NE(text.find("suppressed=7"), std::string::npos);
}

TEST(Logger, RateLimitIsPerCallSite) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  Logger::global().set_site_limit_per_second(1);
  for (int i = 0; i < 5; ++i) CAPSP_LOG(kInfo, "test.site_a");
  for (int i = 0; i < 5; ++i) CAPSP_LOG(kInfo, "test.site_b");
  // One line per site, not one line total.
  const std::string text = sandbox.text();
  EXPECT_NE(text.find("test.site_a"), std::string::npos);
  EXPECT_NE(text.find("test.site_b"), std::string::npos);
  EXPECT_EQ(count_lines(text), 2);
}

// ---------------------------------------------------------------------------
// Configuration

TEST(Logger, ToolFlagOverridesEnvOverridesDefault) {
  LoggerSandbox sandbox;
  // Flag wins over everything.
  ::setenv("CAPSP_LOG_LEVEL", "error", 1);
  log_configure_tool("debug", false, "warn");
  EXPECT_EQ(Logger::global().level(), LogLevel::kDebug);
  // No flag: the environment wins over the tool default.
  log_configure_tool("", false, "warn");
  EXPECT_EQ(Logger::global().level(), LogLevel::kError);
  // Neither: the tool default applies.
  ::unsetenv("CAPSP_LOG_LEVEL");
  log_configure_tool("", false, "warn");
  EXPECT_EQ(Logger::global().level(), LogLevel::kWarn);
  EXPECT_THROW(log_configure_tool("chatty", false, "warn"), check_error);
}

TEST(Logger, ConfigureFromEnvParsesLevelAndJson) {
  LoggerSandbox sandbox;
  ::setenv("CAPSP_LOG_LEVEL", "trace", 1);
  ::setenv("CAPSP_LOG_JSON", "1", 1);
  Logger::global().configure_from_env();
  EXPECT_EQ(Logger::global().level(), LogLevel::kTrace);
  EXPECT_TRUE(Logger::global().json());
  ::setenv("CAPSP_LOG_JSON", "0", 1);
  Logger::global().configure_from_env();
  EXPECT_FALSE(Logger::global().json());
  ::unsetenv("CAPSP_LOG_LEVEL");
  ::unsetenv("CAPSP_LOG_JSON");
}

// ---------------------------------------------------------------------------
// Concurrency smoke (the sanitizer matrix makes this a real test)

TEST(Logger, ConcurrentEmissionFromManyThreadsStaysLineAtomic) {
  LoggerSandbox sandbox;
  Logger::global().set_level(LogLevel::kInfo);
  Logger::global().set_site_limit_per_second(0);  // no throttling
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const RankContextScope context(t, nullptr);
      for (int i = 0; i < kPerThread; ++i)
        CAPSP_LOG(kInfo, "test.concurrent", {"i", i});
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string text = sandbox.text();
  EXPECT_EQ(count_lines(text), kThreads * kPerThread);
  // Whole lines only: every line starts with the pinned timestamp.
  std::size_t pos = 0;
  while (pos < text.size()) {
    EXPECT_EQ(text.compare(pos, 5, "1000."), 0) << "torn line at " << pos;
    pos = text.find('\n', pos) + 1;
  }
}

}  // namespace
}  // namespace capsp
