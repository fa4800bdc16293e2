// Tests for the observability building blocks (docs/telemetry.md):
// Prometheus text exposition (name sanitization, bucket rendering, a
// golden scrape off a live TelemetryServer), RollingHistogram rotation
// under an injected monotonic clock, RequestTrace span trees and the
// RequestTraceLog's sampling/slow routing, and SloTracker burn-rate
// math.  Everything time-dependent injects time_points so the
// assertions are exact, not sleep-based.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/reqtrace.hpp"
#include "serve/slo.hpp"
#include "serve/telemetry.hpp"
#include "util/metrics.hpp"
#include "util/procstat.hpp"
#include "util/prof.hpp"
#include "util/prometheus.hpp"

namespace capsp {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::seconds;

// ---------------------------------------------------------------------
// Prometheus text exposition

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("serve.request.ok"), "serve_request_ok");
  EXPECT_EQ(prometheus_name("serve.cache.shard0.hit"),
            "serve_cache_shard0_hit");
  EXPECT_EQ(prometheus_name("already_valid:name_2"), "already_valid:name_2");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(prometheus_name(""), "_");
}

TEST(Prometheus, GoldenRenderOfASmallRegistry) {
  MetricsRegistry registry;
  registry.gauge_set("cache.bytes", 1.5);
  registry.observe("lat", 1.0);    // bucket 0: le 1
  registry.observe("lat", 3.0);    // bucket 2: le 4
  registry.observe("lat", 100.0);  // bucket 7: le 128
  registry.counter_add("serve.request.ok", 3);
  std::ostringstream out;
  write_prometheus_text(out, registry.snapshot(), "capsp_");
  EXPECT_EQ(out.str(),
            "# TYPE capsp_cache_bytes gauge\n"
            "capsp_cache_bytes 1.5\n"
            "# TYPE capsp_lat histogram\n"
            "capsp_lat_bucket{le=\"1\"} 1\n"
            "capsp_lat_bucket{le=\"4\"} 2\n"
            "capsp_lat_bucket{le=\"128\"} 3\n"
            "capsp_lat_bucket{le=\"+Inf\"} 3\n"
            "capsp_lat_sum 104\n"
            "capsp_lat_count 3\n"
            "# TYPE capsp_serve_request_ok counter\n"
            "capsp_serve_request_ok 3\n");
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndSkipEmpties) {
  MetricsRegistry registry;
  for (int i = 0; i < 10; ++i) registry.observe("h", 0.5);  // all bucket 0
  registry.observe("h", 1000.0);  // bucket 10: le 1024
  std::ostringstream out;
  write_prometheus_text(out, registry.snapshot());
  const std::string text = out.str();
  // The empty buckets between le=1 and le=1024 must not be rendered, and
  // the rendered counts are cumulative.
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 10\n"), std::string::npos);
  EXPECT_EQ(text.find("le=\"2\""), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"1024\"} 11\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 11\n"), std::string::npos);
  EXPECT_NE(text.find("h_count 11\n"), std::string::npos);
}

TEST(Prometheus, NonFiniteGaugesUsePrometheusSpelling) {
  MetricsRegistry registry;
  registry.gauge_set("g", std::numeric_limits<double>::infinity());
  std::ostringstream out;
  write_prometheus_text(out, registry.snapshot());
  EXPECT_EQ(out.str(), "# TYPE g gauge\ng +Inf\n");
}

// ---------------------------------------------------------------------
// RollingHistogram under an injected clock

TEST(RollingHistogram, WindowSlidesAndExpiresOldSlices) {
  using Clock = RollingHistogram::Clock;
  const Clock::time_point e = Clock::now();
  RollingHistogram window(10.0, 5, e);  // 5 slices of 2 s
  EXPECT_DOUBLE_EQ(window.window_seconds(), 10.0);
  window.observe(100.0, e + seconds(1));  // slice 0
  window.observe(200.0, e + seconds(3));  // slice 1

  WindowStats stats = window.stats(e + seconds(3));
  EXPECT_EQ(stats.count, 2);
  EXPECT_DOUBLE_EQ(stats.min, 100.0);
  EXPECT_DOUBLE_EQ(stats.max, 200.0);
  EXPECT_DOUBLE_EQ(stats.mean, 150.0);
  // Covered time is the elapsed 3 s, not the configured 10 s, so an
  // early-run rate is not understated.
  EXPECT_DOUBLE_EQ(stats.covered_seconds, 3.0);
  EXPECT_DOUBLE_EQ(stats.rate_per_second, 2.0 / 3.0);

  // At t=11 s slice 0 (t<2 s) has left the window; only the 200 remains.
  stats = window.stats(e + seconds(11));
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.min, 200.0);
  EXPECT_DOUBLE_EQ(stats.covered_seconds, 10.0);

  // A much later observation recycles the slice slot in place (lazy
  // rotation): old contents must not leak into the new window.
  window.observe(300.0, e + seconds(21));
  stats = window.stats(e + seconds(21));
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.min, 300.0);
  EXPECT_DOUBLE_EQ(stats.max, 300.0);
}

TEST(RollingHistogram, EmptyWindowIsZerosNotGarbage) {
  using Clock = RollingHistogram::Clock;
  const Clock::time_point e = Clock::now();
  RollingHistogram window(10.0, 5, e);
  WindowStats stats = window.stats(e);
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.rate_per_second, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99, 0.0);
  // Covered time never drops below one slice, so a first-instant burst
  // cannot produce an infinite rate.
  EXPECT_DOUBLE_EQ(stats.covered_seconds, 2.0);

  // A window everything has rotated out of is empty again.
  window.observe(1.0, e + seconds(1));
  stats = window.stats(e + seconds(100));
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.rate_per_second, 0.0);
}

TEST(RollingHistogram, PercentilesComeFromTheMergedWindow) {
  using Clock = RollingHistogram::Clock;
  const Clock::time_point e = Clock::now();
  RollingHistogram window(10.0, 5, e);
  // Two slices merge into one distribution: 90% fast, 10% slow.
  for (int i = 0; i < 90; ++i) window.observe(10.0, e + seconds(1));
  for (int i = 0; i < 10; ++i) window.observe(5000.0, e + seconds(3));
  const WindowStats stats = window.stats(e + seconds(4));
  EXPECT_EQ(stats.count, 100);
  // The log2 histogram answers within its 2x bucket resolution for the
  // body and exactly (clamped to max) for the tail.
  EXPECT_GE(stats.p50, 10.0);
  EXPECT_LE(stats.p50, 16.0);
  EXPECT_DOUBLE_EQ(stats.p99, 5000.0);
  EXPECT_DOUBLE_EQ(stats.max, 5000.0);
}

TEST(RollingHistogram, SparseWindowPercentilesFromASingleObservation) {
  // The degenerate-but-common idle-service shape: one slice holds one
  // sample, the rest of the window is empty.  Every percentile must be
  // that sample (clamped to the exact max), never a bucket midpoint of
  // an empty histogram.
  using Clock = RollingHistogram::Clock;
  const Clock::time_point e = Clock::now();
  RollingHistogram window(10.0, 5, e);
  window.observe(42.0, e + seconds(7));
  const WindowStats stats = window.stats(e + seconds(8));
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.min, 42.0);
  EXPECT_DOUBLE_EQ(stats.max, 42.0);
  EXPECT_DOUBLE_EQ(stats.mean, 42.0);
  // With a single sample, p50/p95/p99 all land on it (log2 buckets
  // clamp the last percentile to the observed max).
  EXPECT_GE(stats.p50, 42.0 / 2);
  EXPECT_LE(stats.p50, 64.0);
  EXPECT_DOUBLE_EQ(stats.p99, 42.0);

  // Percentiles of a window that sees counts only in its oldest live
  // slice (everything newer empty) still come from that slice.
  const WindowStats late = window.stats(e + seconds(15));
  EXPECT_EQ(late.count, 1);
  EXPECT_DOUBLE_EQ(late.p99, 42.0);
}

// ---------------------------------------------------------------------
// RequestTrace / RequestTraceLog

TEST(RequestTrace, SpanTreeNestingRenameDetailAndFinishClamp) {
  using Clock = RequestTrace::Clock;
  const Clock::time_point epoch = Clock::now();
  RequestTrace trace(42, "path", 3, 9, -1, /*sampled=*/true, epoch);
  EXPECT_EQ(trace.id(), 42);
  EXPECT_STREQ(trace.kind(), "path");
  EXPECT_EQ(trace.u(), 3);
  EXPECT_EQ(trace.v(), 9);
  EXPECT_EQ(trace.k(), -1);
  EXPECT_TRUE(trace.sampled());
  EXPECT_GE(trace.start_offset_us(), 0.0);

  const Clock::time_point base = Clock::now();
  trace.mark_dequeued(base);
  const std::int64_t a = trace.begin_span("tile.cache_miss",
                                          base + microseconds(2));
  trace.set_span_detail(a, "tile", 17);
  const std::int64_t b = trace.begin_span("tile.snapshot_read",
                                          base + microseconds(3));
  trace.end_span(b, base + microseconds(5));
  trace.set_span_name(a, "tile.cache_hit");
  trace.end_span(a, base + microseconds(6));
  trace.begin_span("path.hop", base + microseconds(7));  // left open
  trace.finish("ok", base + microseconds(10));

  EXPECT_STREQ(trace.outcome(), "ok");
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_STREQ(spans[0].name, "queue_wait");
  EXPECT_STREQ(spans[1].name, "execute");
  EXPECT_STREQ(spans[2].name, "tile.cache_hit");  // renamed from miss
  EXPECT_STREQ(spans[3].name, "tile.snapshot_read");
  EXPECT_STREQ(spans[4].name, "path.hop");
  // Parents: queue_wait and execute are top level; the tile spans nest
  // under execute, the snapshot read under the cache span.
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[4].parent, 1);
  EXPECT_STREQ(spans[2].detail_name, "tile");
  EXPECT_EQ(spans[2].detail, 17);
  // Injected times make durations exact.
  EXPECT_NEAR(spans[3].end_us - spans[3].start_us, 2.0, 1e-6);
  EXPECT_NEAR(spans[2].end_us - spans[2].start_us, 4.0, 1e-6);
  // finish() closed the open spans (execute, path.hop) at the end.
  EXPECT_DOUBLE_EQ(spans[1].end_us, trace.total_us());
  EXPECT_DOUBLE_EQ(spans[4].end_us, trace.total_us());
  EXPECT_GE(trace.total_us(), 10.0);
}

TEST(RequestTrace, NullTraceScopedSpanIsANoOp) {
  ScopedSpan span(nullptr, "anything");
  span.rename("still nothing");
  span.detail("tile", 1);  // must not crash
}

TEST(RequestTraceLog, OneInNSamplingPicksEveryNth) {
  RequestTraceLog log({/*sample_every=*/3, /*slow_us=*/0, /*keep=*/16});
  ASSERT_TRUE(log.enabled());
  int traced = 0;
  for (int i = 0; i < 9; ++i) {
    auto trace = log.maybe_start("distance", i, i + 1, -1);
    // Requests 1, 4, 7 (1-based) draw a trace; the rest return nullptr
    // because the slow log is off.
    if (i % 3 == 0) {
      ASSERT_NE(trace, nullptr) << i;
      EXPECT_TRUE(trace->sampled());
      ++traced;
      trace->finish("ok");
      EXPECT_FALSE(log.finish(std::move(trace)));
    } else {
      EXPECT_EQ(trace, nullptr) << i;
    }
  }
  EXPECT_EQ(traced, 3);
  const RequestTraceLog::Stats stats = log.stats();
  EXPECT_EQ(stats.started, 9);  // every request consumed an id
  EXPECT_EQ(stats.sampled_kept, 3);
  EXPECT_EQ(stats.slow, 0);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(log.kept().size(), 3u);
}

TEST(RequestTraceLog, DisabledLogNeverAllocatesATrace) {
  RequestTraceLog log;  // sample_every=0, slow_us=0
  EXPECT_FALSE(log.enabled());
  EXPECT_EQ(log.maybe_start("distance", 0, 1, -1), nullptr);
  EXPECT_EQ(log.stats().started, 0);
  EXPECT_TRUE(log.kept().empty());
}

TEST(RequestTraceLog, SlowRoutingBeatsSamplingAndRingsAreBounded) {
  using Clock = RequestTrace::Clock;
  // Slow threshold of 1 s: a finish "now" makes a fast trace, a finish
  // 2 s in the future a slow one — deterministic without sleeping.
  RequestTraceLog log({/*sample_every=*/2, /*slow_us=*/1e6, /*keep=*/8});
  const auto start = [&](int i) {
    auto trace = log.maybe_start("distance", i, -1, -1);
    EXPECT_NE(trace, nullptr);  // slow log armed: every request traced
    return trace;
  };
  const auto finish_fast = [&](std::shared_ptr<RequestTrace> trace) {
    trace->finish("ok", Clock::now());
    return log.finish(std::move(trace));
  };
  const auto finish_slow = [&](std::shared_ptr<RequestTrace> trace) {
    trace->finish("ok", Clock::now() + seconds(2));
    return log.finish(std::move(trace));
  };

  EXPECT_FALSE(finish_fast(start(1)));  // sampled → sampled ring
  EXPECT_TRUE(finish_slow(start(2)));   // unsampled but slow → slow ring
  EXPECT_TRUE(finish_slow(start(3)));   // sampled AND slow → slow ring
  EXPECT_FALSE(finish_fast(start(4)));  // neither → dropped

  RequestTraceLog::Stats stats = log.stats();
  EXPECT_EQ(stats.started, 4);
  EXPECT_EQ(stats.slow, 2);
  EXPECT_EQ(stats.sampled_kept, 1);
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_EQ(log.kept().size(), 3u);

  // kSlowKeep bounds the slow ring: kSlowKeep more slow traces evict the
  // oldest two, but the lifetime counter keeps counting.
  constexpr auto kSlowKeep = static_cast<int>(RequestTraceLog::kSlowKeep);
  for (int i = 0; i < kSlowKeep; ++i) EXPECT_TRUE(finish_slow(start(5 + i)));
  stats = log.stats();
  EXPECT_EQ(stats.slow, 2 + kSlowKeep);
  EXPECT_EQ(log.kept().size(), RequestTraceLog::kSlowKeep + 1);  // + sampled
}

TEST(RequestTraceLog, ChromeExportIsACompleteDocument) {
  RequestTraceLog log({/*sample_every=*/1, /*slow_us=*/0, /*keep=*/8});
  auto trace = log.maybe_start("distance", 2, 5, -1);
  ASSERT_NE(trace, nullptr);
  trace->mark_dequeued();
  trace->finish("ok");
  log.finish(std::move(trace));
  std::ostringstream out;
  log.write_chrome_json(out);
  const std::string doc = out.str();
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.substr(doc.size() - 2), "}\n");
  for (const char* needle :
       {"\"displayTimeUnit\"", "\"traceEvents\"", "\"capsp\"",
        "\"req 1 distance\"", "\"queue_wait\"", "\"execute\"",
        "\"reqtrace\"", "\"sample_every\""})
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
}

// ---------------------------------------------------------------------
// SloTracker

TEST(SloTracker, BurnRateAndBudgetMath) {
  using Clock = SloTracker::Clock;
  const Clock::time_point e = Clock::now();
  SloOptions options;
  options.latency_ms = 1;  // 1000 us
  options.latency_target = 0.9;
  options.availability_target = 0.99;
  options.window_seconds = 10;
  SloTracker slo(options, e);

  const Clock::time_point t = e + seconds(1);
  for (int i = 0; i < 8; ++i) slo.record(true, 500.0, t);  // fast successes
  slo.record(true, 2000.0, t);  // success, but over the latency objective
  slo.record(false, 0.0, t);    // rejected: availability-bad only

  const SloTracker::Snapshot snap = slo.snapshot(t);
  EXPECT_TRUE(snap.availability.enabled);
  EXPECT_EQ(snap.availability.total, 10);
  EXPECT_EQ(snap.availability.good, 9);
  EXPECT_DOUBLE_EQ(snap.availability.compliance, 0.9);
  // 10% failed against a 1% budget: the lifetime budget is 10x overspent
  // and the window burns at 10x the sustainable rate.
  EXPECT_NEAR(snap.availability.budget_remaining, -9.0, 1e-9);
  EXPECT_EQ(snap.availability.window_total, 10);
  EXPECT_NEAR(snap.availability.window_bad_fraction, 0.1, 1e-9);
  EXPECT_NEAR(snap.availability.burn_rate, 10.0, 1e-9);

  // The latency objective sees only the 9 successes; the rejection's
  // zero latency must not count as "fast".
  EXPECT_TRUE(snap.latency.enabled);
  EXPECT_EQ(snap.latency.total, 9);
  EXPECT_EQ(snap.latency.good, 8);
  EXPECT_NEAR(snap.latency.compliance, 8.0 / 9.0, 1e-9);
  EXPECT_EQ(snap.latency.window_total, 9);
  EXPECT_NEAR(snap.latency.burn_rate, (1.0 / 9.0) / 0.1, 1e-9);

  // Once the window slides past the burst the burn rate recovers but the
  // lifetime compliance remembers.
  const SloTracker::Snapshot later = slo.snapshot(e + seconds(30));
  EXPECT_EQ(later.availability.window_total, 0);
  EXPECT_DOUBLE_EQ(later.availability.burn_rate, 0.0);
  EXPECT_EQ(later.availability.total, 10);
  EXPECT_DOUBLE_EQ(later.availability.compliance, 0.9);
}

TEST(SloTracker, LatencyObjectiveDisabledWhenThresholdIsZero) {
  SloTracker slo;  // default options: latency_ms = 0
  slo.record(true, 123.0);
  const SloTracker::Snapshot snap = slo.snapshot();
  EXPECT_FALSE(snap.latency.enabled);
  EXPECT_EQ(snap.latency.total, 0);  // nothing recorded against it
  EXPECT_TRUE(snap.availability.enabled);
  EXPECT_EQ(snap.availability.total, 1);
  EXPECT_DOUBLE_EQ(snap.availability.compliance, 1.0);
  EXPECT_DOUBLE_EQ(snap.availability.budget_remaining, 1.0);
}

// ---------------------------------------------------------------------
// TelemetryServer

/// One raw HTTP exchange against 127.0.0.1:`port`.
std::string http_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buffer[4096];
  ssize_t got;
  while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
    response.append(buffer, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_exchange(port,
                       "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

/// Body of a response (after the blank line), or "" if malformed.
std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(TelemetryServer, GoldenScrapeOfALiveEndpoint) {
  MetricsRegistry registry;
  registry.counter_add("serve.request.ok", 7);
  TelemetryServer server;
  server.handle("/metrics", [&registry](const std::string&) {
    std::ostringstream out;
    write_prometheus_text(out, registry.snapshot(), "capsp_");
    return TelemetryResponse{
        200, "text/plain; version=0.0.4; charset=utf-8", out.str()};
  });
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(server.port(), port);
  EXPECT_TRUE(server.running());

  const std::string response = http_get(port, "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  const std::string golden =
      "# TYPE capsp_serve_request_ok counter\ncapsp_serve_request_ok 7\n";
  EXPECT_EQ(body_of(response), golden);
  EXPECT_NE(response.find("Content-Length: " +
                          std::to_string(golden.size())),
            std::string::npos);

  // Scrapes observe live values, not a snapshot from start time.
  registry.counter_add("serve.request.ok", 1);
  EXPECT_NE(body_of(http_get(port, "/metrics")).find("ok 8\n"),
            std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
  EXPECT_EQ(http_get(port, "/metrics"), "");  // nothing listens anymore
}

TEST(TelemetryServer, RoutingAndErrorStatuses) {
  TelemetryServer server;
  server.handle("/ok", [](const std::string&) {
    return TelemetryResponse{200, "text/plain", "fine\n"};
  });
  server.handle("/boom", [](const std::string&) -> TelemetryResponse {
    throw std::runtime_error("kaput");
  });
  const int port = server.start(0);

  EXPECT_NE(http_get(port, "/ok").find("HTTP/1.1 200"), std::string::npos);
  // Query strings are stripped before handler matching.
  EXPECT_NE(http_get(port, "/ok?verbose=1").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/missing").find("HTTP/1.1 404"),
            std::string::npos);
  const std::string boom = http_get(port, "/boom");
  EXPECT_NE(boom.find("HTTP/1.1 500"), std::string::npos);
  EXPECT_NE(boom.find("kaput"), std::string::npos);
  EXPECT_NE(
      http_exchange(port, "POST /ok HTTP/1.1\r\nHost: x\r\n\r\n")
          .find("HTTP/1.1 405"),
      std::string::npos);
  EXPECT_NE(http_exchange(port, "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
}

TEST(TelemetryServer, QueryStringReachesTheHandler) {
  TelemetryServer server;
  server.handle("/echo", [](const std::string& query) {
    return TelemetryResponse{
        200, "text/plain",
        telemetry_query_param(query, "x", "none") + "\n"};
  });
  const int port = server.start(0);
  EXPECT_NE(body_of(http_get(port, "/echo?x=7&y=8")).find("7\n"),
            std::string::npos);
  EXPECT_NE(body_of(http_get(port, "/echo")).find("none\n"),
            std::string::npos);
}

TEST(TelemetryQueryParam, MalformedAndDuplicatedQueries) {
  // First occurrence wins for duplicated keys (so ?seconds=2&seconds=900
  // cannot smuggle a huge window past a validator that reads once).
  EXPECT_EQ(telemetry_query_param("seconds=2&seconds=900", "seconds", "d"),
            "2");
  // Exact-key matching: neither a prefix nor a suffix of the key hits.
  EXPECT_EQ(telemetry_query_param("xseconds=5", "seconds", "d"), "d");
  EXPECT_EQ(telemetry_query_param("secondsx=5", "seconds", "d"), "d");
  EXPECT_EQ(telemetry_query_param("s=1&seconds=4", "seconds", "d"), "4");
  // Malformed fragments (empty pairs, bare keys, stray separators) are
  // skipped, not fatal.
  EXPECT_EQ(telemetry_query_param("&&==&seconds=3&", "seconds", "d"), "3");
  EXPECT_EQ(telemetry_query_param("seconds", "seconds", "d"), "d");
  EXPECT_EQ(telemetry_query_param("seconds=", "seconds", "d"), "d");
  EXPECT_EQ(telemetry_query_param("", "seconds", "d"), "d");
  // A value containing '=' keeps everything after the first one.
  EXPECT_EQ(telemetry_query_param("f=a=b", "f", "d"), "a=b");
}

TEST(TelemetryServer, ProfileStyleValidationOfEdgeCaseQueries) {
  // A handler with /profile's exact validation pattern (strtod + range
  // check): parsing edge cases must come back 400, never crash, and
  // duplicated parameters must resolve to the first value.
  TelemetryServer server;
  server.handle("/window", [](const std::string& query) {
    char* end = nullptr;
    const std::string seconds_str =
        telemetry_query_param(query, "seconds", "2");
    const double parsed = std::strtod(seconds_str.c_str(), &end);
    if (end == seconds_str.c_str() || !(parsed > 0))
      return TelemetryResponse{400, "text/plain", "bad seconds\n"};
    return TelemetryResponse{200, "text/plain",
                             "seconds=" + seconds_str + "\n"};
  });
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  EXPECT_NE(body_of(http_get(port, "/window?seconds=3")).find("seconds=3"),
            std::string::npos);
  // Duplicated parameter: first wins, the 900 never reaches strtod.
  EXPECT_NE(body_of(http_get(port, "/window?seconds=3&seconds=900"))
                .find("seconds=3"),
            std::string::npos);
  for (const char* bad :
       {"/window?seconds=abc", "/window?seconds=-1", "/window?seconds=0",
        "/window?seconds=nanx"}) {
    EXPECT_NE(http_get(port, bad).find("HTTP/1.1 400"), std::string::npos)
        << bad;
  }
  // Absent / empty / malformed queries fall back to the default, 200.
  for (const char* ok :
       {"/window", "/window?", "/window?&&", "/window?seconds=",
        "/window?other=5"}) {
    EXPECT_NE(http_get(port, ok).find("HTTP/1.1 200"), std::string::npos)
        << ok;
  }
  // Unknown paths 404 even with well-formed queries attached.
  EXPECT_NE(http_get(port, "/windows?seconds=2").find("HTTP/1.1 404"),
            std::string::npos);
}

TEST(TelemetryServer, EintrDuringRecvDoesNotDropTheRequest) {
  // Regression (docs/robustness.md): a signal landing mid-recv used to
  // abort the connection; the read loop must retry EINTR and serve the
  // request as if nothing happened.
  TelemetryServer server;
  server.handle("/ok", [](const std::string&) {
    return TelemetryResponse{200, "text/plain", "fine\n"};
  });
  std::atomic<int> interrupted{0};
  server.set_recv_for_test(
      [&interrupted](int fd, void* buf, std::size_t len) -> long {
        // Interrupt the first read of every connection, then behave.
        if (interrupted.fetch_add(1) % 2 == 0) {
          errno = EINTR;
          return -1;
        }
        return ::recv(fd, buf, len, 0);
      });
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  for (int i = 0; i < 3; ++i)
    EXPECT_NE(http_get(port, "/ok").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_GE(interrupted.load(), 6);  // the fake recv actually interposed
}

TEST(TelemetryQueryParam, ParsingEdgeCases) {
  EXPECT_EQ(telemetry_query_param("a=1&b=2", "a", "d"), "1");
  EXPECT_EQ(telemetry_query_param("a=1&b=2", "b", "d"), "2");
  EXPECT_EQ(telemetry_query_param("a=1&b=2", "c", "d"), "d");
  EXPECT_EQ(telemetry_query_param("", "a", "d"), "d");
  // Empty value falls back, so "?seconds=" behaves like an omitted flag.
  EXPECT_EQ(telemetry_query_param("a=&b=2", "a", "d"), "d");
  // A key must match exactly, not as a prefix/suffix of another key.
  EXPECT_EQ(telemetry_query_param("ab=1", "a", "d"), "d");
  EXPECT_EQ(telemetry_query_param("b=2&a=3", "a", "d"), "3");
  // Valueless tokens are skipped, not misparsed.
  EXPECT_EQ(telemetry_query_param("flag&a=1", "a", "d"), "1");
}

// ---------------------------------------------------------------------
// Profiler vs. scraper interleaving

// Soak for the sanitizer builds: worker threads push/pop ProfScopes and
// register/unregister (thread birth/death) while the sampler walks their
// stacks and HTTP scrapers concurrently read process stats and profiler
// status.  Assertions are sanity-only; the value is TSan coverage of the
// scope-stack/ring/registry handoffs under real contention.
TEST(TelemetryServer, ScrapeWhileProfilingSoak) {
  TelemetryServer server;
  server.handle("/stats.json", [](const std::string&) {
    std::ostringstream out;
    const Profiler::Status status = Profiler::global().status();
    MetricsSnapshot snapshot;
    append_process_metrics(snapshot);
    out << "{\"running\": " << (status.running ? "true" : "false")
        << ", \"metrics\": " << snapshot.size() << "}\n";
    return TelemetryResponse{200, "application/json", out.str()};
  });
  const int port = server.start(0);
  ASSERT_GT(port, 0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_acquire)) {
        ProfScope outer("test.soak.outer");
        for (int i = 0; i < 50; ++i) {
          ProfScope inner("test.soak.inner");
          inner.add_ops(10);
          inner.add_bytes(80);
        }
        // Thread churn: short-lived threads exercise registry
        // registration/removal against the sampler's walk.
        std::thread churn([] { ProfScope s("test.soak.churn"); });
        churn.join();
      }
    });
  }
  std::thread scraper([&stop, port] {
    while (!stop.load(std::memory_order_acquire))
      (void)http_get(port, "/stats.json");
  });

  std::int64_t total_samples = 0;
  for (int round = 0; round < 3; ++round) {
    ProfOptions options;
    options.hz = 997;
    ASSERT_TRUE(Profiler::global().start(options));
    EXPECT_FALSE(Profiler::global().start(options));  // busy, not UB
    std::this_thread::sleep_for(milliseconds(60));
    const ProfReport report = Profiler::global().stop();
    EXPECT_TRUE(report.enabled);
    EXPECT_EQ(report.dropped, 0);  // sampler self-drains its ring
    total_samples += report.samples;
    // Kernel accounting from the workers must be visible and coherent.
    const auto it = report.kernels.find("test.soak.inner");
    if (it != report.kernels.end()) {
      EXPECT_EQ(it->second.ops * 8, it->second.bytes);
      EXPECT_GT(it->second.calls, 0);
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  scraper.join();
  EXPECT_FALSE(Profiler::global().running());
  // Three 60 ms windows at ~1 kHz over 3 busy threads: seeing zero
  // samples would mean the sampler never observed a stack.
  EXPECT_GT(total_samples, 0);
}

}  // namespace
}  // namespace capsp
