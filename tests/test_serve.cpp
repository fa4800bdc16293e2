// Tests for the serving layer (serve/service + serve/cache): bit-exact
// answers vs the distance matrix, cache eviction under a tight budget,
// structured overload/deadline/shutdown errors, k-nearest vs brute
// force, per-shard cache counters and their fold into the serve.*
// metrics, request tracing through the service, concurrent soaks — one
// plain, one with tracing on and a live telemetry scraper — for the
// sanitizer matrix, and a pin of every metric a fixed workload reports.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/reference.hpp"
#include "core/path_oracle.hpp"
#include "graph/generators.hpp"
#include "serve/reqtrace.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

struct Fixture {
  Graph graph;
  DistBlock matrix;
  std::shared_ptr<SnapshotReader> reader;
  std::string path;

  ~Fixture() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// A solved grid served from a real CAPSPDB2 file with small tiles.
Fixture make_fixture(Vertex side, std::int64_t tile_dim,
                     bool file_backed = true) {
  Fixture f;
  Rng rng(42);
  f.graph = make_grid2d(side, side, rng);
  f.matrix = reference_apsp(f.graph);
  if (file_backed) {
    // Pid-unique: parallel ctest runs several test_serve processes, and
    // a shared path would let one process O_TRUNC a snapshot another is
    // mid-pread on (a real read error -> spurious quarantine/degraded).
    f.path = ::testing::TempDir() + "/capsp_serve_" +
             std::to_string(::getpid()) + "_" + std::to_string(side) +
             "_" + std::to_string(tile_dim) + ".snap";
    write_snapshot(f.path, f.matrix, tile_dim);
    f.reader = std::make_shared<SnapshotReader>(f.path);
  } else {
    f.reader = std::make_shared<SnapshotReader>(f.matrix, tile_dim);
  }
  return f;
}

/// One blocking HTTP/1.1 GET against 127.0.0.1:`port`; returns the raw
/// response (status line, headers, body) or "" on any socket failure.
std::string http_get(int port, const std::string& path) {
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
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
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

TEST(DistanceService, BitExactWithEvictingCache) {
  const Fixture f = make_fixture(8, 4);
  ServeOptions options;
  options.threads = 3;
  // Far below the 64x64 doubles of the matrix: forces eviction traffic.
  options.cache_bytes = 2048;
  DistanceService service(f.reader, f.graph, options);
  for (Vertex u = 0; u < f.graph.num_vertices(); ++u)
    for (Vertex v = 0; v < f.graph.num_vertices(); ++v) {
      const DistanceReply reply = service.distance(u, v);
      ASSERT_EQ(reply.error, ServeError::kOk);
      ASSERT_EQ(reply.distance, f.matrix.at(u, v)) << u << "," << v;
    }
  const TileCache::Stats stats = service.cache_stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, options.cache_bytes);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(f.graph.num_vertices()) *
                f.graph.num_vertices());
}

TEST(DistanceService, PathsMatchThePathOracle) {
  const Fixture f = make_fixture(6, 4);
  DistanceService service(f.reader, f.graph);
  const PathOracle oracle(f.graph, f.matrix);
  for (Vertex u = 0; u < f.graph.num_vertices(); u += 5)
    for (Vertex v = 0; v < f.graph.num_vertices(); v += 3) {
      const PathReply reply = service.shortest_path(u, v);
      ASSERT_EQ(reply.error, ServeError::kOk);
      EXPECT_EQ(reply.distance, f.matrix.at(u, v));
      EXPECT_EQ(reply.path, oracle.shortest_path(u, v));
    }
}

TEST(DistanceService, UnreachableIsAnAnswerNotAnError) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 1);
  builder.add_edge(2, 3, 1);
  Graph graph = std::move(builder).build();
  auto reader =
      std::make_shared<SnapshotReader>(reference_apsp(graph), 2);
  DistanceService service(reader, graph);
  const DistanceReply reply = service.distance(0, 2);
  EXPECT_EQ(reply.error, ServeError::kOk);
  EXPECT_TRUE(is_inf(reply.distance));
  const PathReply path = service.shortest_path(0, 2);
  EXPECT_EQ(path.error, ServeError::kOk);
  EXPECT_TRUE(path.path.empty());
}

TEST(DistanceService, KNearestMatchesBruteForce) {
  const Fixture f = make_fixture(7, 8, /*file_backed=*/false);
  DistanceService service(f.reader, f.graph);
  const Vertex n = f.graph.num_vertices();
  for (const Vertex u : {Vertex{0}, Vertex{17}, Vertex{n - 1}}) {
    for (const int k : {1, 5, static_cast<int>(n) + 10}) {
      const KNearestReply reply = service.k_nearest(u, k);
      ASSERT_EQ(reply.error, ServeError::kOk);
      std::vector<NearVertex> expected;
      for (Vertex v = 0; v < n; ++v)
        if (v != u && !is_inf(f.matrix.at(u, v)))
          expected.push_back({v, f.matrix.at(u, v)});
      std::sort(expected.begin(), expected.end(),
                [](const NearVertex& a, const NearVertex& b) {
                  return std::tie(a.distance, a.vertex) <
                         std::tie(b.distance, b.vertex);
                });
      if (expected.size() > static_cast<std::size_t>(k))
        expected.resize(static_cast<std::size_t>(k));
      EXPECT_EQ(reply.nearest, expected) << "u=" << u << " k=" << k;
    }
  }
}

TEST(DistanceService, BatchMatchesSingles) {
  const Fixture f = make_fixture(5, 4);
  DistanceService service(f.reader, f.graph);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex u = 0; u < 25; u += 2) pairs.push_back({u, 24 - u});
  const std::vector<DistanceReply> replies = service.distance_batch(pairs);
  ASSERT_EQ(replies.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(replies[i].error, ServeError::kOk);
    EXPECT_EQ(replies[i].distance,
              f.matrix.at(pairs[i].first, pairs[i].second));
  }
}

TEST(DistanceService, OverloadedQueueRejectsStructurally) {
  const Fixture f = make_fixture(4, 4, /*file_backed=*/false);
  ServeOptions options;
  options.threads = 1;
  options.max_queue = 0;  // admission bound of zero: every request rejected
  DistanceService service(f.reader, f.graph, options);
  const DistanceReply reply = service.distance(0, 3);
  EXPECT_EQ(reply.error, ServeError::kOverloaded);
  EXPECT_EQ(std::string(to_string(ServeError::kOverloaded)), "overloaded");
}

TEST(DistanceService, ExpiredDeadlineIsReported) {
  const Fixture f = make_fixture(4, 4, /*file_backed=*/false);
  DistanceService service(f.reader, f.graph);
  // A deadline of 1ns is in the past by the time a worker dequeues.
  const DistanceReply reply = service.distance(0, 3, 1e-9);
  EXPECT_EQ(reply.error, ServeError::kDeadlineExceeded);
}

TEST(DistanceService, ShutdownRejectsNewWork) {
  const Fixture f = make_fixture(4, 4, /*file_backed=*/false);
  DistanceService service(f.reader, f.graph);
  EXPECT_EQ(service.distance(0, 1).error, ServeError::kOk);
  service.stop();
  EXPECT_EQ(service.distance(0, 1).error, ServeError::kShutdown);
  service.stop();  // idempotent
}

TEST(DistanceService, WorkerStatsSurviveStop) {
  const Fixture f = make_fixture(4, 4, /*file_backed=*/false);
  ServeOptions options;
  options.threads = 3;
  DistanceService service(f.reader, f.graph, options);
  EXPECT_EQ(service.distance(0, 1).error, ServeError::kOk);
  service.stop();
  // The joined pool still describes itself: a summary written after the
  // run reports the workers it had.
  const DistanceService::WorkerStats workers = service.worker_stats();
  EXPECT_EQ(workers.active, 3);
  EXPECT_EQ(workers.spawned, 3);
  EXPECT_EQ(workers.stuck, 0);
  EXPECT_EQ(workers.replaced, 0);
  EXPECT_EQ(service.health(), HealthState::kOk);
}

TEST(DistanceService, MetricsCoverTheRun) {
  const Fixture f = make_fixture(5, 4);
  DistanceService service(f.reader, f.graph);
  for (Vertex v = 0; v < 25; ++v) service.distance(0, v);
  service.shortest_path(0, 24);
  service.k_nearest(12, 3);
  const MetricsSnapshot snapshot = service.metrics_snapshot();
  ASSERT_TRUE(snapshot.count("serve.request.latency_us"));
  EXPECT_EQ(snapshot.at("serve.request.latency_us").histogram.count, 27);
  EXPECT_EQ(snapshot.at("serve.request.distance").counter, 25);
  EXPECT_EQ(snapshot.at("serve.request.path").counter, 1);
  EXPECT_EQ(snapshot.at("serve.request.knear").counter, 1);
  EXPECT_EQ(snapshot.at("serve.request.ok").counter, 27);
  EXPECT_GT(snapshot.at("serve.io.tiles_loaded").counter, 0);
  EXPECT_GT(snapshot.at("serve.io.bytes_read").counter, 0);
  std::ostringstream summary;
  service.write_summary_json(summary);
  EXPECT_NE(summary.str().find("\"serve\""), std::string::npos);
  EXPECT_NE(summary.str().find("\"latency_us\""), std::string::npos);
}

// Sanitizer target: many clients hammering one service with mixed query
// types and an eviction-heavy cache.  Correctness of each answer is still
// asserted, so this doubles as a race detector for the cache/queue and a
// use-after-evict check on shared tiles.
TEST(DistanceServiceSoak, ConcurrentMixedQueries) {
  const Fixture f = make_fixture(9, 4);
  ServeOptions options;
  options.threads = 4;
  options.cache_bytes = 4096;
  DistanceService service(f.reader, f.graph, options);
  const PathOracle oracle(f.graph, f.matrix);
  constexpr int kClients = 6;
  constexpr int kPerClient = 300;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      const auto n = static_cast<std::uint64_t>(f.graph.num_vertices());
      for (int i = 0; i < kPerClient; ++i) {
        const auto u = static_cast<Vertex>(rng.uniform(n));
        const auto v = static_cast<Vertex>(rng.uniform(n));
        switch (i % 3) {
          case 0: {
            const DistanceReply reply = service.distance(u, v);
            ASSERT_EQ(reply.error, ServeError::kOk);
            ASSERT_EQ(reply.distance, f.matrix.at(u, v));
            break;
          }
          case 1: {
            const PathReply reply = service.shortest_path(u, v);
            ASSERT_EQ(reply.error, ServeError::kOk);
            ASSERT_EQ(reply.distance, f.matrix.at(u, v));
            if (!reply.path.empty()) {
              ASSERT_NEAR(oracle.path_weight(reply.path),
                          f.matrix.at(u, v), 1e-9);
            }
            break;
          }
          default: {
            const KNearestReply reply = service.k_nearest(u, 4);
            ASSERT_EQ(reply.error, ServeError::kOk);
            ASSERT_LE(reply.nearest.size(), 4u);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const TileCache::Stats stats = service.cache_stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(service.metrics_snapshot().at("serve.request.ok").counter,
            kClients * kPerClient);
}

// Sanitizer target for the observability paths: clients hammer a traced
// service (sampling + slow log + sub-second windows, so slices rotate
// mid-run) while a scraper thread reads /metrics, /healthz, and
// /stats.json off the live telemetry endpoint.  Exercises every
// new lock order: trace routing, window rotation, SLO recording, and
// handler reads racing request recording.
TEST(DistanceServiceSoak, TelemetryScrapeWhileTracedClientsRun) {
  const Fixture f = make_fixture(9, 4);
  ServeOptions options;
  options.threads = 4;
  options.cache_bytes = 4096;
  options.trace_sample_every = 5;
  options.slow_trace_ms = 1e-6;  // everything is "slow": max ring churn
  options.window_seconds = 0.2;  // force rotation many times per soak
  options.slo.latency_ms = 100;
  options.slo.window_seconds = 0.2;
  DistanceService service(f.reader, f.graph, options);
  const int port = service.start_telemetry(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(service.telemetry_port(), port);

  constexpr int kClients = 4;
  constexpr int kPerClient = 250;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 99);
      const auto n = static_cast<std::uint64_t>(f.graph.num_vertices());
      for (int i = 0; i < kPerClient; ++i) {
        const auto u = static_cast<Vertex>(rng.uniform(n));
        const auto v = static_cast<Vertex>(rng.uniform(n));
        if (i % 2 == 0) {
          const DistanceReply reply = service.distance(u, v);
          EXPECT_EQ(reply.error, ServeError::kOk);
          EXPECT_EQ(reply.distance, f.matrix.at(u, v));
        } else {
          const PathReply reply = service.shortest_path(u, v);
          EXPECT_EQ(reply.error, ServeError::kOk);
          EXPECT_EQ(reply.distance, f.matrix.at(u, v));
        }
      }
    });
  }
  std::thread scraper([&] {
    for (int i = 0; i < 40; ++i) {
      const std::string health = http_get(port, "/healthz");
      EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
      EXPECT_NE(health.find("ok"), std::string::npos);
      const std::string metrics = http_get(port, "/metrics");
      EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
      const std::string stats = http_get(port, "/stats.json");
      EXPECT_NE(stats.find("HTTP/1.1 200"), std::string::npos);
    }
    EXPECT_NE(http_get(port, "/no-such-path").find("HTTP/1.1 404"),
              std::string::npos);
  });
  for (std::thread& t : clients) t.join();
  scraper.join();

  // A final scrape after the load: the exposition must carry the serve
  // metrics (aggregate and per-shard) and the JSON its new sections.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("# TYPE capsp_serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("capsp_serve_request_latency_us_count"),
            std::string::npos);
  EXPECT_NE(metrics.find("capsp_serve_cache_shard0_hit"), std::string::npos);
  const std::string stats_json = http_get(port, "/stats.json");
  EXPECT_NE(stats_json.find("\"windows\""), std::string::npos);
  EXPECT_NE(stats_json.find("\"slo\""), std::string::npos);

  service.stop();  // also joins the telemetry thread
  constexpr std::int64_t kTotal = kClients * kPerClient;
  EXPECT_EQ(service.metrics_snapshot().at("serve.request.ok").counter, kTotal);
  const RequestTraceLog::Stats trace_stats = service.trace_log().stats();
  EXPECT_EQ(trace_stats.started, kTotal);  // slow log armed: all traced
  EXPECT_EQ(trace_stats.slow, kTotal);
  const SloTracker::Snapshot slo = service.slo_snapshot();
  EXPECT_EQ(slo.availability.total, kTotal);
  EXPECT_EQ(slo.availability.good, kTotal);
  // The per-shard counters stay consistent under concurrency too.
  const TileCache::Stats total = service.cache_stats();
  TileCache::Stats sum;
  for (const TileCache::Stats& s : service.cache_shard_stats()) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
  }
  EXPECT_EQ(sum.hits, total.hits);
  EXPECT_EQ(sum.misses, total.misses);
  EXPECT_EQ(sum.evictions, total.evictions);
  // Stopped service: the endpoint is down, a fresh GET cannot connect.
  EXPECT_EQ(http_get(port, "/healthz"), "");
}

/// Bytes one cached 2x2 tile charges against its shard's budget.
constexpr std::int64_t kTinyTileBytes =
    TileCache::kEntryOverheadBytes +
    4 * static_cast<std::int64_t>(sizeof(Dist));

TEST(TileCache, LruEvictsColdTilesFirst) {
  // Room for three tiles per shard; ids that are multiples of kShards
  // share shard 0, which makes its LRU order observable.
  TileCache cache(TileCache::kShards * 3 * kTinyTileBytes);
  auto tile = [] {
    DistBlock t(2, 2);
    t.zero_diagonal();
    return t;
  };
  const auto id = [](std::int64_t i) { return i * TileCache::kShards; };
  cache.put(id(0), tile());
  cache.put(id(1), tile());
  cache.put(id(2), tile());
  EXPECT_NE(cache.get(id(0)), nullptr);  // refresh 0: now 1 is the coldest
  cache.put(id(3), tile());              // evicts 1
  EXPECT_NE(cache.get(id(0)), nullptr);
  EXPECT_EQ(cache.get(id(1)), nullptr);
  EXPECT_NE(cache.get(id(3)), nullptr);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(TileCache, PerShardCountersSumToTheAggregate) {
  // Room for one 2x2 tile per shard: inserts beyond that evict.
  TileCache cache(TileCache::kShards * kTinyTileBytes);
  for (std::int64_t id = 0; id < 3 * TileCache::kShards; ++id) {
    cache.put(id, DistBlock(2, 2));
    cache.get(id);      // hit: just inserted, still resident
    cache.get(id + 1);  // miss: not inserted yet (or evicted)
  }
  const TileCache::Stats total = cache.stats();
  const std::vector<TileCache::Stats> shards = cache.shard_stats();
  ASSERT_EQ(shards.size(), static_cast<std::size_t>(TileCache::kShards));
  TileCache::Stats sum;
  for (const TileCache::Stats& s : shards) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.bytes += s.bytes;
    sum.entries += s.entries;
  }
  EXPECT_EQ(sum.hits, total.hits);
  EXPECT_EQ(sum.misses, total.misses);
  EXPECT_EQ(sum.evictions, total.evictions);
  EXPECT_EQ(sum.bytes, total.bytes);
  EXPECT_EQ(sum.entries, total.entries);
  EXPECT_GT(total.hits, 0);
  EXPECT_GT(total.misses, 0);
  EXPECT_GT(total.evictions, 0);
}

TEST(DistanceService, MetricsFoldTheCacheShardCounts) {
  const Fixture f = make_fixture(8, 4);
  ServeOptions options;
  options.threads = 2;
  options.cache_bytes = 2048;  // evicts: every serve.cache name appears
  DistanceService service(f.reader, f.graph, options);
  for (Vertex u = 0; u < f.graph.num_vertices(); u += 3)
    for (Vertex v = 0; v < f.graph.num_vertices(); v += 5)
      ASSERT_EQ(service.distance(u, v).error, ServeError::kOk);
  service.stop();
  // The fold's serve.cache names and values are the shards' own counts:
  // the aggregate counters, one serve.cache.shard<j>.* set per shard (a
  // counter appears only once non-zero) and the occupancy gauges.
  const MetricsSnapshot snapshot = service.metrics_snapshot();
  const TileCache::Stats total = service.cache_stats();
  const std::vector<TileCache::Stats> shards = service.cache_shard_stats();
  std::map<std::string, std::int64_t> expected = {
      {"serve.cache.hit", total.hits},
      {"serve.cache.miss", total.misses},
      {"serve.cache.eviction", total.evictions}};
  for (std::size_t j = 0; j < shards.size(); ++j) {
    const std::string base = "serve.cache.shard" + std::to_string(j);
    expected[base + ".hit"] = shards[j].hits;
    expected[base + ".miss"] = shards[j].misses;
    expected[base + ".eviction"] = shards[j].evictions;
  }
  std::erase_if(expected, [](const auto& entry) { return entry.second == 0; });
  std::map<std::string, std::int64_t> folded;
  for (const auto& [name, metric] : snapshot)
    if (name.starts_with("serve.cache.") &&
        metric.kind == MetricKind::kCounter)
      folded[name] = metric.counter;
  EXPECT_EQ(folded, expected);
  EXPECT_GT(total.evictions, 0);
  EXPECT_EQ(snapshot.at("serve.cache.bytes").gauge,
            static_cast<double>(total.bytes));
  EXPECT_EQ(snapshot.at("serve.cache.entries").gauge,
            static_cast<double>(total.entries));
}

TEST(DistanceService, SampledTracesCarryTheFullSpanTree) {
  const Fixture f = make_fixture(6, 4);
  ServeOptions options;
  options.threads = 2;
  options.cache_bytes = 2048;  // tight: traces should see real misses
  options.trace_sample_every = 1;  // every request sampled
  DistanceService service(f.reader, f.graph, options);
  constexpr int kRequests = 24;
  for (Vertex v = 0; v < kRequests; ++v) service.distance(0, v);
  service.shortest_path(0, 35);
  service.stop();  // joins workers: every finished trace is now routed

  const RequestTraceLog::Stats stats = service.trace_log().stats();
  EXPECT_EQ(stats.started, kRequests + 1);
  EXPECT_EQ(stats.sampled_kept, kRequests + 1);
  EXPECT_EQ(stats.dropped, 0);
  const auto kept = service.trace_log().kept();
  ASSERT_EQ(kept.size(), static_cast<std::size_t>(kRequests) + 1);
  bool saw_tile_span = false, saw_hop_span = false;
  for (const auto& trace : kept) {
    EXPECT_STREQ(trace->outcome(), "ok");
    EXPECT_GT(trace->total_us(), 0);
    ASSERT_GE(trace->spans().size(), 2u);
    // The lifecycle skeleton: span 0 is queue_wait, span 1 is execute,
    // and every span is closed within the request.
    EXPECT_STREQ(trace->spans()[0].name, "queue_wait");
    EXPECT_STREQ(trace->spans()[1].name, "execute");
    double child_sum = 0;
    for (const TraceSpan& span : trace->spans()) {
      EXPECT_GE(span.end_us, span.start_us);
      EXPECT_LE(span.end_us, trace->total_us() + 1.0);
      if (span.parent == -1) child_sum += span.end_us - span.start_us;
      const std::string name = span.name;
      if (name == "tile.cache_hit" || name == "tile.cache_miss")
        saw_tile_span = true;
      if (name == "path.hop") saw_hop_span = true;
    }
    // Top-level spans (queue_wait + execute) tile the request end to end.
    EXPECT_NEAR(child_sum, trace->total_us(), 2.0) << "trace " << trace->id();
  }
  EXPECT_TRUE(saw_tile_span);
  EXPECT_TRUE(saw_hop_span);

  std::ostringstream chrome;
  service.trace_log().write_chrome_json(chrome);
  const std::string doc = chrome.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(doc.find("\"reqtrace\""), std::string::npos);
}

TEST(DistanceService, SlowLogKeepsTracesSamplingWouldDrop) {
  const Fixture f = make_fixture(5, 4, /*file_backed=*/false);
  ServeOptions options;
  options.threads = 1;
  options.trace_sample_every = 0;   // sampling off...
  options.slow_trace_ms = 1e-6;     // ...but everything counts as slow
  DistanceService service(f.reader, f.graph, options);
  constexpr auto kRequests =
      static_cast<Vertex>(RequestTraceLog::kSlowKeep) + 8;
  const Vertex n = f.graph.num_vertices();
  for (Vertex i = 0; i < kRequests; ++i) service.distance(i % n, i / n);
  service.stop();
  const RequestTraceLog::Stats stats = service.trace_log().stats();
  EXPECT_EQ(stats.started, kRequests);  // slow log arms tracing for all
  EXPECT_EQ(stats.slow, kRequests);
  EXPECT_EQ(stats.sampled_kept, 0);
  // The ring is bounded: only the newest kSlowKeep survive.
  EXPECT_EQ(service.trace_log().kept().size(), RequestTraceLog::kSlowKeep);
  EXPECT_EQ(service.metrics_snapshot().at("serve.trace.slow").counter,
            kRequests);
}

TEST(DistanceService, SummaryJsonCarriesWindowsSloAndTraceSections) {
  const Fixture f = make_fixture(5, 4, /*file_backed=*/false);
  ServeOptions options;
  options.trace_sample_every = 4;
  options.slo.latency_ms = 50;
  DistanceService service(f.reader, f.graph, options);
  for (Vertex v = 0; v < 25; ++v) service.distance(0, v);
  service.stop();
  std::ostringstream out;
  service.write_summary_json(out);
  const std::string json = out.str();
  for (const char* key :
       {"\"windows\"", "\"slo\"", "\"reqtrace\"", "\"shards\"",
        "\"availability\"", "\"burn_rate\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  const SloTracker::Snapshot slo = service.slo_snapshot();
  EXPECT_EQ(slo.availability.total, 25);
  EXPECT_EQ(slo.availability.good, 25);
  EXPECT_EQ(slo.availability.compliance, 1.0);
  EXPECT_TRUE(slo.latency.enabled);
  EXPECT_EQ(service.latency_window().count, 25);
}

TEST(TileCache, SharedTileSurvivesEviction) {
  // At most one resident entry per shard, always over budget.
  TileCache cache(1);
  DistBlock t(2, 2);
  t.at(0, 1) = 7;
  const std::shared_ptr<const DistBlock> held = cache.put(10, std::move(t));
  // Same shard as tile 10: evicts it.
  cache.put(10 + TileCache::kShards, DistBlock(2, 2));
  EXPECT_EQ(cache.get(10), nullptr);
  // The caller's reference keeps the evicted tile alive and intact.
  EXPECT_EQ(held->at(0, 1), 7);
}

/// Every metric of a stopped service as "kind name value" lines in name
/// order: a counter's value, a gauge's value and a histogram's count.
/// serve.health and serve.quarantine.active are left out: the
/// maintenance thread writes them on its own clock.
std::vector<std::string> metric_lines(const MetricsSnapshot& snapshot) {
  std::vector<std::string> lines;
  for (const auto& [name, metric] : snapshot) {
    if (name == "serve.health" || name == "serve.quarantine.active") continue;
    std::ostringstream line;
    switch (metric.kind) {
      case MetricKind::kCounter:
        line << "counter " << name << " " << metric.counter;
        break;
      case MetricKind::kGauge:
        line << "gauge " << name << " " << metric.gauge;
        break;
      case MetricKind::kHistogram:
        line << "histogram " << name << " " << metric.histogram.count;
        break;
    }
    lines.push_back(line.str());
  }
  return lines;
}

// Every serve.* name and value a fixed workload reports.  One worker and
// blocking calls make each value exact, so a change to where the service
// keeps a count must leave every line as it is.
TEST(ServeMetrics, MatchRecordedValues) {
  const Fixture f = make_fixture(9, 4);
  {
    // Clean: a 4 KiB cache (two 4x4 tiles per shard) evicts all along,
    // and the slow log keeps every request's trace.
    ServeOptions options;
    options.threads = 1;
    options.cache_bytes = 4096;
    options.slow_trace_ms = 1e-6;
    DistanceService service(f.reader, f.graph, options);
    for (Vertex u = 0; u < 81; u += 4)
      for (Vertex v = 0; v < 81; v += 7) service.distance(u, v);
    for (Vertex u = 0; u < 81; u += 10) service.shortest_path(u, 80 - u);
    for (Vertex u = 0; u < 81; u += 20) service.k_nearest(u, 5);
    service.stop();  // joins the worker: every trace is routed
    const std::vector<std::string> expected = {
      "gauge serve.cache.bytes 3432",
      "gauge serve.cache.entries 29",
      "counter serve.cache.eviction 434",
      "counter serve.cache.hit 333",
      "counter serve.cache.miss 463",
      "counter serve.cache.shard0.eviction 53",
      "counter serve.cache.shard0.hit 46",
      "counter serve.cache.shard0.miss 57",
      "counter serve.cache.shard1.eviction 54",
      "counter serve.cache.shard1.hit 41",
      "counter serve.cache.shard1.miss 57",
      "counter serve.cache.shard2.eviction 54",
      "counter serve.cache.shard2.hit 38",
      "counter serve.cache.shard2.miss 57",
      "counter serve.cache.shard3.eviction 56",
      "counter serve.cache.shard3.hit 42",
      "counter serve.cache.shard3.miss 59",
      "counter serve.cache.shard4.eviction 57",
      "counter serve.cache.shard4.hit 40",
      "counter serve.cache.shard4.miss 61",
      "counter serve.cache.shard5.eviction 55",
      "counter serve.cache.shard5.hit 39",
      "counter serve.cache.shard5.miss 59",
      "counter serve.cache.shard6.eviction 53",
      "counter serve.cache.shard6.hit 37",
      "counter serve.cache.shard6.miss 57",
      "counter serve.cache.shard7.eviction 52",
      "counter serve.cache.shard7.hit 50",
      "counter serve.cache.shard7.miss 56",
      "counter serve.io.bytes_read 53936",
      "counter serve.io.tiles_loaded 463",
      "histogram serve.path.hops 9",
      "gauge serve.queue.depth 1",
      "counter serve.request.distance 252",
      "counter serve.request.knear 5",
      "histogram serve.request.latency_us 266",
      "counter serve.request.ok 266",
      "counter serve.request.path 9",
      "counter serve.trace.slow 266"};
    EXPECT_EQ(metric_lines(service.metrics_snapshot()), expected);
  }
  {
    // Faulted: tile 0 never reads.  Three exhausted 4-attempt fetches put
    // it in quarantine, and the cooldown outlasts the test, so no probe
    // runs and every later touch of the tile is blocked.
    ServeFaultPlan plan;
    plan.bad_tile = 0;
    plan.bad_tile_fails = 1000000;
    ServeOptions options;
    options.threads = 1;
    options.cache_bytes = 4096;
    options.quarantine_cooldown_ms = 1e9;
    options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
    DistanceService service(f.reader, f.graph, options);
    EXPECT_EQ(service.distance(0, 1).error, ServeError::kDegraded);
    EXPECT_EQ(service.distance(1, 0).error, ServeError::kDegraded);
    EXPECT_EQ(service.distance(2, 3).error, ServeError::kDegraded);
    EXPECT_EQ(service.shortest_path(0, 2).error, ServeError::kDegraded);
    EXPECT_EQ(service.k_nearest(0, 4).error, ServeError::kDegraded);
    EXPECT_EQ(service.distance(80, 79).error, ServeError::kOk);
    EXPECT_EQ(service.shortest_path(80, 40).error, ServeError::kOk);
    service.stop();
    const std::vector<std::string> expected = {
      "gauge serve.cache.bytes 1536",
      "gauge serve.cache.entries 9",
      "counter serve.cache.hit 30",
      "counter serve.cache.miss 14",
      "counter serve.cache.shard0.miss 5",
      "counter serve.cache.shard1.hit 3",
      "counter serve.cache.shard1.miss 1",
      "counter serve.cache.shard2.hit 1",
      "counter serve.cache.shard2.miss 1",
      "counter serve.cache.shard3.hit 3",
      "counter serve.cache.shard3.miss 1",
      "counter serve.cache.shard4.hit 7",
      "counter serve.cache.shard4.miss 1",
      "counter serve.cache.shard5.hit 5",
      "counter serve.cache.shard5.miss 1",
      "counter serve.cache.shard6.hit 6",
      "counter serve.cache.shard6.miss 2",
      "counter serve.cache.shard7.hit 5",
      "counter serve.cache.shard7.miss 2",
      "counter serve.fault.io 12",
      "counter serve.io.bytes_read 960",
      "counter serve.io.tiles_loaded 9",
      "histogram serve.path.hops 1",
      "counter serve.quarantine.blocked 2",
      "counter serve.quarantine.enter 1",
      "gauge serve.queue.depth 1",
      "counter serve.request.degraded 5",
      "counter serve.request.distance 4",
      "counter serve.request.knear 1",
      "histogram serve.request.latency_us 7",
      "counter serve.request.ok 2",
      "counter serve.request.path 2",
      "counter serve.retry.attempts 9",
      "histogram serve.retry.backoff_ms 9",
      "counter serve.retry.exhausted 3"};
    EXPECT_EQ(metric_lines(service.metrics_snapshot()), expected);
  }
}

}  // namespace
}  // namespace capsp
