// Tests for the serving chaos machinery (serve/servefault wired through
// serve/snapshot and serve/service): fault-plan grammar and round-trips,
// injector determinism, each fault class observed at the snapshot layer
// (EIO → TileReadError, flip → checksum, EINTR/short absorbed by pread),
// and the service-level tolerance it exists to exercise — retry→success
// round trips, the quarantine enter→probe→exit lifecycle, degraded
// replies that are never wrong answers, the worker watchdog, and
// sanitizer-friendly chaos soaks with eviction churn.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/reference.hpp"
#include "graph/generators.hpp"
#include "serve/resilience.hpp"
#include "serve/servefault.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

using ReadFault = ServeFaultInjector::ReadFault;

struct Fixture {
  Graph graph;
  DistBlock matrix;
  std::shared_ptr<SnapshotReader> reader;
  std::string path;

  ~Fixture() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// A solved grid served from a real CAPSPDB2 file with small tiles —
/// file-backed because that is the only backing with IO to fault.
Fixture make_fixture(Vertex side, std::int64_t tile_dim) {
  Fixture f;
  Rng rng(42);
  f.graph = make_grid2d(side, side, rng);
  f.matrix = reference_apsp(f.graph);
  // Pid-unique so parallel ctest processes never truncate each other's
  // live snapshot (that would inject a real, unplanned read fault).
  f.path = ::testing::TempDir() + "/capsp_servefault_" +
           std::to_string(::getpid()) + "_" + std::to_string(side) + "_" +
           std::to_string(tile_dim) + ".snap";
  write_snapshot(f.path, f.matrix, tile_dim);
  f.reader = std::make_shared<SnapshotReader>(f.path);
  return f;
}

/// Spin until `done` or ~`budget_ms` of wall clock; returns done().
template <typename Fn>
bool wait_until(Fn done, int budget_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// ---------------------------------------------------------------------------
// ServeFaultPlan grammar

TEST(ServeFaultPlan, ParseRoundTrips) {
  const std::string spec =
      "seed=7,read_error=0.02,eintr=0.03,short=0.03,flip=0.02,"
      "delay=0.04,delay_ms=1,alloc=0.005,bad_tile=5:4,stuck=0@40:0.4";
  const ServeFaultPlan plan = ServeFaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.read_error, 0.02);
  EXPECT_DOUBLE_EQ(plan.short_read, 0.03);
  EXPECT_DOUBLE_EQ(plan.delay_ms, 1);
  EXPECT_EQ(plan.bad_tile, 5);
  EXPECT_EQ(plan.bad_tile_fails, 4);
  ASSERT_EQ(plan.stuck.size(), 1u);
  EXPECT_EQ(plan.stuck.at(0).job_index, 40);
  EXPECT_DOUBLE_EQ(plan.stuck.at(0).seconds, 0.4);
  EXPECT_FALSE(plan.empty());
  // to_string() → parse() is the identity on the parsed form.
  EXPECT_EQ(ServeFaultPlan::parse(plan.to_string()).to_string(),
            plan.to_string());
}

TEST(ServeFaultPlan, DefaultIsEmpty) {
  const ServeFaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_read_faults());
  EXPECT_TRUE(ServeFaultPlan::parse("seed=3").empty());
}

TEST(ServeFaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(ServeFaultPlan::parse("bogus=1"), check_error);
  EXPECT_THROW(ServeFaultPlan::parse("read_error=1.5"), check_error);
  EXPECT_THROW(ServeFaultPlan::parse("read_error=-0.1"), check_error);
  // Read-fault probabilities are mutually exclusive per attempt, so
  // their sum must stay a probability.
  EXPECT_THROW(ServeFaultPlan::parse("read_error=0.6,flip=0.6"),
               check_error);
  EXPECT_THROW(ServeFaultPlan::parse("bad_tile=5"), check_error);
  EXPECT_THROW(ServeFaultPlan::parse("bad_tile=5:0"), check_error);
  EXPECT_THROW(ServeFaultPlan::parse("stuck=1@2"), check_error);
  // One stick per worker: a duplicate is a spec bug, not a schedule.
  EXPECT_THROW(ServeFaultPlan::parse("stuck=1@2:0.1,stuck=1@3:0.1"),
               check_error);
}

// ---------------------------------------------------------------------------
// ServeFaultInjector

TEST(ServeFaultInjector, DecisionsAreDeterministic) {
  ServeFaultPlan plan;
  plan.seed = 11;
  plan.read_error = 0.2;
  plan.eintr = 0.2;
  plan.flip = 0.2;
  plan.delay = 0.2;
  ServeFaultInjector a(plan);
  ServeFaultInjector b(plan);
  // Same (seed, tile, attempt) → same fate, regardless of which thread
  // or process asks; this is what makes a chaos run replayable.
  for (std::int64_t tile = 0; tile < 8; ++tile)
    for (int attempt = 0; attempt < 32; ++attempt)
      EXPECT_EQ(a.next_read_fault(tile), b.next_read_fault(tile))
          << "tile " << tile << " attempt " << attempt;
}

TEST(ServeFaultInjector, BadTileFailsItsBudgetThenHeals) {
  ServeFaultPlan plan;
  plan.bad_tile = 3;
  plan.bad_tile_fails = 5;
  ServeFaultInjector injector(plan);
  for (int attempt = 0; attempt < 5; ++attempt)
    EXPECT_EQ(injector.next_read_fault(3), ReadFault::kEio);
  EXPECT_EQ(injector.next_read_fault(3), ReadFault::kNone);  // healed
  EXPECT_EQ(injector.next_read_fault(4), ReadFault::kNone);  // never bad
  EXPECT_EQ(injector.counts().eio, 5);
}

TEST(ServeFaultInjector, FlipPayloadFlipsExactlyOneBitDeterministically) {
  ServeFaultPlan plan;
  plan.seed = 5;
  plan.flip = 1.0;
  std::vector<Dist> a(64, 1.5), b(64, 1.5);
  ServeFaultInjector(plan).flip_payload(9, a);
  ServeFaultInjector(plan).flip_payload(9, b);
  EXPECT_EQ(a, b);  // same plan, same tile → same bit
  int changed = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != 1.5) ++changed;
  EXPECT_EQ(changed, 1);
  std::vector<Dist> empty;
  ServeFaultInjector(plan).flip_payload(9, empty);  // no-op, no crash
}

// ---------------------------------------------------------------------------
// Snapshot-layer injection: what each fault class looks like to a reader.

TEST(SnapshotInjection, EioBecomesTileReadErrorIo) {
  Fixture f = make_fixture(8, 4);
  ServeFaultPlan plan;
  plan.read_error = 1.0;
  ServeFaultInjector injector(plan);
  f.reader->set_fault_injector(&injector);
  try {
    f.reader->read_tile(0);
    FAIL() << "expected TileReadError";
  } catch (const TileReadError& e) {
    EXPECT_EQ(e.kind(), TileReadError::Kind::kIo);
    EXPECT_EQ(e.tile_id(), 0);
  }
}

TEST(SnapshotInjection, FlipIsCaughtByTheChecksum) {
  Fixture f = make_fixture(8, 4);
  ServeFaultPlan plan;
  plan.flip = 1.0;
  ServeFaultInjector injector(plan);
  f.reader->set_fault_injector(&injector);
  try {
    f.reader->read_tile(2);
    FAIL() << "expected TileReadError";
  } catch (const TileReadError& e) {
    // The flipped bit never reaches a caller as data: the per-tile
    // checksum turns it into a recoverable checksum failure.
    EXPECT_EQ(e.kind(), TileReadError::Kind::kChecksum);
  }
  EXPECT_GE(injector.counts().flips, 1);
}

TEST(SnapshotInjection, AllocFailureIsRecoverable) {
  Fixture f = make_fixture(8, 4);
  ServeFaultPlan plan;
  plan.alloc = 1.0;
  ServeFaultInjector injector(plan);
  f.reader->set_fault_injector(&injector);
  EXPECT_THROW(f.reader->read_tile(1), TileReadError);
}

TEST(SnapshotInjection, EintrAndShortReadsAreTransparent) {
  Fixture f = make_fixture(8, 4);
  const DistBlock clean = f.reader->read_tile(0);
  ServeFaultPlan plan;
  plan.eintr = 0.5;
  plan.short_read = 0.5;  // every attempt draws one of the two
  ServeFaultInjector injector(plan);
  f.reader->set_fault_injector(&injector);
  // The pread layer retries EINTR and finishes short reads, so the read
  // succeeds bit-exactly — these faults cost latency, never answers.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(f.reader->read_tile(0), clean);
  EXPECT_GE(injector.counts().eintr + injector.counts().short_reads, 8);
}

TEST(SnapshotInjection, InMemoryBackingHasNoIoToFault) {
  Rng rng(1);
  const Graph graph = make_grid2d(4, 4, rng);
  SnapshotReader reader(reference_apsp(graph), 4);
  ServeFaultPlan plan;
  plan.read_error = 1.0;
  ServeFaultInjector injector(plan);
  reader.set_fault_injector(&injector);
  EXPECT_NO_THROW(reader.read_tile(0));
  EXPECT_EQ(injector.counts().eio, 0);
}

// ---------------------------------------------------------------------------
// Service-level tolerance.

TEST(ServiceResilience, ChecksumFailureRetriesToSuccess) {
  Fixture f = make_fixture(12, 8);
  // Hunt a seed whose first decision for tile 0 is a flip and whose
  // second is clean: a deterministic corrupt-read → retry → success
  // round trip without touching any other knob.
  ServeFaultPlan plan;
  plan.flip = 0.5;
  for (plan.seed = 1; plan.seed < 4096; ++plan.seed) {
    ServeFaultInjector probe(plan);
    if (probe.next_read_fault(0) == ReadFault::kFlip &&
        probe.next_read_fault(0) == ReadFault::kNone)
      break;
  }
  ASSERT_LT(plan.seed, 4096u) << "no seed found (injector changed?)";

  ServeOptions options;
  options.threads = 1;
  options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
  DistanceService service(f.reader, f.graph, options);
  const DistanceReply reply = service.distance(0, 1);
  EXPECT_EQ(reply.error, ServeError::kOk);
  EXPECT_EQ(reply.distance, f.matrix.at(0, 1));  // bit-exact after retry
  const MetricsSnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(counter_value(metrics, "serve.fault.checksum"), 1);
  EXPECT_EQ(counter_value(metrics, "serve.retry.success"), 1);
  service.stop();
}

TEST(ServiceResilience, QuarantineLifecycleEnterProbeExit) {
  Fixture f = make_fixture(12, 8);
  // Tile 0 fails its first 14 read attempts: three exhausted fetches of
  // kRetryMaxAttempts each push it over the threshold into quarantine,
  // background probes burn the rest of the budget, and the tile heals.
  ServeFaultPlan plan;
  plan.bad_tile = 0;
  plan.bad_tile_fails = QuarantineRegistry::kThreshold * kRetryMaxAttempts + 2;
  ServeOptions options;
  options.threads = 1;
  options.quarantine_cooldown_ms = 5;
  options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
  DistanceService service(f.reader, f.graph, options);

  for (int fetch = 0; fetch < QuarantineRegistry::kThreshold; ++fetch)
    EXPECT_EQ(service.distance(0, 1).error, ServeError::kDegraded);
  QuarantineRegistry::Stats stats = service.quarantine_stats();
  EXPECT_EQ(stats.enters, 1);
  EXPECT_EQ(stats.active, 1);

  // The maintenance thread probes every cooldown until the budget is
  // spent and the tile recovers.
  EXPECT_TRUE(wait_until(
      [&] { return service.quarantine_stats().exits >= 1; }, 5000));
  stats = service.quarantine_stats();
  EXPECT_EQ(stats.active, 0);
  // Healed end-to-end: the answer flows again, bit-exact.
  const DistanceReply reply = service.distance(0, 1);
  EXPECT_EQ(reply.error, ServeError::kOk);
  EXPECT_EQ(reply.distance, f.matrix.at(0, 1));
  EXPECT_EQ(service.health(), HealthState::kOk);
  service.stop();
}

TEST(ServiceResilience, QuarantinedTileDegradesNeverLies) {
  Fixture f = make_fixture(12, 8);
  // Three exhausted fetches quarantine tile 0; the huge cooldown pins it
  // there for the rest of the test.
  ServeFaultPlan plan;
  plan.bad_tile = 0;
  plan.bad_tile_fails = 1000000;
  ServeOptions options;
  options.threads = 1;
  options.quarantine_cooldown_ms = 1e9;
  options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
  DistanceService service(f.reader, f.graph, options);

  for (int fetch = 0; fetch < QuarantineRegistry::kThreshold; ++fetch)
    EXPECT_EQ(service.distance(0, 1).error, ServeError::kDegraded);
  EXPECT_EQ(service.quarantine_stats().enters, 1);
  // Blocked fail-fast: no disk IO, still a structured reply.
  EXPECT_EQ(service.distance(0, 1).error, ServeError::kDegraded);
  EXPECT_GE(
      counter_value(service.metrics_snapshot(), "serve.quarantine.blocked"),
      1);
  // Paths and k-nearest that need the dark tile degrade whole — a partial
  // or wrong answer never leaks out.
  const PathReply path = service.shortest_path(0, 1);
  EXPECT_EQ(path.error, ServeError::kDegraded);
  EXPECT_TRUE(path.path.empty());
  const KNearestReply near = service.k_nearest(0, 4);
  EXPECT_EQ(near.error, ServeError::kDegraded);
  EXPECT_TRUE(near.nearest.empty());
  // Answers not touching the quarantined tile still flow, bit-exact.
  const Vertex far = f.graph.num_vertices() - 1;
  const DistanceReply reply = service.distance(far, far - 1);
  EXPECT_EQ(reply.error, ServeError::kOk);
  EXPECT_EQ(reply.distance, f.matrix.at(far, far - 1));
  EXPECT_EQ(service.health(), HealthState::kDegraded);
  service.stop();
}

TEST(ServiceResilience, WatchdogReplacesStuckWorker) {
  Fixture f = make_fixture(8, 4);
  ServeFaultPlan plan = ServeFaultPlan::parse("stuck=0@0:0.2");
  ServeOptions options;
  options.threads = 1;
  options.stuck_worker_ms = 40;
  options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
  DistanceService service(f.reader, f.graph, options);

  // The lone worker wedges on its first job for 200 ms; the watchdog
  // notices at 40 ms and spawns a replacement, so capacity recovers
  // before the wedge resolves.  The wedged job itself still completes.
  const DistanceReply reply = service.distance(0, 1);
  EXPECT_EQ(reply.error, ServeError::kOk);
  EXPECT_EQ(reply.distance, f.matrix.at(0, 1));
  EXPECT_TRUE(wait_until(
      [&] { return service.worker_stats().replaced >= 1; }, 5000));
  EXPECT_GE(counter_value(service.metrics_snapshot(), "serve.worker.stuck"),
            1);
  // The replacement serves.
  EXPECT_EQ(service.distance(1, 2).error, ServeError::kOk);
  service.stop();
  // After the join the pool still reads as it ended: the retired worker
  // finished its wedge, and its replacement is the one active slot.
  const DistanceService::WorkerStats workers = service.worker_stats();
  EXPECT_EQ(workers.spawned, 2);
  EXPECT_EQ(workers.replaced, 1);
  EXPECT_EQ(workers.active, 1);
  EXPECT_EQ(workers.stuck, 0);
}

// ---------------------------------------------------------------------------
// Soaks for the sanitizer matrix (ASan/UBSan/TSan in CI).

/// Concurrent clients under a mixed plan; every ok answer is checked
/// bit-exact against the matrix.  `cache_bytes` far below the matrix size
/// keeps eviction churning while quarantine and probes race it.
void chaos_soak(std::int64_t cache_bytes, const std::string& plan_spec,
                int clients, int queries_per_client) {
  Fixture f = make_fixture(12, 8);
  ServeOptions options;
  options.threads = 4;
  options.cache_bytes = cache_bytes;
  options.quarantine_cooldown_ms = 5;
  options.stuck_worker_ms = 20;
  options.fault_injector =
      std::make_shared<ServeFaultInjector>(ServeFaultPlan::parse(plan_spec));
  DistanceService service(f.reader, f.graph, options);

  std::atomic<std::int64_t> wrong{0}, ok{0};
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) * 7919 + 3);
      const auto n = static_cast<std::uint64_t>(f.graph.num_vertices());
      for (int i = 0; i < queries_per_client; ++i) {
        const auto u = static_cast<Vertex>(rng.uniform(n));
        const auto v = static_cast<Vertex>(rng.uniform(n));
        const DistanceReply reply = service.distance(u, v);
        if (reply.error != ServeError::kOk) continue;
        ok.fetch_add(1, std::memory_order_relaxed);
        if (reply.distance != f.matrix.at(u, v))
          wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(ok.load(), 0);
  service.stop();
}

TEST(ChaosSoak, MixedFaultsEveryOkAnswerBitExact) {
  chaos_soak(/*cache_bytes=*/1 << 20,
             "seed=5,read_error=0.05,eintr=0.05,short=0.05,flip=0.05,"
             "delay=0.02,delay_ms=1,alloc=0.02,bad_tile=5:30,"
             "stuck=1@3:0.06",
             /*clients=*/8, /*queries_per_client=*/400);
}

TEST(ChaosSoak, EvictionRacesQuarantineAndReprobe) {
  // A cache of a few tiles forces constant eviction while tile 5 cycles
  // through quarantine and re-probe — the TSan prey: cache put/evict
  // racing probe reads and ledger updates.
  chaos_soak(/*cache_bytes=*/4096,
             "seed=9,read_error=0.08,flip=0.05,bad_tile=5:60",
             /*clients=*/8, /*queries_per_client=*/400);
}

}  // namespace
}  // namespace capsp
