// serve_tool — landmark sketches and load generation for the serving
// layer (docs/serving.md).  Snapshots come from apsp_tool
// --save-distances.
//
//   serve_tool --mode sketch --graph grid --n 441 --landmarks 64
//              --out g.ax1
//       build the landmark sketch the approximate tier serves from
//   serve_tool --mode serve --snapshot g.snap --graph grid --n 441
//              --clients 8 --requests 20000 --mix zipf --queries distance
//              --cache-bytes 262144 --report-json serve.json
//       closed-loop load test: 8 client threads issue 20k Zipf-skewed
//       distance queries against a DistanceService whose tile cache is
//       capped below the matrix size; prints throughput, latency
//       percentiles, and cache behaviour, and writes the service's JSON
//       summary (scripts/trace_summary.py serve renders it)
//   serve_tool --mode serve ... --open-loop --rate 20000 --deadline-ms 5
//       open-loop driver: queries arrive on a fixed schedule regardless of
//       completions, so an undersized service visibly sheds load with
//       structured overload/deadline errors instead of queueing forever
//   serve_tool --mode serve ... --duration-s 10
//       soak: clients replay the workload cyclically for a wall-clock
//       budget; SIGINT/SIGTERM drains cleanly and still emits the
//       summary.  Counts depend on timing, so the soak BENCH record
//       (serve_soak_*) carries only config fields plus wall-clock-named
//       fields the bench_diff gate skips.
//   serve_tool --mode serve ... --telemetry-port 0 --trace-sample 64
//              --slow-ms 5 --reqtrace traces.json --slo-latency-ms 2
//       live observability (docs/telemetry.md): /metrics + /healthz +
//       /stats.json on an ephemeral port, 1-in-64 request-trace
//       sampling plus a slow log, Perfetto-loadable span trees, and
//       latency/availability SLO tracking in the summary
//
// Closed-loop runs mirror their (deterministic) outcome into the PR-3
// BenchJson registry: set CAPSP_BENCH_JSON_DIR and the run writes
// BENCH_serve_<mix>_<queries>.json for the bench_diff regression gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "approx/sketch.hpp"
#include "approx/sketch_io.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/nested_dissection.hpp"
#include "serve/reqtrace.hpp"
#include "serve/resilience.hpp"
#include "serve/servefault.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/tiered.hpp"
#include "util/buildinfo.hpp"
#include "util/cli.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace {

using namespace capsp;

/// Set by SIGINT/SIGTERM so a soak drains its clients and still emits
/// the summary/BENCH record instead of dying mid-flight.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_interrupt(int) { g_interrupted = 1; }

void print_help() {
  std::cout <<
      "usage: serve_tool --mode serve|sketch [flags]\n"
      "\n"
      "--mode sketch:  build a CAPSPAX1 landmark sketch for the approx\n"
      "                tier (docs/serving.md, \"Tiered serving\")\n"
      "  --out <path>             output CAPSPAX1 sketch (required)\n"
      "  --file / --graph / --n / --seed\n"
      "                           the graph to sketch (same flags as serve)\n"
      "  --landmarks <k>          landmark budget (default 64)\n"
      "  --height <h>             ND hierarchy height for landmark\n"
      "                           selection (default 3)\n"
      "  --top-levels <l>         separator levels drawn from, root first\n"
      "                           (default 2)\n"
      "  --heuristic              skip the ND hierarchy; pick landmarks by\n"
      "                           degree/coverage instead\n"
      "\n"
      "--mode serve:  drive a DistanceService with a synthetic workload\n"
      "  --snapshot <path>        CAPSPDB2 snapshot (apsp_tool\n"
      "                           --save-distances)\n"
      "  --file / --graph / --n / --seed\n"
      "                           the graph the snapshot was solved from\n"
      "                           (same flags as apsp_tool)\n"
      "  --threads <t>            service worker threads (default 4)\n"
      "  --clients <c>            closed-loop client threads (default 8)\n"
      "  --requests <q>           workload size (default 10000)\n"
      "  --duration-s <sec>       soak: replay workload for a wall-clock\n"
      "                           budget instead of a fixed count\n"
      "  --mix uniform|zipf|bfs   query-pair distribution (default zipf)\n"
      "  --zipf-theta <t>         Zipf skew (default 0.99)\n"
      "  --ball <b>               BFS-locality ball size (default 64)\n"
      "  --queries distance|path|knear\n"
      "                           request type (default distance)\n"
      "  --k <k>                  neighbors for --queries knear (default 8)\n"
      "  --cache-bytes <b>        tile-cache budget (default 16 MiB); set\n"
      "                           below the matrix size to exercise\n"
      "                           eviction\n"
      "  --deadline-ms <ms>       per-request deadline (0 = none)\n"
      "  --max-queue <q>          admission bound (default 4096)\n"
      "  --open-loop --rate <qps> open-loop arrivals at a fixed rate\n"
      "  --workload-seed <int>    workload RNG seed (default 1)\n"
      "  --verify                 check every distance against the full\n"
      "                           matrix (bit-exact)\n"
      "  --report-json <path>     service summary JSON\n"
      "  --bench-name <name>      BENCH_<name>.json record name\n"
      "                           (default serve_<mix>_<queries>)\n"
      "\n"
      "tiered serving (docs/serving.md, \"Tiered serving\"):\n"
      "  --sketch <path>          CAPSPAX1 landmark sketch (--mode sketch);\n"
      "                           routes distance/knear queries through the\n"
      "                           approximate tier\n"
      "  --tier approx|exact|auto tier policy (default auto: answer from\n"
      "                           the sketch, escalate to the tile path\n"
      "                           when the certified interval is wider\n"
      "                           than the stretch budget)\n"
      "  --stretch-budget <f>     max accepted relative gap\n"
      "                           (upper-lower)/lower (default 0.25)\n"
      "  --verify-stretch         closed-loop distance runs only: check\n"
      "                           lower <= exact <= upper for every ok\n"
      "                           answer against the full matrix and fail\n"
      "                           on any violation\n"
      "\n"
      "observability (docs/telemetry.md):\n"
      "  --telemetry-port <p>     serve /metrics /healthz /stats.json on\n"
      "                           127.0.0.1:<p> (0 = ephemeral; default\n"
      "                           off)\n"
      "  --trace-sample <N>       trace every Nth request (0 = off)\n"
      "  --slow-ms <ms>           slow-request log threshold (0 = off)\n"
      "  --reqtrace <path>        write kept request traces as Chrome\n"
      "                           trace JSON (Perfetto-loadable)\n"
      "  --window-s <sec>         rolling telemetry window (default 10)\n"
      "  --slo-latency-ms <ms>    latency SLO threshold (0 = off)\n"
      "  --slo-target <f>         latency SLO target (default 0.99)\n"
      "  --slo-availability <f>   availability SLO target (default 0.999)\n"
      "\n"
      "resilience / chaos (docs/robustness.md):\n"
      "  --fault-plan <spec>      inject disk/process faults into the run\n"
      "                           (seed=N,read_error=P,eintr=P,short=P,\n"
      "                           flip=P,delay=P,delay_ms=M,alloc=P,\n"
      "                           bad_tile=T:K,stuck=W@J:S)\n"
      "  --chaos                  chaos harness: a fault-free oracle pass,\n"
      "                           then the same closed-loop distance\n"
      "                           workload under --fault-plan (or a\n"
      "                           default plan); every ok answer is\n"
      "                           checked bit-exact against the oracle,\n"
      "                           and a wrong answer shrinks the plan to a\n"
      "                           minimal reproducer and exits 1\n"
      "  --retry-max <n>          read attempts per tile fetch (default 4)\n"
      "  --retry-base-ms <ms>     first-retry backoff (default 0.2)\n"
      "  --quarantine-threshold <k>\n"
      "                           consecutive failed fetches before a tile\n"
      "                           is quarantined (default 3; 0 = off)\n"
      "  --quarantine-cooldown-ms <ms>\n"
      "                           quiet period before a re-probe\n"
      "                           (default 50)\n"
      "  --stuck-threshold-ms <ms>\n"
      "                           watchdog: replace a worker wedged longer\n"
      "                           than this (default off; 20 under\n"
      "                           --chaos)\n"
      "  --no-resilience          pre-resilience contract: no retries, no\n"
      "                           quarantine, tile-read failures propagate\n"
      "\n"
      "profiling (docs/profiling.md):\n"
      "  --profile                sample worker/client ProfScope stacks\n"
      "                           for the whole run; prints hot scopes\n"
      "                           and kernel throughput at exit\n"
      "  --profile-hz <hz>        sampling rate (default 497)\n"
      "  --profile-folded <path>  flamegraph-ready folded stacks\n"
      "  --profile-json <path>    full ProfReport JSON\n"
      "  (a live service also exposes /profile?seconds=N on the\n"
      "   --telemetry-port endpoint for windowed captures)\n"
      "\n"
      "logging (docs/observability.md):\n"
      "  --log-level <level>      structured-log sink threshold: trace|\n"
      "                           debug|info|warn|error|off (default warn;\n"
      "                           overrides CAPSP_LOG_LEVEL)\n"
      "  --log-json               JSON-lines log output (or CAPSP_LOG_JSON=1)\n"
      "  --flightrec <path>       arm the black-box flight recorder: CHECK\n"
      "                           failures, fatal signals and SIGTERM dump\n"
      "                           the last events of every thread here (or\n"
      "                           CAPSP_FLIGHTREC_DUMP); a fault plan also\n"
      "                           raises the recorder to trace so the dump\n"
      "                           carries per-request events\n"
      "  (a live service also exposes /logs?n=N and /debug/flightrec on\n"
      "   the --telemetry-port endpoint)\n"
      "  --version                build/host provenance, then exit\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  error (bad input, failed invariant CHECK, failed --verify or\n"
      "     --verify-stretch, chaos harness caught a wrong ok answer)\n"
      "  2  usage error (unknown --mode, contradictory or incomplete\n"
      "     flags — e.g. --tier without --sketch, --mode serve without\n"
      "     --snapshot)\n";
}

Graph build_graph(const Cli& cli, Rng& rng) {
  const std::string file = cli.get_string("file", "");
  if (!file.empty()) return load_graph_auto(file);
  return make_named_graph(cli.get_string("graph", "grid"),
                          static_cast<Vertex>(cli.get_int("n", 256)), rng);
}

/// --mode sketch: the offline half of the tiered serving story.  Selects
/// landmarks (from the ND separator hierarchy by default — the vertices
/// the paper's algorithm already proves shortest paths cross — or by the
/// degree/coverage heuristic), computes each landmark's distance row with
/// the sequential solver, and writes the checksummed CAPSPAX1 file that
/// --mode serve --sketch loads.
int mode_sketch(const Cli& cli, Rng& rng) {
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw UsageError("--mode sketch requires --out <path>");
  const Graph graph = build_graph(cli, rng);
  SketchOptions options;
  options.max_landmarks = cli.get_int("landmarks", 64);
  options.top_levels = static_cast<int>(cli.get_int("top-levels", 2));
  const bool heuristic = cli.get_bool("heuristic", false);
  const int height = static_cast<int>(cli.get_int("height", 3));
  cli.check_flags();
  LandmarkSketch sketch;
  if (heuristic) {
    sketch = build_sketch(graph, options);
  } else {
    const Dissection nd = nested_dissection(graph, height, rng);
    sketch = build_sketch(graph, nd, options);
  }
  write_sketch(out, sketch);
  std::cout << "wrote sketch: " << sketch.num_landmarks() << " landmarks x "
            << sketch.n << " vertices (" << graph.num_edges()
            << " edges) to " << out << "\n";
  return 0;
}

struct Query {
  Vertex u = 0;
  Vertex v = 0;
};

/// Zipf-skewed vertex draw: rank r has probability ∝ 1/(r+1)^theta, and a
/// seeded permutation maps ranks to vertices so the hot set is spread over
/// the matrix (adjacent hot vertices would share tiles and flatter the
/// cache).
class ZipfSampler {
 public:
  ZipfSampler(Vertex n, double theta, Rng& rng) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double sum = 0;
    for (Vertex r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
    perm_.resize(static_cast<std::size_t>(n));
    for (Vertex v = 0; v < n; ++v) perm_[static_cast<std::size_t>(v)] = v;
    for (std::size_t i = perm_.size(); i > 1; --i)
      std::swap(perm_[i - 1], perm_[rng.uniform(i)]);
  }

  Vertex draw(Rng& rng) {
    const double x = rng.uniform_real();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return perm_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<Vertex> perm_;
};

/// Up to `size` vertices reachable from `center`, in BFS order.
std::vector<Vertex> bfs_ball(const Graph& graph, Vertex center,
                             std::size_t size) {
  std::vector<Vertex> ball{center};
  std::vector<bool> seen(static_cast<std::size_t>(graph.num_vertices()));
  seen[static_cast<std::size_t>(center)] = true;
  for (std::size_t head = 0; head < ball.size() && ball.size() < size;
       ++head) {
    for (const auto& nb : graph.neighbors(ball[head])) {
      if (seen[static_cast<std::size_t>(nb.to)]) continue;
      seen[static_cast<std::size_t>(nb.to)] = true;
      ball.push_back(nb.to);
      if (ball.size() >= size) break;
    }
  }
  return ball;
}

std::vector<Query> make_workload(const Graph& graph, const std::string& mix,
                                 std::int64_t count, double zipf_theta,
                                 std::size_t ball_size, Rng& rng) {
  const Vertex n = graph.num_vertices();
  CAPSP_CHECK_MSG(n > 0, "cannot generate a workload on an empty graph");
  std::vector<Query> queries;
  queries.reserve(static_cast<std::size_t>(count));
  if (mix == "uniform") {
    for (std::int64_t i = 0; i < count; ++i)
      queries.push_back(
          {static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n))),
           static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)))});
  } else if (mix == "zipf") {
    ZipfSampler zipf(n, zipf_theta, rng);
    for (std::int64_t i = 0; i < count; ++i)
      queries.push_back({zipf.draw(rng), zipf.draw(rng)});
  } else if (mix == "bfs") {
    // Locality mix: bursts of queries inside one BFS ball, like map
    // clients panning a region, with the ball recentered between bursts.
    constexpr std::size_t kQueriesPerBall = 32;
    while (queries.size() < static_cast<std::size_t>(count)) {
      const auto center =
          static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
      const std::vector<Vertex> ball = bfs_ball(graph, center, ball_size);
      for (std::size_t i = 0;
           i < kQueriesPerBall &&
           queries.size() < static_cast<std::size_t>(count);
           ++i)
        queries.push_back({ball[rng.uniform(ball.size())],
                           ball[rng.uniform(ball.size())]});
    }
  } else {
    CAPSP_CHECK_MSG(false,
                    "unknown --mix '" << mix << "' (uniform|zipf|bfs)");
  }
  return queries;
}

/// Per-query outcome, recorded into a pre-sized slot so the aggregation
/// below can run in index order — sums of doubles stay deterministic no
/// matter how the threads interleaved.  The tier fields are only
/// meaningful on a --sketch run; bounds come from the sketch's certified
/// interval (both kInf-free only on the approx tier).
struct Outcome {
  ServeError error = ServeError::kOk;
  Dist distance = kInf;
  std::int64_t hops = 0;
  Tier tier = Tier::kExact;
  bool escalated = false;
  Dist lower = kInf;
  Dist upper = kInf;
};

Outcome issue(DistanceService& service, TieredDistanceService* tiered,
              const Query& query, const std::string& kind, int k,
              double deadline_seconds) {
  Outcome outcome;
  if (kind == "distance") {
    if (tiered != nullptr) {
      const TieredDistanceReply reply =
          tiered->distance(query.u, query.v, deadline_seconds);
      outcome.error = reply.error;
      outcome.distance = reply.estimate;
      outcome.tier = reply.tier;
      outcome.escalated = reply.escalated;
      outcome.lower = reply.lower_bound;
      outcome.upper = reply.upper_bound;
      return outcome;
    }
    const DistanceReply reply =
        service.distance(query.u, query.v, deadline_seconds);
    outcome.error = reply.error;
    outcome.distance = reply.distance;
  } else if (kind == "path") {
    PathReply reply =
        service.shortest_path(query.u, query.v, deadline_seconds);
    outcome.error = reply.error;
    outcome.distance = reply.distance;
    outcome.hops = reply.path.empty()
                       ? 0
                       : static_cast<std::int64_t>(reply.path.size()) - 1;
  } else {
    if (tiered != nullptr) {
      const TieredKNearestReply reply =
          tiered->k_nearest(query.u, k, deadline_seconds);
      outcome.error = reply.error;
      outcome.distance = 0;
      for (const NearVertex& near : reply.nearest)
        outcome.distance += near.distance;
      outcome.hops = static_cast<std::int64_t>(reply.nearest.size());
      outcome.tier = reply.tier;
      outcome.escalated = reply.escalated;
      return outcome;
    }
    const KNearestReply reply =
        service.k_nearest(query.u, k, deadline_seconds);
    outcome.error = reply.error;
    outcome.distance = 0;
    for (const NearVertex& near : reply.nearest)
      outcome.distance += near.distance;
    outcome.hops = static_cast<std::int64_t>(reply.nearest.size());
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Chaos harness (--chaos / --fault-plan; docs/robustness.md).

/// Default --chaos plan: a hostile but survivable disk.  Every read-fault
/// class is represented.  bad_tile=0:40 is sized against the default
/// retry/quarantine knobs: with at most `clients` concurrent fetches each
/// burning 4 attempts, the first three fetches of tile 0 to complete all
/// land inside the 40-attempt failure budget, so the tile enters
/// quarantine regardless of interleaving; background probes then burn the
/// rest of the budget (one attempt per --quarantine-cooldown-ms, 10 under
/// --chaos) and the tile heals — the full enter→probe→exit lifecycle in a
/// bounded fraction of a second.  Worker 1 wedges on its 5th job long
/// enough for the watchdog (--stuck-threshold-ms defaults to 20 under
/// --chaos) to abandon and replace it.
constexpr const char* kDefaultChaosPlan =
    "seed=7,read_error=0.02,eintr=0.03,short=0.03,flip=0.02,"
    "delay=0.04,delay_ms=1,bad_tile=0:40,stuck=1@5:0.08";

std::int64_t counter_of(const MetricsSnapshot& metrics,
                        const std::string& name) {
  const auto it = metrics.find(name);
  return it == metrics.end() ? 0 : it->second.counter;
}

/// Everything one chaos pass yields.  Every ok answer is compared against
/// the oracle matrix inline, so a pass is self-verifying; a degraded or
/// shed reply is never compared (that is the point of degradation).
struct ChaosPass {
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t degraded = 0;
  std::int64_t errors = 0;  ///< overloaded + deadline_exceeded
  std::int64_t mismatches = 0;
  Query first_bad{};
  Dist got = 0;
  Dist want = 0;
  double elapsed = 0;
  HealthState final_health = HealthState::kOk;
  ServeFaultInjector::Counts injected;
  QuarantineRegistry::Stats quarantine;
  DistanceService::WorkerStats workers;
  std::int64_t retry_attempts = 0;
  std::int64_t retry_success = 0;
  std::int64_t retry_exhausted = 0;
};

/// One pass: a fresh service (fault-injected when `plan` is non-empty)
/// driven by `clients` closed-loop threads over `queries` — cyclically
/// for `duration_s` seconds when that is set, one stride each otherwise.
ChaosPass run_chaos_pass(const std::shared_ptr<SnapshotReader>& reader,
                         const Graph& graph, const ServeOptions& base,
                         const ServeFaultPlan& plan,
                         const std::vector<Query>& queries, int clients,
                         double deadline_seconds, double duration_s,
                         const DistBlock& oracle,
                         const std::string& report_path) {
  ServeOptions options = base;
  std::shared_ptr<ServeFaultInjector> injector;
  if (!plan.empty()) {
    injector = std::make_shared<ServeFaultInjector>(plan);
    options.fault_injector = injector;
  }
  DistanceService service(reader, graph, options);

  ChaosPass pass;
  std::mutex bad_mutex;
  std::atomic<std::int64_t> issued{0}, ok{0}, degraded{0}, errors{0},
      mismatches{0};
  const auto start = std::chrono::steady_clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      Rng pick(static_cast<std::uint64_t>(c) * 104729 + 17);
      std::size_t next = static_cast<std::size_t>(c);
      while (g_interrupted == 0) {
        Query query;
        if (duration_s > 0) {
          // Soak: replay cyclically until the wall-clock budget is spent.
          if (std::chrono::steady_clock::now() >= stop_at) break;
          query = queries[pick.uniform(queries.size())];
        } else {
          if (next >= queries.size()) break;
          query = queries[next];
          next += static_cast<std::size_t>(clients);
        }
        const DistanceReply reply =
            service.distance(query.u, query.v, deadline_seconds);
        issued.fetch_add(1, std::memory_order_relaxed);
        switch (reply.error) {
          case ServeError::kOk: {
            ok.fetch_add(1, std::memory_order_relaxed);
            const Dist want = oracle.at(query.u, query.v);
            if (reply.distance != want &&
                mismatches.fetch_add(1, std::memory_order_relaxed) == 0) {
              const std::lock_guard<std::mutex> lock(bad_mutex);
              pass.first_bad = query;
              pass.got = reply.distance;
              pass.want = want;
            }
            break;
          }
          case ServeError::kDegraded:
            degraded.fetch_add(1, std::memory_order_relaxed);
            break;
          case ServeError::kOverloaded:
          case ServeError::kDeadlineExceeded:
            errors.fetch_add(1, std::memory_order_relaxed);
            break;
          case ServeError::kShutdown:
            break;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  // A deterministic bad tile is still quarantined when the workload
  // drains (its failure budget outlasts the clients by design).  Hold the
  // service open so the background probes finish burning the budget and
  // the tile exits quarantine — the enter→probe→exit lifecycle is part of
  // what a chaos run must demonstrate.  Bounded: the budget is finite.
  if (plan.bad_tile >= 0 && g_interrupted == 0) {
    const auto heal_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.quarantine_stats().active > 0 &&
           std::chrono::steady_clock::now() < heal_deadline &&
           g_interrupted == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pass.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pass.issued = issued.load();
  pass.ok = ok.load();
  pass.degraded = degraded.load();
  pass.errors = errors.load();
  pass.mismatches = mismatches.load();
  pass.final_health = service.health();
  const MetricsSnapshot metrics = service.metrics_snapshot();
  pass.retry_attempts = counter_of(metrics, "serve.retry.attempts");
  pass.retry_success = counter_of(metrics, "serve.retry.success");
  pass.retry_exhausted = counter_of(metrics, "serve.retry.exhausted");
  pass.quarantine = service.quarantine_stats();
  pass.workers = service.worker_stats();
  service.stop();
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    CAPSP_CHECK_MSG(out, "cannot write --report-json file " << report_path);
    service.write_summary_json(out);
    std::cout << "wrote serve summary to " << report_path << "\n";
  }
  if (injector != nullptr) pass.injected = injector->counts();
  return pass;
}

/// The test_fault shrinking idiom: greedily zero one knob at a time and
/// keep the zeroing whenever the wrong answer still reproduces, so the
/// plan reported for a red run is (locally) minimal.
ServeFaultPlan shrink_chaos_plan(
    const ServeFaultPlan& plan,
    const std::function<bool(const ServeFaultPlan&)>& still_fails) {
  ServeFaultPlan minimal = plan;
  constexpr double ServeFaultPlan::*kKnobs[] = {
      &ServeFaultPlan::read_error, &ServeFaultPlan::eintr,
      &ServeFaultPlan::short_read, &ServeFaultPlan::flip,
      &ServeFaultPlan::delay,      &ServeFaultPlan::alloc};
  for (const auto knob : kKnobs) {
    if (minimal.*knob <= 0) continue;
    ServeFaultPlan candidate = minimal;
    candidate.*knob = 0;
    if (still_fails(candidate)) minimal = candidate;
  }
  if (minimal.bad_tile >= 0) {
    ServeFaultPlan candidate = minimal;
    candidate.bad_tile = -1;
    candidate.bad_tile_fails = 0;
    if (still_fails(candidate)) minimal = candidate;
  }
  if (!minimal.stuck.empty()) {
    ServeFaultPlan candidate = minimal;
    candidate.stuck.clear();
    if (still_fails(candidate)) minimal = candidate;
  }
  return minimal;
}

/// --chaos driver: fault-free oracle + clean pass, then the faulted pass,
/// then (only on a wrong answer) plan shrinking.  Both passes run in this
/// one process so the BenchJson registry writes their records into one
/// BENCH_serve_chaos.json at exit.
int run_chaos(const std::string& report_path,
              const std::shared_ptr<SnapshotReader>& reader,
              const Graph& graph, const ServeOptions& base,
              const ServeFaultPlan& plan, const std::vector<Query>& queries,
              const std::string& mix, int clients, double deadline_seconds,
              double duration_s) {
  // The fault-free oracle, reassembled before any injector can touch the
  // reader: under chaos, "correct" means bit-exact against this matrix.
  const SnapshotHeader& h = reader->header();
  DistBlock oracle(h.rows, h.cols);
  for (std::int64_t t = 0; t < h.num_tiles(); ++t)
    oracle.set_sub_block((t / h.tile_cols()) * h.tile_dim,
                         (t % h.tile_cols()) * h.tile_dim,
                         reader->read_tile(t));

  // SIGINT/SIGTERM drain the clients and still print the summary — the
  // same operator contract as a plain soak.
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);

  std::cout << "chaos: plan '" << plan.to_string() << "'\n";
  // Clean pass first: the fault-free half of the BENCH_serve_chaos pair,
  // and proof the harness itself is green before faults muddy the water.
  // A soak spends its wall-clock budget on the *faulted* pass; the clean
  // pass only needs to be long enough to prove itself.
  const double clean_duration =
      duration_s > 0 ? std::min(duration_s, 0.5) : 0;
  const ChaosPass clean =
      run_chaos_pass(reader, graph, base, ServeFaultPlan{}, queries, clients,
                     deadline_seconds, clean_duration, oracle, "");
  CAPSP_CHECK_MSG(clean.mismatches == 0,
                  "fault-free pass diverged from the oracle — the snapshot "
                  "or harness is broken, not the fault tolerance");
  std::cout << "chaos: clean pass " << clean.issued << " requests, "
            << clean.ok << " ok, all bit-exact (" << clean.elapsed
            << " s)\n";

  ChaosPass chaos = run_chaos_pass(reader, graph, base, plan, queries,
                                   clients, deadline_seconds, duration_s,
                                   oracle, report_path);

  std::cout << "chaos: faulted pass " << chaos.issued << " requests in "
            << chaos.elapsed << " s: " << chaos.ok << " ok, "
            << chaos.degraded << " degraded, " << chaos.errors
            << " overloaded/expired\n";
  const ServeFaultInjector::Counts& in = chaos.injected;
  std::cout << "chaos: injected eio=" << in.eio << " eintr=" << in.eintr
            << " short=" << in.short_reads << " flip=" << in.flips
            << " delay=" << in.delays << " alloc=" << in.allocs
            << " stuck=" << in.sticks << "\n";
  std::cout << "chaos: retries " << chaos.retry_attempts << " attempts, "
            << chaos.retry_success << " recovered, "
            << chaos.retry_exhausted << " exhausted; quarantine enters="
            << chaos.quarantine.enters << " exits=" << chaos.quarantine.exits
            << " blocked=" << chaos.quarantine.blocked << "; workers stuck="
            << chaos.workers.stuck << " replaced=" << chaos.workers.replaced
            << "\n";
  std::cout << "chaos: final health " << to_string(chaos.final_health)
            << "\n";
  if (g_interrupted != 0) {
    std::cout << "chaos: interrupted; drained clients, emitting summary\n";
    // The graceful drain preempts the flight recorder's own SIGTERM
    // handler, so a soak killed mid-run writes its black box here.
    flightrec::dump_if_configured("sigterm_drain");
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // BENCH pair (closed loop only — a soak's counts are wall-clock-bound).
  // Which attempt each thread draws depends on interleaving, so every
  // faulted-pass count is chaos_-prefixed and the CI gate adds
  // --metric-class 'chaos_*=skip'; `mismatches` stays unprefixed on
  // purpose — it is 0 by contract, and a baseline diff should scream if
  // it ever is not.
  if (duration_s == 0) {
    const auto n = static_cast<std::int64_t>(graph.num_vertices());
    bench::BenchJson::get("serve_chaos").add(
        {{"phase", "clean"},
         {"mix", mix},
         {"n", n},
         {"tile", h.tile_dim},
         {"cache_bytes", base.cache_bytes},
         {"threads", static_cast<std::int64_t>(base.threads)},
         {"clients", static_cast<std::int64_t>(clients)},
         {"requests", static_cast<std::int64_t>(queries.size())},
         {"ok", clean.ok},
         {"mismatches", clean.mismatches},
         {"elapsed_seconds", clean.elapsed},
         {"qps_wall",
          clean.elapsed > 0
              ? static_cast<double>(clean.issued) / clean.elapsed
              : 0.0}});
    bench::BenchJson::get("serve_chaos").add(
        {{"phase", "chaos"},
         {"mix", mix},
         {"n", n},
         {"tile", h.tile_dim},
         {"cache_bytes", base.cache_bytes},
         {"threads", static_cast<std::int64_t>(base.threads)},
         {"clients", static_cast<std::int64_t>(clients)},
         {"requests", static_cast<std::int64_t>(queries.size())},
         {"plan", plan.to_string()},
         {"mismatches", chaos.mismatches},
         {"chaos_ok", chaos.ok},
         {"chaos_degraded", chaos.degraded},
         {"chaos_retry_attempts", chaos.retry_attempts},
         {"chaos_retry_success", chaos.retry_success},
         {"chaos_retry_exhausted", chaos.retry_exhausted},
         {"chaos_quarantine_enters", chaos.quarantine.enters},
         {"chaos_quarantine_exits", chaos.quarantine.exits},
         {"chaos_injected_reads",
          in.eio + in.eintr + in.short_reads + in.flips + in.delays},
         {"chaos_workers_replaced", chaos.workers.replaced},
         {"elapsed_seconds", chaos.elapsed},
         {"qps_wall",
          chaos.elapsed > 0
              ? static_cast<double>(chaos.issued) / chaos.elapsed
              : 0.0}});
  }

  if (chaos.mismatches > 0) {
    std::cout << "chaos: " << chaos.mismatches
              << " WRONG ok answers; first: (" << chaos.first_bad.u << ","
              << chaos.first_bad.v << ") got " << chaos.got << " want "
              << chaos.want << "\n";
    std::cout << "chaos: shrinking plan to a minimal reproducer...\n";
    const ServeFaultPlan minimal =
        shrink_chaos_plan(plan, [&](const ServeFaultPlan& candidate) {
          return run_chaos_pass(reader, graph, base, candidate, queries,
                                clients, deadline_seconds, duration_s,
                                oracle, "")
                     .mismatches > 0;
        });
    std::cout << "chaos: minimal failing plan '" << minimal.to_string()
              << "'\n";
    return 1;
  }
  std::cout << "chaos: all " << chaos.ok
            << " ok answers bit-exact vs the fault-free oracle\n";
  return 0;
}

int mode_serve(const Cli& cli, Rng& rng) {
  const std::string snapshot_path = cli.get_string("snapshot", "");
  if (snapshot_path.empty())
    throw UsageError("--mode serve requires --snapshot <path>");
  const Graph graph = build_graph(cli, rng);
  auto reader = std::make_shared<SnapshotReader>(snapshot_path);
  ServeOptions options;
  options.threads = static_cast<int>(cli.get_int("threads", 4));
  options.cache_bytes = cli.get_int("cache-bytes", 16 << 20);
  options.max_queue =
      static_cast<std::size_t>(cli.get_int("max-queue", 4096));
  options.trace_sample_every = cli.get_int("trace-sample", 0);
  options.slow_trace_ms = cli.get_double("slow-ms", 0);
  options.window_seconds = cli.get_double("window-s", 10);
  options.slo.latency_ms = cli.get_double("slo-latency-ms", 0);
  options.slo.latency_target = cli.get_double("slo-target", 0.99);
  options.slo.availability_target =
      cli.get_double("slo-availability", 0.999);
  options.slo.window_seconds = options.window_seconds;

  // Fault tolerance knobs (docs/robustness.md) and the fault plan.  A
  // bare --fault-plan runs the normal driver with injection live (every
  // mode, every query kind); --chaos runs the self-verifying harness.
  const bool chaos = cli.get_bool("chaos", false);
  const std::string plan_spec =
      cli.get_string("fault-plan", chaos ? kDefaultChaosPlan : "");
  const ServeFaultPlan plan = plan_spec.empty()
                                  ? ServeFaultPlan{}
                                  : ServeFaultPlan::parse(plan_spec);
  // Chaos runs record per-request kTrace events (job start/done, fault
  // injections, retries) into the flight recorder, so a dump from a
  // dying soak names the in-flight request ids.  Sink level is
  // untouched: the rings are cheap, the console stays quiet.
  if (!plan_spec.empty())
    Logger::global().set_ring_level(LogLevel::kTrace);
  options.resilience = !cli.get_bool("no-resilience", false);
  options.retry.max_attempts =
      static_cast<int>(cli.get_int("retry-max", 4));
  options.retry.backoff_base_ms = cli.get_double("retry-base-ms", 0.2);
  options.quarantine.threshold =
      static_cast<int>(cli.get_int("quarantine-threshold", 3));
  options.quarantine.cooldown_ms =
      cli.get_double("quarantine-cooldown-ms", chaos ? 10 : 50);
  options.stuck_worker_ms =
      cli.get_double("stuck-threshold-ms", chaos ? 20 : 0);

  const std::string mix = cli.get_string("mix", "zipf");
  if (mix != "uniform" && mix != "zipf" && mix != "bfs")
    throw UsageError("unknown --mix '" + mix + "' (uniform|zipf|bfs)");
  const std::string kind = cli.get_string("queries", "distance");
  if (kind != "distance" && kind != "path" && kind != "knear")
    throw UsageError("unknown --queries '" + kind +
                     "' (distance|path|knear)");
  const std::int64_t requests = cli.get_int("requests", 10000);
  const int clients =
      std::max(1, static_cast<int>(cli.get_int("clients", 8)));
  const int k = static_cast<int>(cli.get_int("k", 8));
  const double deadline_ms = cli.get_double("deadline-ms", 0);
  const double deadline_seconds = deadline_ms > 0 ? deadline_ms / 1000 : -1;
  const double duration_s = cli.get_double("duration-s", 0);
  const bool open_loop = cli.get_bool("open-loop", false);
  const double rate = cli.get_double("rate", 20000);

  // Tiered-serving flags (docs/serving.md, "Tiered serving").  Every
  // contradictory combination is a usage error up front — the run has
  // not started, so nothing is lost by refusing.
  const std::string sketch_path = cli.get_string("sketch", "");
  const std::string tier_name = cli.get_string("tier", "auto");
  TierMode tier_mode = TierMode::kAuto;
  if (!parse_tier_mode(tier_name, &tier_mode))
    throw UsageError("unknown --tier '" + tier_name + "' (approx|exact|auto)");
  if (sketch_path.empty()) {
    if (cli.has("tier"))
      throw UsageError("--tier needs --sketch <path> (the approximate tier "
                       "answers from a CAPSPAX1 sketch; --mode sketch "
                       "builds one)");
    if (cli.has("stretch-budget"))
      throw UsageError("--stretch-budget needs --sketch <path>");
    if (cli.get_bool("verify-stretch", false))
      throw UsageError("--verify-stretch needs --sketch <path>");
  }
  const double stretch_budget = cli.get_double("stretch-budget", 0.25);
  const bool verify_stretch = cli.get_bool("verify-stretch", false);
  if (verify_stretch && (kind != "distance" || open_loop || duration_s > 0))
    throw UsageError("--verify-stretch needs a closed-loop distance run "
                     "(drop --open-loop/--duration-s/--queries)");
  if (cli.get_bool("verify", false)) {
    if (kind != "distance" || open_loop || duration_s > 0)
      throw UsageError("--verify needs a closed-loop distance run");
    if (!sketch_path.empty() && tier_mode != TierMode::kExact)
      throw UsageError("--verify is bit-exact; with --sketch use "
                       "--verify-stretch (or --tier exact)");
  }
  if (!sketch_path.empty()) {
    if (chaos)
      throw UsageError("--chaos is exact-only (its oracle comparison is "
                       "bit-exact); drop --sketch");
    if (open_loop)
      throw UsageError("--open-loop drives the exact tier's async API; "
                       "drop --sketch");
    if (kind == "path")
      throw UsageError("--sketch serves distance|knear queries (path "
                       "reconstruction is exact-only)");
  }

  Rng workload_rng(
      static_cast<std::uint64_t>(cli.get_int("workload-seed", 1)));
  const std::vector<Query> queries = make_workload(
      graph, mix, requests, cli.get_double("zipf-theta", 0.99),
      static_cast<std::size_t>(cli.get_int("ball", 64)), workload_rng);
  // The outputs, read with every other flag before the service starts.
  const std::int64_t telemetry_port = cli.get_int("telemetry-port", -1);
  const std::string reqtrace_path = cli.get_string("reqtrace", "");
  const std::string report_path = cli.get_string("report-json", "");
  const std::string bench_name_flag = cli.get_string("bench-name", "");
  const auto bench_name_or = [&](const std::string& fallback) {
    return bench_name_flag.empty() ? fallback : bench_name_flag;
  };
  cli.check_flags();

  std::cout << "serving " << reader->header().rows << "x"
            << reader->header().cols << " snapshot ("
            << reader->header().num_tiles() << " tiles of "
            << reader->header().tile_dim
            << (reader->file_backed() ? ", file-backed" : ", in-memory")
            << ") with " << options.threads << " workers, cache budget "
            << options.cache_bytes << " bytes\n";
  std::cout << "workload: " << queries.size() << " " << mix << " " << kind
            << " queries, "
            << (open_loop
                    ? "open loop"
                    : duration_s > 0 ? "closed-loop soak" : "closed loop")
            << ", " << clients << " clients\n";

  if (chaos) {
    if (kind != "distance" || open_loop)
      throw UsageError("--chaos is a closed-loop distance harness (it owns "
                       "the oracle comparison); drop --open-loop/--queries");
    return run_chaos(report_path, reader, graph, options, plan, queries, mix,
                     clients, deadline_seconds, duration_s);
  }
  std::shared_ptr<ServeFaultInjector> injector;
  if (!plan.empty()) {
    injector = std::make_shared<ServeFaultInjector>(plan);
    options.fault_injector = injector;
    std::cout << "fault plan: " << plan.to_string() << "\n";
  }
  DistanceService service(reader, graph, options);

  // The tiered front-end wraps the service when a sketch is given; the
  // reader rejects a truncated or corrupted CAPSPAX1 file outright
  // (check_error, exit 1 — a bad artifact is an error, not a usage slip).
  std::unique_ptr<TieredDistanceService> tiered;
  if (!sketch_path.empty()) {
    auto sketch = std::make_shared<LandmarkSketch>(read_sketch(sketch_path));
    TieredOptions tier_options;
    tier_options.mode = tier_mode;
    tier_options.stretch_budget = stretch_budget;
    tiered = std::make_unique<TieredDistanceService>(
        service, std::move(sketch), tier_options);
    std::cout << "tier: " << to_string(tier_mode) << " over "
              << tiered->sketch()->num_landmarks()
              << " landmarks, stretch budget " << stretch_budget << "\n";
  }

  if (telemetry_port >= 0) {
    const int bound =
        service.start_telemetry(static_cast<int>(telemetry_port));
    std::cout << "telemetry: http://127.0.0.1:" << bound
              << " (/metrics /healthz /stats.json)\n";
  }

  std::vector<Outcome> outcomes(queries.size());
  std::atomic<std::int64_t> soak_issued{0};
  const auto start = std::chrono::steady_clock::now();
  if (open_loop) {
    // Open loop: arrivals on a fixed schedule, regardless of completions.
    if (rate <= 0) throw UsageError("--open-loop requires --rate > 0");
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    std::vector<std::future<DistanceReply>> futures;
    futures.reserve(queries.size());
    auto next = start;
    for (const Query& query : queries) {
      std::this_thread::sleep_until(next);
      next += interval;
      futures.push_back(
          service.distance_async(query.u, query.v, deadline_seconds));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const DistanceReply reply = futures[i].get();
      outcomes[i] = {reply.error, reply.distance, 0};
    }
  } else if (duration_s > 0) {
    // Soak: replay the workload cyclically until the wall-clock budget is
    // spent or an operator interrupt arrives; either way the clients
    // drain and the summary below still runs.
    std::signal(SIGINT, handle_interrupt);
    std::signal(SIGTERM, handle_interrupt);
    const auto stop_at =
        start + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(duration_s));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        Rng pick(static_cast<std::uint64_t>(c) * 7919 + 13);
        while (std::chrono::steady_clock::now() < stop_at &&
               g_interrupted == 0) {
          const Query& query = queries[pick.uniform(queries.size())];
          issue(service, tiered.get(), query, kind, k, deadline_seconds);
          soak_issued.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (g_interrupted != 0) {
      std::cout << "soak interrupted; drained clients, emitting summary\n";
      flightrec::dump_if_configured("sigterm_drain");
    }
  } else {
    // Closed loop: each client issues its stride of the workload
    // back-to-back; slot-per-query results keep aggregation
    // deterministic.
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c);
             i < queries.size(); i += static_cast<std::size_t>(clients))
          outcomes[i] = issue(service, tiered.get(), queries[i], kind, k,
                              deadline_seconds);
      });
    }
    for (std::thread& t : pool) t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Capture the rolling windows before the drain quiesces them, then
  // stop: after stop() every in-flight trace is routed and the telemetry
  // endpoint has served its last scrape, so the reports below are final.
  const WindowStats latency_window = service.latency_window();
  const WindowStats error_window = service.error_window();
  service.stop();

  // Aggregate in index order (see Outcome).
  std::int64_t ok = 0, overloaded = 0, expired = 0, degraded = 0,
               unreachable = 0;
  std::int64_t path_hops = 0;
  double distance_sum = 0;
  for (const Outcome& outcome : outcomes) {
    switch (outcome.error) {
      case ServeError::kOk: ++ok; break;
      case ServeError::kOverloaded: ++overloaded; break;
      case ServeError::kDeadlineExceeded: ++expired; break;
      case ServeError::kDegraded: ++degraded; break;
      case ServeError::kShutdown: break;
    }
    if (outcome.error != ServeError::kOk) continue;
    if (is_inf(outcome.distance)) {
      ++unreachable;
    } else {
      distance_sum += outcome.distance;
    }
    path_hops += outcome.hops;
  }
  const std::int64_t issued =
      duration_s > 0 ? soak_issued.load() : static_cast<std::int64_t>(
                                                outcomes.size());

  // Tier split and observed-stretch distribution, both in index order so
  // a closed-loop run's numbers are interleaving-independent: the sketch
  // is immutable, so which tier answered and how wide its interval was
  // depend only on the query, never on timing.
  std::int64_t tier_approx = 0, tier_exact = 0, tier_escalated = 0;
  std::vector<double> gaps;
  double gap_sum = 0;
  if (tiered != nullptr) {
    for (const Outcome& outcome : outcomes) {
      if (outcome.error != ServeError::kOk) continue;
      if (outcome.tier == Tier::kApprox) ++tier_approx; else ++tier_exact;
      if (outcome.escalated) ++tier_escalated;
      if (outcome.tier == Tier::kApprox && kind == "distance" &&
          !is_inf(outcome.upper) && outcome.lower > 0) {
        const double gap = (outcome.upper - outcome.lower) / outcome.lower;
        gaps.push_back(gap);
        gap_sum += gap;
      }
    }
  }
  std::vector<double> sorted_gaps = gaps;
  std::sort(sorted_gaps.begin(), sorted_gaps.end());
  const auto gap_at = [&sorted_gaps](double q) {
    if (sorted_gaps.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted_gaps.size() - 1));
    return sorted_gaps[rank];
  };
  const double gap_mean =
      gaps.empty() ? 0.0 : gap_sum / static_cast<double>(gaps.size());

  if (cli.get_bool("verify", false)) {
    // Reassemble the full matrix from tiles and recheck every answer
    // bit-exactly (the acceptance bar for the serving layer).
    const SnapshotHeader& h = reader->header();
    DistBlock full(h.rows, h.cols);
    for (std::int64_t t = 0; t < h.num_tiles(); ++t)
      full.set_sub_block((t / h.tile_cols()) * h.tile_dim,
                         (t % h.tile_cols()) * h.tile_dim, reader->read_tile(t));
    // Only ok answers carry the exactness contract: under a fault plan a
    // request may legitimately come back degraded, and checking its
    // placeholder distance would punish correct load shedding.
    std::int64_t checked = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (outcomes[i].error != ServeError::kOk) continue;
      ++checked;
      CAPSP_CHECK_MSG(outcomes[i].distance ==
                          full.at(queries[i].u, queries[i].v),
                      "served distance for (" << queries[i].u << ","
                                              << queries[i].v
                                              << ") diverged from matrix");
    }
    std::cout << "verify: all " << checked << " of " << queries.size()
              << " ok distances bit-exact vs the matrix\n";
  }

  if (verify_stretch) {
    // The stretch certificate's acceptance bar: every ok answer's
    // interval must contain the exact distance, and an exact-tier answer
    // must BE the exact distance.  A single violation means the sketch
    // math (or the escalation policy) is wrong — fail loudly.
    const SnapshotHeader& h = reader->header();
    DistBlock full(h.rows, h.cols);
    for (std::int64_t t = 0; t < h.num_tiles(); ++t)
      full.set_sub_block((t / h.tile_cols()) * h.tile_dim,
                         (t % h.tile_cols()) * h.tile_dim,
                         reader->read_tile(t));
    std::int64_t checked = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Outcome& outcome = outcomes[i];
      if (outcome.error != ServeError::kOk) continue;
      ++checked;
      const Dist exact = full.at(queries[i].u, queries[i].v);
      if (outcome.tier == Tier::kExact) {
        CAPSP_CHECK_MSG(outcome.distance == exact,
                        "exact-tier answer for (" << queries[i].u << ","
                                                  << queries[i].v
                                                  << ") diverged from matrix");
        continue;
      }
      // Rounding slack for real weights; exact==inf propagates cleanly
      // (inf <= inf on both sides when the sketch proved disconnection).
      const Dist eps =
          is_inf(exact) ? 0 : 1e-9 * std::max(1.0, std::abs(exact));
      CAPSP_CHECK_MSG(outcome.lower <= exact + eps && exact <= outcome.upper + eps,
                      "stretch bound violated at (" << queries[i].u << ","
                                                    << queries[i].v << "): ["
                                                    << outcome.lower << ", "
                                                    << outcome.upper
                                                    << "] does not contain "
                                                    << exact);
    }
    std::cout << "verify-stretch: all " << checked << " of "
              << queries.size()
              << " ok answers inside their certified interval (0 "
                 "violations)\n";
  }

  const TileCache::Stats cache = service.cache_stats();
  const MetricsSnapshot metrics = service.metrics_snapshot();
  std::cout << "completed " << issued << " requests in " << elapsed
            << " s (" << (elapsed > 0 ? static_cast<double>(issued) / elapsed
                                      : 0)
            << " qps)\n";
  if (duration_s == 0)
    std::cout << "ok " << ok << ", overloaded " << overloaded
              << ", deadline_exceeded " << expired << ", degraded "
              << degraded << ", unreachable " << unreachable << "\n";
  if (const auto it = metrics.find("serve.request.latency_us");
      it != metrics.end()) {
    const Histogram& hist = it->second.histogram;
    std::cout << "latency: p50 " << hist.percentile(0.50) << " us, p95 "
              << hist.percentile(0.95) << " us, max " << hist.max
              << " us\n";
  }
  // Per-tier latency percentiles come from the serve.tier.* histograms
  // (populated for every tiered request, soak or closed loop alike).
  const auto tier_p50 = [&metrics](const char* name) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.histogram.percentile(0.50);
  };
  const double approx_p50_us = tier_p50("serve.tier.approx.latency_us");
  const double exact_p50_us = tier_p50("serve.tier.exact.latency_us");
  if (tiered != nullptr) {
    const TieredDistanceService::Stats tier_stats = tiered->stats();
    std::cout << "tier: " << tier_stats.approx << " approx / "
              << tier_stats.exact << " exact (" << tier_stats.escalated
              << " escalated: " << tier_stats.escalated_gap << " gap, "
              << tier_stats.escalated_degraded << " degraded)\n";
    std::cout << "tier latency: approx p50 " << approx_p50_us
              << " us, exact p50 " << exact_p50_us << " us\n";
    if (!gaps.empty())
      std::cout << "stretch: " << gaps.size() << " certified answers, mean "
                << gap_mean << ", p50 " << gap_at(0.50) << ", p99 "
                << gap_at(0.99) << ", max " << sorted_gaps.back() << "\n";
  }
  const std::int64_t lookups = cache.hits + cache.misses;
  std::cout << "cache: " << cache.hits << " hits / " << lookups
            << " lookups ("
            << (lookups > 0 ? 100.0 * static_cast<double>(cache.hits) /
                                  static_cast<double>(lookups)
                            : 0)
            << "% hit rate), " << cache.evictions << " evictions, "
            << cache.bytes << " bytes resident\n";
  std::cout << "window (" << options.window_seconds << "s): "
            << latency_window.count << " requests at "
            << latency_window.rate_per_second << "/s, p50 "
            << latency_window.p50 << " us, p95 " << latency_window.p95
            << " us, p99 " << latency_window.p99 << " us, "
            << error_window.count << " errors\n";

  const SloTracker::Snapshot slo = service.slo_snapshot();
  std::cout << "slo availability: " << 100.0 * slo.availability.compliance
            << "% of " << slo.availability.total << " (target "
            << 100.0 * slo.availability.target << "%), burn rate "
            << slo.availability.burn_rate << ", budget remaining "
            << 100.0 * slo.availability.budget_remaining << "%\n";
  if (slo.latency.enabled)
    std::cout << "slo latency (<= " << options.slo.latency_ms << " ms): "
              << 100.0 * slo.latency.compliance << "% of "
              << slo.latency.total << " (target "
              << 100.0 * slo.latency.target << "%), burn rate "
              << slo.latency.burn_rate << ", budget remaining "
              << 100.0 * slo.latency.budget_remaining << "%\n";

  const RequestTraceLog::Stats traces = service.trace_log().stats();
  if (service.trace_log().enabled())
    std::cout << "reqtrace: " << traces.started << " traced, "
              << traces.slow << " slow, " << traces.sampled_kept
              << " sampled kept, " << traces.dropped << " dropped\n";
  if (!reqtrace_path.empty()) {
    std::ofstream out(reqtrace_path);
    CAPSP_CHECK_MSG(out, "cannot write --reqtrace file " << reqtrace_path);
    service.trace_log().write_chrome_json(out);
    std::cout << "wrote request traces to " << reqtrace_path << "\n";
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    CAPSP_CHECK_MSG(out, "cannot write --report-json file " << report_path);
    service.write_summary_json(out);
    std::cout << "wrote serve summary to " << report_path << "\n";
  }

  // Only the fully deterministic closed-loop counts become a gated BENCH
  // record; hit/miss splits and timings depend on thread interleaving and
  // stay out of the regression gate (qps_wall/elapsed_seconds are
  // time-like names, which bench_diff skips unless asked to
  // --compare-time — how CI bounds the cost of tracing).
  if (!open_loop && duration_s == 0 && tiered != nullptr) {
    // Tiered closed-loop record (BENCH_serve_approx_*): the tier split,
    // escalation count, and stretch distribution are deterministic (the
    // sketch fully determines them per query), so bench_diff gates them
    // with the tier_*/stretch_* classes; the per-tier latencies carry
    // time-like *_ms names so the default gate skips them but CI can
    // still assert the approx-vs-exact speedup ratio.
    const std::string bench_name = bench_name_or(
        (plan.empty() ? "serve_approx_" : "serve_faulted_") + mix + "_" +
        kind);
    bench::BenchJson::get(bench_name).add(
        {{"mix", mix},
         {"queries", kind},
         {"n", static_cast<std::int64_t>(graph.num_vertices())},
         {"tile", reader->header().tile_dim},
         {"cache_bytes", options.cache_bytes},
         {"threads", static_cast<std::int64_t>(options.threads)},
         {"clients", static_cast<std::int64_t>(clients)},
         {"requests", static_cast<std::int64_t>(outcomes.size())},
         {"tier_policy", std::string(to_string(tier_mode))},
         {"landmarks", tiered->sketch() == nullptr
                           ? std::int64_t{0}
                           : tiered->sketch()->num_landmarks()},
         {"stretch_budget", stretch_budget},
         {"ok", ok},
         {"errors", overloaded + expired + degraded},
         {"unreachable", unreachable},
         {"tier_approx", tier_approx},
         {"tier_exact", tier_exact},
         {"tier_escalated", tier_escalated},
         {"stretch_observed", static_cast<std::int64_t>(gaps.size())},
         {"stretch_mean", gap_mean},
         {"stretch_p50", gap_at(0.50)},
         {"stretch_p99", gap_at(0.99)},
         {"stretch_max", sorted_gaps.empty() ? 0.0 : sorted_gaps.back()},
         {"distance_sum", distance_sum},
         {"approx_p50_ms", approx_p50_us / 1000.0},
         {"exact_p50_ms", exact_p50_us / 1000.0},
         {"elapsed_seconds", elapsed},
         {"qps_wall", elapsed > 0 ? static_cast<double>(issued) / elapsed
                                  : 0.0}});
  } else if (!open_loop && duration_s == 0) {
    // A faulted run's counts are interleaving-dependent; keep it out of
    // the gated serve_<mix>_<kind> record unless the caller names one.
    const std::string bench_name = bench_name_or(
        (plan.empty() ? "serve_" : "serve_faulted_") + mix + "_" + kind);
    bench::BenchJson::get(bench_name).add(
        {{"mix", mix},
         {"queries", kind},
         {"n", static_cast<std::int64_t>(graph.num_vertices())},
         {"tile", reader->header().tile_dim},
         {"cache_bytes", options.cache_bytes},
         {"threads", static_cast<std::int64_t>(options.threads)},
         {"clients", static_cast<std::int64_t>(clients)},
         {"requests", static_cast<std::int64_t>(outcomes.size())},
         {"ok", ok},
         {"errors", overloaded + expired + degraded},
         {"unreachable", unreachable},
         {"tile_lookups", lookups},
         {"distance_sum", distance_sum},
         {"path_hops", path_hops},
         {"elapsed_seconds", elapsed},
         {"qps_wall", elapsed > 0 ? static_cast<double>(issued) / elapsed
                                  : 0.0}});
  } else if (duration_s > 0) {
    // Soak record: config fields are deterministic; every count that
    // depends on wall time carries a time-like name so the default gate
    // skips it.
    const std::string bench_name = bench_name_or(
        (tiered != nullptr ? "serve_soak_approx_" : "serve_soak_") + mix +
        "_" + kind);
    std::vector<bench::BenchJson::Field> record{
        {"mix", mix},
        {"queries", kind},
        {"n", static_cast<std::int64_t>(graph.num_vertices())},
        {"tile", reader->header().tile_dim},
        {"cache_bytes", options.cache_bytes},
        {"threads", static_cast<std::int64_t>(options.threads)},
        {"clients", static_cast<std::int64_t>(clients)},
        {"interrupted", g_interrupted != 0},
        {"elapsed_seconds", elapsed},
        {"requests_wall", issued},
        {"qps_wall", elapsed > 0 ? static_cast<double>(issued) / elapsed
                                 : 0.0}};
    if (tiered != nullptr) {
      // Soak counts are wall-clock-bound; the *_wall names keep them out
      // of the default gate, like requests_wall above.
      const TieredDistanceService::Stats tier_stats = tiered->stats();
      record.push_back({"tier_policy", std::string(to_string(tier_mode))});
      record.push_back({"stretch_budget", stretch_budget});
      record.push_back({"tier_approx_wall", tier_stats.approx});
      record.push_back({"tier_exact_wall", tier_stats.exact});
      record.push_back({"tier_escalated_wall", tier_stats.escalated});
    }
    bench::BenchJson::get(bench_name).add(record);
  }
  return 0;
}

/// Whole-run profiling artifacts + stdout digest, mirroring apsp_tool's
/// (the serving hot scopes are serve.execute.*, serve.tile_fill,
/// serve.cache.*, serve.snapshot_read).
void emit_profile_outputs(const std::string& folded_path,
                          const std::string& json_path,
                          const ProfReport& report) {
  if (!folded_path.empty()) {
    std::ofstream out(folded_path);
    CAPSP_CHECK_MSG(out, "cannot write --profile-folded file " << folded_path);
    report.write_folded(out);
    std::cout << "wrote folded stacks (" << report.folded.size()
              << " unique) to " << folded_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    CAPSP_CHECK_MSG(out, "cannot write --profile-json file " << json_path);
    write_prof_report_json(out, report);
    std::cout << "wrote profile report to " << json_path << "\n";
  }
  std::cout << "profile: " << report.samples << " samples @ " << report.hz
            << " Hz over " << report.duration_seconds << " s"
            << (report.perf.any_available
                    ? ""
                    : (report.perf.attempted ? " (perf counters unavailable)"
                                             : ""))
            << "\n";
  std::vector<std::pair<std::string, std::int64_t>> top(
      report.total_samples.begin(), report.total_samples.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  for (std::size_t i = 0; i < std::min<std::size_t>(top.size(), 8); ++i) {
    const auto self = report.self_samples.find(top[i].first);
    std::cout << "  " << top[i].first << ": " << top[i].second << " total, "
              << (self == report.self_samples.end() ? 0 : self->second)
              << " self\n";
  }
  for (const auto& [name, k] : report.kernels) {
    if (k.bytes == 0 && k.ops == 0) continue;
    std::cout << "  " << name << ": " << k.calls << " calls, "
              << k.bytes_per_second() << " bytes/s";
    if (report.peak.stream_bytes_per_second > 0 && k.bytes > 0)
      std::cout << " ("
                << 100.0 * k.bytes_per_second() /
                       report.peak.stream_bytes_per_second
                << "% of stream peak)";
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.get_bool("help", false)) {
      print_help();
      return 0;
    }
    if (cli.get_bool("version", false)) {
      std::cout << version_string("serve_tool");
      return 0;
    }
    const std::string mode = cli.get_string("mode", "serve");
    log_configure_tool(cli.get_string("log-level", ""),
                       cli.get_bool("log-json", false), "warn");
    const std::string flightrec = cli.get_string("flightrec", "");
    if (!flightrec.empty()) flightrec::set_dump_path(flightrec);
    flightrec::install_crash_handlers();
    flightrec::install_term_drain_handler();
    Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
    // Start before the service spawns its workers so perf counters (when
    // the host grants them) inherit into every worker thread.
    std::string profile_folded, profile_json;
    if (cli.get_bool("profile", false)) {
      ProfOptions prof_options;
      prof_options.hz = cli.get_double("profile-hz", 497.0);
      profile_folded = cli.get_string("profile-folded", "");
      profile_json = cli.get_string("profile-json", "");
      CAPSP_CHECK_MSG(Profiler::global().start(prof_options),
                      "profiler already running");
    }
    // Each mode reads the rest of its flags, then calls Cli::check_flags
    // before it starts work.
    int status = 2;
    if (mode == "sketch") {
      status = mode_sketch(cli, rng);
    } else if (mode == "serve") {
      status = mode_serve(cli, rng);
    } else {
      CAPSP_LOG(kError, "serve_tool.usage", {"mode", mode},
                {"expected", "serve|sketch"});
    }
    if (Profiler::global().running())
      emit_profile_outputs(profile_folded, profile_json,
                           Profiler::global().stop());
    return status;
  } catch (const capsp::UsageError& e) {
    CAPSP_LOG(kError, "serve_tool.usage", {"error", e.what()});
    return 2;
  } catch (const capsp::check_error& e) {
    CAPSP_LOG(kError, "serve_tool.fatal", {"what", e.what()});
    return 1;
  }
}
