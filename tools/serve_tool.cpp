// serve_tool — landmark sketches and load generation for the serving
// layer (docs/serving.md, docs/telemetry.md, docs/robustness.md).
// Snapshots come from apsp_tool --save-distances.  `serve_tool --mode <m>
// --help` lists a mode's flags, each declared once in its mode's table
// (kServeFlags, kSketchFlags; the flags both tools share are in
// front_end.cpp).
//
// Closed-loop runs mirror their (deterministic) outcome into the
// BenchJson registry: set CAPSP_BENCH_JSON_DIR and the run writes
// BENCH_serve_<mix>_<queries>.json for the bench_diff regression gate.  A
// soak's record (serve_soak_*) carries only config fields plus
// wall-clock-named fields the gate skips.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "approx/sketch.hpp"
#include "approx/sketch_io.hpp"
#include "bench_common.hpp"
#include "front_end.hpp"
#include "partition/nested_dissection.hpp"
#include "serve/reqtrace.hpp"
#include "serve/resilience.hpp"
#include "serve/servefault.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/tiered.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace {

using namespace capsp;

/// Set by SIGINT/SIGTERM so a soak drains its clients and still emits
/// the summary/BENCH record instead of dying mid-flight.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_interrupt(int) { g_interrupted = 1; }

/// While a soak or a chaos run drives its clients, SIGINT/SIGTERM drain
/// them (`on`); afterwards they kill the process again.
void drain_on_signal(bool on) {
  std::signal(SIGINT, on ? handle_interrupt : SIG_DFL);
  std::signal(SIGTERM, on ? handle_interrupt : SIG_DFL);
}

/// After a drain: says so, and writes the flight recorder, since the
/// drain preempted its own SIGTERM handler.
void report_drain(const char* run) {
  if (g_interrupted == 0) return;
  std::cout << run << "interrupted; drained clients, emitting summary\n";
  flightrec::dump_if_configured("sigterm_drain");
}

/// --mode sketch: the offline half of the tiered serving story.  Selects
/// landmarks (from the ND separator hierarchy by default — the vertices
/// the paper's algorithm already proves shortest paths cross — or by the
/// degree/coverage heuristic), computes each landmark's distance row with
/// the sequential solver, and writes the checksummed CAPSPAX2 file that
/// --mode serve --sketch loads.
int mode_sketch(const Cli& cli, Rng& rng) {
  const std::string out = cli.get<std::string>("out");
  if (out.empty()) throw UsageError("--mode sketch requires --out <path>");
  const Graph graph = build_graph(cli, rng);
  SketchOptions options;
  options.max_landmarks = cli.get<std::int64_t>("landmarks");
  options.top_levels = cli.get<int>("top-levels");
  const bool heuristic = cli.get<bool>("heuristic");
  const int height = cli.get<int>("height");
  cli.check_unused();
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
                                 std::size_t count, double zipf_theta,
                                 std::size_t ball_size, Rng& rng) {
  const Vertex n = graph.num_vertices();
  CAPSP_CHECK_MSG(n > 0, "cannot generate a workload on an empty graph");
  std::vector<Query> queries;
  queries.reserve(count);
  if (mix == "uniform") {
    for (std::size_t i = 0; i < count; ++i)
      queries.push_back(
          {static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n))),
           static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)))});
  } else if (mix == "zipf") {
    ZipfSampler zipf(n, zipf_theta, rng);
    for (std::size_t i = 0; i < count; ++i)
      queries.push_back({zipf.draw(rng), zipf.draw(rng)});
  } else {
    // bfs, the locality mix: bursts of queries inside one BFS ball, like
    // map clients panning a region, with the ball recentered between
    // bursts.
    constexpr std::size_t kQueriesPerBall = 32;
    while (queries.size() < count) {
      const auto center =
          static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
      const std::vector<Vertex> ball = bfs_ball(graph, center, ball_size);
      for (std::size_t i = 0; i < kQueriesPerBall && queries.size() < count;
           ++i)
        queries.push_back({ball[rng.uniform(ball.size())],
                           ball[rng.uniform(ball.size())]});
    }
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
  if (kind == "path") {
    const PathReply reply =
        service.shortest_path(query.u, query.v, deadline_seconds);
    return {reply.error, reply.distance,
            reply.path.empty()
                ? 0
                : static_cast<std::int64_t>(reply.path.size()) - 1};
  }
  if (kind == "distance" && tiered == nullptr) {
    const DistanceReply reply =
        service.distance(query.u, query.v, deadline_seconds);
    return {reply.error, reply.distance};
  }
  if (kind == "distance") {
    const TieredDistanceReply reply =
        tiered->distance(query.u, query.v, deadline_seconds);
    return {reply.error,     reply.estimate,  0,
            reply.tier,      reply.escalated, reply.lower_bound,
            reply.upper_bound};
  }
  // knear: the sum of the k distances, and how many were found.
  const auto knear = [](ServeError error,
                        const std::vector<NearVertex>& nearest) {
    Outcome outcome{error, 0, static_cast<std::int64_t>(nearest.size())};
    for (const NearVertex& near : nearest) outcome.distance += near.distance;
    return outcome;
  };
  if (tiered == nullptr) {
    const KNearestReply reply = service.k_nearest(query.u, k, deadline_seconds);
    return knear(reply.error, reply.nearest);
  }
  const TieredKNearestReply reply =
      tiered->k_nearest(query.u, k, deadline_seconds);
  Outcome outcome = knear(reply.error, reply.nearest);
  outcome.tier = reply.tier;
  outcome.escalated = reply.escalated;
  return outcome;
}

/// How a run's clients issue its query list.
struct Workload {
  std::vector<Query> queries;
  std::string mix;
  std::string kind;  ///< distance|path|knear
  int k = 8;
  int clients = 8;
  double deadline_seconds = -1;
  double duration_s = 0;  ///< > 0: a soak that replays the list this long
  bool open_loop = false;
  double rate = 0;  ///< open-loop arrivals per second
};

/// A run's replies by outcome.  Checked against the exact matrix, an ok
/// approx-tier answer's certified interval must contain the truth and any
/// other ok answer must equal it bit for bit; the first miss is kept.
struct Tally {
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t overloaded = 0;
  std::int64_t expired = 0;
  std::int64_t degraded = 0;
  std::int64_t mismatches = 0;
  Query first_bad{};
  Outcome bad{};
  Dist want = 0;

  void add(const Query& query, const Outcome& outcome,
           const DistBlock* exact) {
    ++issued;
    switch (outcome.error) {
      case ServeError::kOk: ++ok; break;
      case ServeError::kOverloaded: ++overloaded; break;
      case ServeError::kDeadlineExceeded: ++expired; break;
      case ServeError::kDegraded: ++degraded; break;
      case ServeError::kShutdown: break;
    }
    // Only ok answers carry the exactness contract: a degraded or shed
    // reply is never compared (that is the point of degradation).
    if (exact == nullptr || outcome.error != ServeError::kOk) return;
    const Dist truth = exact->at(query.u, query.v);
    // Rounding slack for real weights; truth == inf propagates cleanly
    // (inf <= inf when the sketch proved disconnection).
    const Dist eps = is_inf(truth) ? 0 : 1e-9 * std::max(1.0, std::abs(truth));
    const bool right =
        outcome.tier == Tier::kApprox
            ? outcome.lower <= truth + eps && truth <= outcome.upper + eps
            : outcome.distance == truth;
    if (!right && mismatches++ == 0) {
      first_bad = query;
      bad = outcome;
      want = truth;
    }
  }

  void merge(const Tally& other) {
    issued += other.issued;
    ok += other.ok;
    overloaded += other.overloaded;
    expired += other.expired;
    degraded += other.degraded;
    if (mismatches == 0 && other.mismatches > 0) {
      first_bad = other.first_bad;
      bad = other.bad;
      want = other.want;
    }
    mismatches += other.mismatches;
  }
};

/// What one run of the client driver yields.
struct Run {
  std::vector<Outcome> outcomes;  ///< one slot per query, except in a soak
  Tally tally;
  double elapsed = 0;
};

/// The client driver of every run, chaos passes included.  Closed loop:
/// each client thread issues its stride of the list back-to-back into one
/// slot per query, so aggregation can run in index order.  Soak: the
/// clients replay the list at random until the wall-clock budget is spent.
/// Open loop: arrivals on a fixed schedule regardless of completions, so
/// an undersized service visibly sheds load.  Clients stop early once
/// SIGINT/SIGTERM sets g_interrupted.  A non-null `exact` checks every ok
/// answer against it.
Run drive(DistanceService& service, TieredDistanceService* tiered,
          const Workload& w, const DistBlock* exact) {
  Run run;
  const auto start = std::chrono::steady_clock::now();
  const bool soak = !w.open_loop && w.duration_s > 0;
  if (!soak) run.outcomes.resize(w.queries.size());
  if (w.open_loop) {
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / w.rate));
    std::vector<std::future<DistanceReply>> futures;
    futures.reserve(w.queries.size());
    auto next = start;
    for (const Query& query : w.queries) {
      std::this_thread::sleep_until(next);
      next += interval;
      futures.push_back(
          service.distance_async(query.u, query.v, w.deadline_seconds));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const DistanceReply reply = futures[i].get();
      run.outcomes[i] = {reply.error, reply.distance, 0};
      run.tally.add(w.queries[i], run.outcomes[i], exact);
    }
  } else {
    const auto stop_at =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(w.duration_s));
    std::vector<Tally> tallies(static_cast<std::size_t>(w.clients));
    std::vector<std::thread> pool;
    pool.reserve(tallies.size());
    for (int c = 0; c < w.clients; ++c) {
      pool.emplace_back([&, c] {
        Tally tally;  // the thread's own, merged after the join
        Rng pick(static_cast<std::uint64_t>(c) * 7919 + 13);
        while (soak && std::chrono::steady_clock::now() < stop_at &&
               g_interrupted == 0) {
          const Query& query = w.queries[pick.uniform(w.queries.size())];
          tally.add(query,
                    issue(service, tiered, query, w.kind, w.k,
                          w.deadline_seconds),
                    exact);
        }
        for (std::size_t i = static_cast<std::size_t>(c);
             !soak && i < w.queries.size() && g_interrupted == 0;
             i += static_cast<std::size_t>(w.clients)) {
          run.outcomes[i] = issue(service, tiered, w.queries[i], w.kind, w.k,
                                  w.deadline_seconds);
          tally.add(w.queries[i], run.outcomes[i], exact);
        }
        tallies[static_cast<std::size_t>(c)] = tally;
      });
    }
    for (std::thread& t : pool) t.join();
    for (const Tally& tally : tallies) run.tally.merge(tally);
  }
  run.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

// ---------------------------------------------------------------------------
// Chaos harness (--chaos / --fault-plan; docs/robustness.md).

/// Default --chaos plan: a hostile but survivable disk.  Every read-fault
/// class is represented.  bad_tile=0:40 is sized against the service's
/// retry and quarantine constants: with at most `clients` concurrent
/// fetches each burning kRetryMaxAttempts (4) attempts, the first
/// QuarantineRegistry::kThreshold (3) fetches of tile 0 to complete all land
/// inside the 40-attempt failure budget, so the tile enters quarantine
/// regardless of interleaving; background probes then burn the rest of
/// the budget (one attempt per 10 ms chaos cooldown) and the tile heals —
/// the full enter→probe→exit lifecycle in a bounded fraction of a second.
/// Worker 1 wedges on its 5th job long enough for the 20 ms chaos
/// watchdog to abandon and replace it.
constexpr const char* kDefaultChaosPlan =
    "seed=7,read_error=0.02,eintr=0.03,short=0.03,flip=0.02,"
    "delay=0.04,delay_ms=1,bad_tile=0:40,stuck=1@5:0.08";

/// Resilience settings (docs/robustness.md).  A plain run re-probes a
/// quarantined tile after the service's 50 ms and has no watchdog.  Under
/// --chaos: a 10 ms quarantine cooldown, and a watchdog that replaces a
/// worker wedged for 20 ms.
constexpr double kChaosCooldownMs = 10;
constexpr double kChaosStuckWorkerMs = 20;

/// --report-json: the service's summary, once it has stopped.
void write_summary(const DistanceService& service, const std::string& path) {
  write_output(path, "report-json", "serve summary", [&](std::ostream& out) {
    service.write_summary_json(out);
  });
}

/// Everything one chaos pass yields.  Every ok answer is checked against
/// the oracle matrix, so a pass is self-verifying.
struct ChaosPass {
  Tally tally;
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
/// driven over the workload by the shared client driver.
ChaosPass run_chaos_pass(const std::shared_ptr<SnapshotReader>& reader,
                         const Graph& graph, const ServeOptions& base,
                         const ServeFaultPlan& plan, const Workload& workload,
                         const DistBlock& oracle,
                         const std::string& report_path) {
  ServeOptions options = base;
  if (!plan.empty())
    options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
  DistanceService service(reader, graph, options);

  ChaosPass pass;
  const auto start = std::chrono::steady_clock::now();
  pass.tally = drive(service, nullptr, workload, &oracle).tally;
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
  pass.final_health = service.health();
  const MetricsSnapshot metrics = service.metrics_snapshot();
  pass.retry_attempts = counter_value(metrics, "serve.retry.attempts");
  pass.retry_success = counter_value(metrics, "serve.retry.success");
  pass.retry_exhausted = counter_value(metrics, "serve.retry.exhausted");
  pass.quarantine = service.quarantine_stats();
  pass.workers = service.worker_stats();
  service.stop();
  write_summary(service, report_path);
  if (options.fault_injector != nullptr)
    pass.injected = options.fault_injector->counts();
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
              const ServeFaultPlan& plan, const Workload& workload) {
  // The fault-free oracle, reassembled before any injector can touch the
  // reader: under chaos, "correct" means bit-exact against this matrix.
  const DistBlock oracle = read_full_matrix(*reader);

  // SIGINT/SIGTERM drain the clients and still print the summary — the
  // same operator contract as a plain soak.
  drain_on_signal(true);

  std::cout << "chaos: plan '" << plan.to_string() << "'\n";
  // Clean pass first: the fault-free half of the BENCH_serve_chaos pair,
  // and proof the harness itself is green before faults muddy the water.
  // A soak spends its wall-clock budget on the *faulted* pass; the clean
  // pass only needs to be long enough to prove itself.
  Workload clean_workload = workload;
  clean_workload.duration_s = std::min(workload.duration_s, 0.5);
  const ChaosPass clean = run_chaos_pass(reader, graph, base, ServeFaultPlan{},
                                         clean_workload, oracle, "");
  CAPSP_CHECK_MSG(clean.tally.mismatches == 0,
                  "fault-free pass diverged from the oracle — the snapshot "
                  "or harness is broken, not the fault tolerance");
  std::cout << "chaos: clean pass " << clean.tally.issued << " requests, "
            << clean.tally.ok << " ok, all bit-exact (" << clean.elapsed
            << " s)\n";

  const ChaosPass chaos = run_chaos_pass(reader, graph, base, plan, workload,
                                         oracle, report_path);
  const Tally& faulted = chaos.tally;
  std::cout << "chaos: faulted pass " << faulted.issued << " requests in "
            << chaos.elapsed << " s: " << faulted.ok << " ok, "
            << faulted.degraded << " degraded, "
            << faulted.overloaded + faulted.expired << " overloaded/expired\n";
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
  report_drain("chaos: ");
  drain_on_signal(false);

  // BENCH pair (closed loop only — a soak's counts are wall-clock-bound).
  // Which attempt each thread draws depends on interleaving, so every
  // faulted-pass count is chaos_-prefixed and the CI gate adds
  // --metric-class 'chaos_*=skip'; `mismatches` stays unprefixed on
  // purpose — it is 0 by contract, and a baseline diff should scream if
  // it ever is not.
  if (workload.duration_s == 0) {
    using Field = bench::BenchJson::Field;
    const auto record = [&](const char* phase,
                            std::initializer_list<Field> fields) {
      std::vector<Field> all{
          {"phase", phase},
          {"mix", workload.mix},
          {"n", static_cast<std::int64_t>(graph.num_vertices())},
          {"tile", reader->header().tile_dim},
          {"cache_bytes", base.cache_bytes},
          {"threads", static_cast<std::int64_t>(base.threads)},
          {"clients", static_cast<std::int64_t>(workload.clients)},
          {"requests", static_cast<std::int64_t>(workload.queries.size())}};
      all.insert(all.end(), fields);
      bench::BenchJson::get("serve_chaos").add(all);
    };
    const auto qps = [](const ChaosPass& pass) {
      return pass.elapsed > 0
                 ? static_cast<double>(pass.tally.issued) / pass.elapsed
                 : 0.0;
    };
    record("clean", {{"ok", clean.tally.ok},
                     {"mismatches", clean.tally.mismatches},
                     {"elapsed_seconds", clean.elapsed},
                     {"qps_wall", qps(clean)}});
    record("chaos",
           {{"plan", plan.to_string()},
            {"mismatches", faulted.mismatches},
            {"chaos_ok", faulted.ok},
            {"chaos_degraded", faulted.degraded},
            {"chaos_retry_attempts", chaos.retry_attempts},
            {"chaos_retry_success", chaos.retry_success},
            {"chaos_retry_exhausted", chaos.retry_exhausted},
            {"chaos_quarantine_enters", chaos.quarantine.enters},
            {"chaos_quarantine_exits", chaos.quarantine.exits},
            {"chaos_injected_reads",
             in.eio + in.eintr + in.short_reads + in.flips + in.delays},
            {"chaos_workers_replaced", chaos.workers.replaced},
            {"elapsed_seconds", chaos.elapsed},
            {"qps_wall", qps(chaos)}});
  }

  if (faulted.mismatches > 0) {
    std::cout << "chaos: " << faulted.mismatches
              << " WRONG ok answers; first: (" << faulted.first_bad.u << ","
              << faulted.first_bad.v << ") got " << faulted.bad.distance
              << " want " << faulted.want << "\n";
    std::cout << "chaos: shrinking plan to a minimal reproducer...\n";
    const ServeFaultPlan minimal =
        shrink_chaos_plan(plan, [&](const ServeFaultPlan& candidate) {
          return run_chaos_pass(reader, graph, base, candidate, workload,
                                oracle, "")
                     .tally.mismatches > 0;
        });
    std::cout << "chaos: minimal failing plan '" << minimal.to_string()
              << "'\n";
    return 1;
  }
  std::cout << "chaos: all " << faulted.ok
            << " ok answers bit-exact vs the fault-free oracle\n";
  return 0;
}

int mode_serve(const Cli& cli, Rng& rng) {
  const std::string snapshot_path = cli.get<std::string>("snapshot");
  if (snapshot_path.empty())
    throw UsageError("--mode serve requires --snapshot <path>");
  const Graph graph = build_graph(cli, rng);
  auto reader = std::make_shared<SnapshotReader>(snapshot_path);
  ServeOptions options;
  options.threads = cli.get<int>("threads");
  options.cache_bytes = cli.get<std::int64_t>("cache-bytes");
  options.max_queue = cli.get<std::size_t>("max-queue");
  options.trace_sample_every = cli.get<std::int64_t>("trace-sample");
  options.slow_trace_ms = cli.get<double>("slow-ms");
  options.window_seconds = cli.get<double>("window-s");
  options.slo.latency_ms = cli.get<double>("slo-latency-ms");
  options.slo.latency_target = cli.get<double>("slo-target");
  options.slo.availability_target = cli.get<double>("slo-availability");
  options.slo.window_seconds = options.window_seconds;

  // The fault plan (docs/robustness.md).  A bare --fault-plan runs the
  // normal driver with injection live (every mode, every query kind);
  // --chaos runs the self-verifying harness.
  const bool chaos = cli.get<bool>("chaos");
  const std::string plan_spec =
      cli.get<std::string>("fault-plan", chaos ? kDefaultChaosPlan : "");
  const ServeFaultPlan plan = plan_spec.empty()
                                  ? ServeFaultPlan{}
                                  : ServeFaultPlan::parse(plan_spec);
  // Chaos runs record per-request kTrace events (job start/done, fault
  // injections, retries) into the flight recorder, so a dump from a
  // dying soak names the in-flight request ids.  Sink level is
  // untouched: the rings are cheap, the console stays quiet.
  if (!plan_spec.empty())
    Logger::global().set_ring_level(LogLevel::kTrace);
  if (chaos) {
    options.quarantine_cooldown_ms = kChaosCooldownMs;
    options.stuck_worker_ms = kChaosStuckWorkerMs;
  }

  Workload w;
  w.mix = cli.get<std::string>("mix");
  w.kind = cli.get<std::string>("queries");
  const auto requests = cli.get<std::size_t>("requests");
  w.clients = std::max(1, cli.get<int>("clients"));
  w.k = cli.get<int>("k");
  const double deadline_ms = cli.get<double>("deadline-ms");
  w.deadline_seconds = deadline_ms > 0 ? deadline_ms / 1000 : -1;
  w.duration_s = cli.get<double>("duration-s");
  w.open_loop = cli.get<bool>("open-loop");
  w.rate = cli.get<double>("rate");
  const bool closed_distance_run =
      w.kind == "distance" && !w.open_loop && w.duration_s <= 0;

  // Tiered-serving flags (docs/serving.md, "Tiered serving").  Every
  // contradictory combination is a usage error up front — the run has
  // not started, so nothing is lost by refusing.
  const std::string sketch_path = cli.get<std::string>("sketch");
  TierMode tier_mode = TierMode::kAuto;
  CAPSP_CHECK(parse_tier_mode(cli.get<std::string>("tier"), &tier_mode));
  if (sketch_path.empty()) {
    if (cli.has("tier"))
      throw UsageError("--tier needs --sketch <path> (the approximate tier "
                       "answers from a CAPSPAX2 sketch; --mode sketch "
                       "builds one)");
    if (cli.has("stretch-budget"))
      throw UsageError("--stretch-budget needs --sketch <path>");
    if (cli.get<bool>("verify-stretch"))
      throw UsageError("--verify-stretch needs --sketch <path>");
  }
  const double stretch_budget = cli.get<double>("stretch-budget");
  const bool verify_stretch = cli.get<bool>("verify-stretch");
  if (verify_stretch && !closed_distance_run)
    throw UsageError("--verify-stretch needs a closed-loop distance run "
                     "(drop --open-loop/--duration-s/--queries)");
  const bool verify = cli.get<bool>("verify");
  if (verify) {
    if (!closed_distance_run)
      throw UsageError("--verify needs a closed-loop distance run");
    if (!sketch_path.empty() && tier_mode != TierMode::kExact)
      throw UsageError("--verify is bit-exact; with --sketch use "
                       "--verify-stretch (or --tier exact)");
  }
  if (!sketch_path.empty()) {
    if (chaos)
      throw UsageError("--chaos is exact-only (its oracle comparison is "
                       "bit-exact); drop --sketch");
    if (w.open_loop)
      throw UsageError("--open-loop drives the exact tier's async API; "
                       "drop --sketch");
    if (w.kind == "path")
      throw UsageError("--sketch serves distance|knear queries (path "
                       "reconstruction is exact-only)");
  }
  if (chaos && (w.kind != "distance" || w.open_loop))
    throw UsageError("--chaos is a closed-loop distance harness (it owns "
                     "the oracle comparison); drop --open-loop/--queries");
  if (w.open_loop && w.rate <= 0)
    throw UsageError("--open-loop requires --rate > 0");
  if (w.duration_s > 0 && requests == 0)
    throw UsageError("--duration-s replays the workload: --requests must be "
                     "> 0");

  Rng workload_rng(
      static_cast<std::uint64_t>(cli.get<std::int64_t>("workload-seed")));
  w.queries = make_workload(graph, w.mix, requests,
                            cli.get<double>("zipf-theta"),
                            cli.get<std::size_t>("ball"), workload_rng);
  // The outputs, read with every other flag before the service starts.
  const auto telemetry_port = cli.get<int>("telemetry-port");
  const std::string reqtrace_path = cli.get<std::string>("reqtrace");
  const std::string report_path = cli.get<std::string>("report-json");
  const std::string bench_name_flag = cli.get<std::string>("bench-name");
  const auto bench_name_or = [&](const std::string& fallback) {
    return bench_name_flag.empty() ? fallback : bench_name_flag;
  };
  cli.check_unused();

  std::cout << "serving " << reader->header().rows << "x"
            << reader->header().cols << " snapshot ("
            << reader->header().num_tiles() << " tiles of "
            << reader->header().tile_dim
            << (reader->file_backed() ? ", file-backed" : ", in-memory")
            << ") with " << options.threads << " workers, cache budget "
            << options.cache_bytes << " bytes\n";
  std::cout << "workload: " << w.queries.size() << " " << w.mix << " "
            << w.kind << " queries, "
            << (w.open_loop
                    ? "open loop"
                    : w.duration_s > 0 ? "closed-loop soak" : "closed loop")
            << ", " << w.clients << " clients\n";

  if (chaos)
    return run_chaos(report_path, reader, graph, options, plan, w);
  // The matrix --verify and --verify-stretch check answers against, read
  // before the service can install an injector on the reader.
  std::optional<DistBlock> exact;
  if (verify || verify_stretch) exact = read_full_matrix(*reader);
  if (!plan.empty()) {
    options.fault_injector = std::make_shared<ServeFaultInjector>(plan);
    std::cout << "fault plan: " << plan.to_string() << "\n";
  }
  DistanceService service(reader, graph, options);

  // The tiered front-end wraps the service when a sketch is given; the
  // reader rejects a truncated or corrupted CAPSPAX2 file outright
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

  // A soak drains its clients on SIGINT/SIGTERM and still emits the
  // summary below.
  if (w.duration_s > 0) drain_on_signal(true);
  const Run run = drive(service, tiered.get(), w, exact ? &*exact : nullptr);
  if (w.duration_s > 0) drain_on_signal(false);
  report_drain("soak ");
  const Tally& tally = run.tally;
  const double elapsed = run.elapsed;
  // Capture the rolling windows before the drain quiesces them, then
  // stop: after stop() every in-flight trace is routed and the telemetry
  // endpoint has served its last scrape, so the reports below are final.
  const WindowStats latency_window = service.latency_window();
  const WindowStats error_window = service.error_window();
  service.stop();

  // Aggregate in index order (see Outcome).  The tier split and the
  // observed-stretch distribution are interleaving-independent too: the
  // sketch is immutable, so which tier answered and how wide its interval
  // was depend only on the query, never on timing.
  std::int64_t unreachable = 0, path_hops = 0;
  std::int64_t tier_approx = 0, tier_exact = 0, tier_escalated = 0;
  double distance_sum = 0, gap_sum = 0;
  std::vector<double> gaps;
  for (const Outcome& outcome : run.outcomes) {
    if (outcome.error != ServeError::kOk) continue;
    if (is_inf(outcome.distance)) {
      ++unreachable;
    } else {
      distance_sum += outcome.distance;
    }
    path_hops += outcome.hops;
    if (tiered == nullptr) continue;
    if (outcome.tier == Tier::kApprox) ++tier_approx; else ++tier_exact;
    if (outcome.escalated) ++tier_escalated;
    if (outcome.tier == Tier::kApprox && w.kind == "distance" &&
        !is_inf(outcome.upper) && outcome.lower > 0) {
      const double gap = (outcome.upper - outcome.lower) / outcome.lower;
      gaps.push_back(gap);
      gap_sum += gap;
    }
  }
  std::sort(gaps.begin(), gaps.end());
  const auto gap_at = [&gaps](double q) {
    if (gaps.empty()) return 0.0;
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(gaps.size() - 1));
    return gaps[rank];
  };
  const double gap_mean =
      gaps.empty() ? 0.0 : gap_sum / static_cast<double>(gaps.size());

  // The serving layer's acceptance bars, checked answer by answer by the
  // driver: a single miss means the service, the sketch math or the
  // escalation policy is wrong — fail loudly.
  const Outcome& bad = tally.bad;
  CAPSP_CHECK_MSG(
      tally.mismatches == 0,
      "answer for (" << tally.first_bad.u << "," << tally.first_bad.v
                     << ") diverged from the matrix: got " << bad.distance
                     << (bad.tier == Tier::kApprox
                             ? " in [" + std::to_string(bad.lower) + ", " +
                                   std::to_string(bad.upper) + "]"
                             : "")
                     << ", want " << tally.want);
  if (verify)
    std::cout << "verify: all " << tally.ok << " of " << w.queries.size()
              << " ok distances bit-exact vs the matrix\n";
  if (verify_stretch)
    std::cout << "verify-stretch: all " << tally.ok << " of "
              << w.queries.size()
              << " ok answers inside their certified interval (0 "
                 "violations)\n";

  const TileCache::Stats cache = service.cache_stats();
  const MetricsSnapshot metrics = service.metrics_snapshot();
  const std::int64_t issued = tally.issued;
  std::cout << "completed " << issued << " requests in " << elapsed
            << " s (" << (elapsed > 0 ? static_cast<double>(issued) / elapsed
                                      : 0)
            << " qps)\n";
  if (w.duration_s == 0)
    std::cout << "ok " << tally.ok << ", overloaded " << tally.overloaded
              << ", deadline_exceeded " << tally.expired << ", degraded "
              << tally.degraded << ", unreachable " << unreachable << "\n";
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
                << gap_at(0.99) << ", max " << gaps.back() << "\n";
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
  write_output(reqtrace_path, "reqtrace", "request traces",
               [&](std::ostream& out) {
                 service.trace_log().write_chrome_json(out);
               });
  write_summary(service, report_path);

  // Only the fully deterministic closed-loop counts become a gated BENCH
  // record; hit/miss splits and timings depend on thread interleaving and
  // stay out of the regression gate (qps_wall/elapsed_seconds are
  // time-like names, which bench_diff skips unless asked to
  // --compare-time — how CI bounds the cost of tracing).  A faulted run's
  // counts are interleaving-dependent too, so it gets its own
  // serve_faulted_* record unless the caller names one.
  const double qps_wall =
      elapsed > 0 ? static_cast<double>(issued) / elapsed : 0.0;
  std::vector<bench::BenchJson::Field> record{
      {"mix", w.mix},
      {"queries", w.kind},
      {"n", static_cast<std::int64_t>(graph.num_vertices())},
      {"tile", reader->header().tile_dim},
      {"cache_bytes", options.cache_bytes},
      {"threads", static_cast<std::int64_t>(options.threads)},
      {"clients", static_cast<std::int64_t>(w.clients)}};
  const std::string suffix = w.mix + "_" + w.kind;
  const auto requests_run = static_cast<std::int64_t>(run.outcomes.size());
  const std::int64_t errors = tally.overloaded + tally.expired + tally.degraded;
  std::string bench_name;
  if (w.duration_s > 0) {
    // Soak record: every count that depends on wall time carries a
    // time-like name (*_wall) so the default gate skips it.
    bench_name = (tiered != nullptr ? "serve_soak_approx_" : "serve_soak_") +
                 suffix;
    record.insert(record.end(), {{"interrupted", g_interrupted != 0},
                                 {"elapsed_seconds", elapsed},
                                 {"requests_wall", issued},
                                 {"qps_wall", qps_wall}});
    if (tiered != nullptr) {
      const TieredDistanceService::Stats tier_stats = tiered->stats();
      record.insert(record.end(),
                    {{"tier_policy", std::string(to_string(tier_mode))},
                     {"stretch_budget", stretch_budget},
                     {"tier_approx_wall", tier_stats.approx},
                     {"tier_exact_wall", tier_stats.exact},
                     {"tier_escalated_wall", tier_stats.escalated}});
    }
  } else if (!w.open_loop && tiered != nullptr) {
    // The tier split, escalation count and stretch distribution are
    // deterministic (the sketch fully determines them per query), so
    // bench_diff gates them with the tier_*/stretch_* classes; the
    // per-tier latencies carry time-like *_ms names so the default gate
    // skips them but CI can still assert the approx-vs-exact ratio.
    bench_name = (plan.empty() ? "serve_approx_" : "serve_faulted_") + suffix;
    record.insert(
        record.end(),
        {{"requests", requests_run},
         {"tier_policy", std::string(to_string(tier_mode))},
         {"landmarks", tiered->sketch() == nullptr
                           ? std::int64_t{0}
                           : tiered->sketch()->num_landmarks()},
         {"stretch_budget", stretch_budget},
         {"ok", tally.ok},
         {"errors", errors},
         {"unreachable", unreachable},
         {"tier_approx", tier_approx},
         {"tier_exact", tier_exact},
         {"tier_escalated", tier_escalated},
         {"stretch_observed", static_cast<std::int64_t>(gaps.size())},
         {"stretch_mean", gap_mean},
         {"stretch_p50", gap_at(0.50)},
         {"stretch_p99", gap_at(0.99)},
         {"stretch_max", gaps.empty() ? 0.0 : gaps.back()},
         {"distance_sum", distance_sum},
         {"approx_p50_ms", approx_p50_us / 1000.0},
         {"exact_p50_ms", exact_p50_us / 1000.0},
         {"elapsed_seconds", elapsed},
         {"qps_wall", qps_wall}});
  } else if (!w.open_loop) {
    bench_name = (plan.empty() ? "serve_" : "serve_faulted_") + suffix;
    record.insert(record.end(), {{"requests", requests_run},
                                 {"ok", tally.ok},
                                 {"errors", errors},
                                 {"unreachable", unreachable},
                                 {"tile_lookups", lookups},
                                 {"distance_sum", distance_sum},
                                 {"path_hops", path_hops},
                                 {"elapsed_seconds", elapsed},
                                 {"qps_wall", qps_wall}});
  }
  if (!bench_name.empty())
    bench::BenchJson::get(bench_name_or(bench_name)).add(record);
  return 0;
}

using enum Flag::Kind;
const std::vector<Flag> kSketchFlags = {
    {"out", kText, {"<path>"}, "", "output CAPSPAX2 sketch (required)"},
    {"landmarks", kInt, {"<k>"}, "64", "landmark budget"},
    {"height", kInt, {"<h>"}, "3", "ND height for landmark choice"},
    {"top-levels", kInt, {"<l>"}, "2", "separator levels, root first"},
    {"heuristic", kSwitch, {}, "", "by degree and coverage, not ND"},
};
const std::vector<Flag> kServeFlags = {
    {"snapshot", kText, {"<path>"}, "", "CAPSPDB3 snapshot (required)"},
    {"threads", kInt, {"<t>"}, "4", "service worker threads"},
    {"clients", kInt, {"<c>"}, "8", "client threads"},
    {"requests", kInt, {"<q>"}, "10000", "workload size"},
    {"duration-s", kReal, {"<sec>"}, "0", "soak: replay the workload so long"},
    {"mix", kChoice, {"uniform", "zipf", "bfs"}, "zipf", "query pairs"},
    {"zipf-theta", kReal, {"<t>"}, "0.99", "Zipf skew"},
    {"ball", kInt, {"<b>"}, "64", "BFS-locality ball size"},
    {"queries", kChoice, {"distance", "path", "knear"}, "distance",
     "request type"},
    {"k", kInt, {"<k>"}, "8", "neighbors for --queries knear"},
    {"cache-bytes", kInt, {"<b>"}, "16777216", "tile-cache budget"},
    {"deadline-ms", kReal, {"<ms>"}, "0", "per-request deadline, 0 = none"},
    {"max-queue", kInt, {"<q>"}, "4096", "admission bound"},
    {"open-loop", kSwitch, {}, "", "arrivals at --rate"},
    {"rate", kReal, {"<qps>"}, "20000", "open-loop arrival rate"},
    {"workload-seed", kInt, {"<int>"}, "1", "workload RNG seed"},
    {"verify", kSwitch, {}, "", "check each ok distance bit-exact"},
    {"report-json", kText, {"<path>"}, "", "service summary JSON"},
    {"bench-name", kText, {"<name>"}, "", "BENCH_<name>.json record name"},
    {"sketch", kText, {"<path>"}, "", "CAPSPAX2 sketch: the approx tier"},
    {"tier", kChoice, {"approx", "exact", "auto"}, "auto", "tier policy"},
    {"stretch-budget", kReal, {"<f>"}, "0.25", "auto: max (upper-lower)/lower"},
    {"verify-stretch", kSwitch, {}, "", "check each ok answer's interval"},
    {"telemetry-port", kInt, {"<p>"}, "-1", "live endpoint; 0 = any, -1 = off"},
    {"trace-sample", kInt, {"<N>"}, "0", "trace every Nth request, 0 = off"},
    {"slow-ms", kReal, {"<ms>"}, "0", "slow-request threshold, 0 = off"},
    {"reqtrace", kText, {"<path>"}, "", "kept request traces, Chrome JSON"},
    {"window-s", kReal, {"<sec>"}, "10", "rolling telemetry window"},
    {"slo-latency-ms", kReal, {"<ms>"}, "0", "latency SLO bound, 0 = off"},
    {"slo-target", kReal, {"<f>"}, "0.99", "latency SLO target"},
    {"slo-availability", kReal, {"<f>"}, "0.999", "availability SLO target"},
    {"fault-plan", kText, {"<spec>"}, "", "e.g. seed=7,flip=0.02; see --chaos"},
    {"chaos", kSwitch, {}, "", "clean, then faulted pass (built-in plan)"},
};

}  // namespace

int main(int argc, char** argv) {
  return run_tool(
      argc, argv,
      {"serve_tool",
       "serve_tool.usage",
       "serve_tool.fatal",
       {{"serve", "drive a DistanceService with a synthetic workload",
         mode_serve, kServeFlags},
        {"sketch", "build a CAPSPAX2 landmark sketch for the approx tier",
         mode_sketch, kSketchFlags}},
       {},
       "  0  success\n"
       "  1  error (bad input, failed invariant CHECK, failed --verify or\n"
       "     --verify-stretch, chaos harness caught a wrong ok answer)\n"
       "  2  usage error (unknown --mode or flag, a value that does not\n"
       "     parse, contradictory or incomplete flags: e.g. --tier without\n"
       "     --sketch, --mode serve without --snapshot)\n"});
}
