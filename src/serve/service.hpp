// DistanceService: the concurrent query engine of the serving layer
// (docs/serving.md).
//
// The paper's pipeline is "precompute communication-optimally once"; this
// is the "answer many queries cheaply" half.  A service owns a worker
// thread pool, a sharded LRU tile cache (serve/cache) over a snapshot
// (serve/snapshot), and the graph for next-hop path reconstruction
// (reusing core/path_oracle's `next_hop_via`).  Three query families:
//
//   distance(u, v)       one tile touch;
//   shortest_path(u, v)  next-hop walk, O(len · deg) distance lookups;
//   k_nearest(u, k)      scan of u's tile row, heap-selected.
//
// Requests carry deadlines and the queue a depth bound, so an overloaded
// service degrades gracefully — a structured ServeError instead of
// unbounded blocking, in the spirit of machine/watchdog's "fail with a
// report, never hang".  Every request lands in the `serve.*` metrics
// (util/metrics): latency histograms, outcome counters, queue-depth
// gauges and bytes read in the service's own registry, and the cache,
// quarantine, worker and slow-trace counts folded in from the component
// that keeps each (metrics_snapshot) — summarized as JSON by
// write_summary_json for scripts/trace_summary.py serve.
//
// Observability on top of that (docs/telemetry.md):
//   * request tracing — sampled span trees (serve/reqtrace) threaded
//     through the cache and the snapshot reader, plus an always-on
//     slow-request log;
//   * rolling windows — sliding-window latency/error aggregates
//     (util/metrics RollingHistogram) and an SLO tracker (serve/slo),
//     both in the summary JSON;
//   * start_telemetry() — a live HTTP endpoint (serve/telemetry) with
//     /metrics (Prometheus), /healthz, and /stats.json.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "serve/cache.hpp"
#include "serve/reqtrace.hpp"
#include "serve/resilience.hpp"
#include "serve/servefault.hpp"
#include "serve/slo.hpp"
#include "serve/snapshot.hpp"
#include "util/metrics.hpp"

namespace capsp {

class JsonWriter;
class TelemetryServer;

/// Structured request outcome.  kOk replies carry a value; the error
/// replies are the graceful-degradation contract: a caller always gets an
/// answer or a reason, never an indefinite block.
enum class ServeError {
  kOk = 0,
  kOverloaded,        ///< queue was at max_queue when the request arrived
  kDeadlineExceeded,  ///< deadline passed while queued or mid-computation
  kShutdown,          ///< submitted after stop()
  kDegraded,          ///< a tile the answer needs is quarantined /
                      ///< unreadable, or the service is shedding while
                      ///< unhealthy — never a silently wrong answer
};

const char* to_string(ServeError error);

struct ServeOptions {
  int threads = 4;
  /// Tile-cache budget; make it smaller than the matrix to bound resident
  /// memory (the whole point of the tiled snapshot format).
  std::int64_t cache_bytes = 16 << 20;
  /// Admission bound: requests beyond this queue depth are rejected with
  /// kOverloaded instead of queued without bound (0 admits nothing —
  /// every request is rejected, which makes overload handling testable).
  std::size_t max_queue = 4096;

  /// Request tracing (serve/reqtrace): trace every Nth request into the
  /// sampled ring (0 = sampling off).
  std::int64_t trace_sample_every = 0;
  /// Slow-request threshold in milliseconds (0 = slow log off).  Any
  /// request at or over it keeps its full span tree even when sampling
  /// would have dropped it.
  double slow_trace_ms = 0;
  std::size_t trace_keep = 128;  ///< sampled-trace ring capacity

  /// Rolling latency/error window (util/metrics RollingHistogram).
  double window_seconds = 10;

  /// Latency/availability objectives (serve/slo).
  SloOptions slo;

  // Fault tolerance (serve/resilience, docs/robustness.md).  With a
  // healthy disk the only cost is one quarantine-map lookup per cache
  // miss, and while health is kUnhealthy new work is rejected with
  // kDegraded instead of burning the whole error budget on requests that
  // will fail anyway.  A failed tile read is retried (kRetryMaxAttempts)
  // and a tile quarantined after QuarantineRegistry::kThreshold exhausted
  // fetches.

  /// Quiet period after a tile enters quarantine (or fails a probe)
  /// before the maintenance thread probes it again.
  double quarantine_cooldown_ms = 50;
  /// Watchdog: a worker busy on one job longer than this is declared
  /// stuck, abandoned, and replaced (0 = watchdog off).  Pair it with
  /// deadlines well below it — the watchdog is for wedged threads, not
  /// slow queries.
  double stuck_worker_ms = 0;
  /// Chaos hook (serve/servefault): wired into the snapshot reader at
  /// construction.  nullptr = no injection.
  std::shared_ptr<ServeFaultInjector> fault_injector;
};

struct DistanceReply {
  ServeError error = ServeError::kOk;
  Dist distance = kInf;  ///< kInf = unreachable (not an error)
};

struct PathReply {
  ServeError error = ServeError::kOk;
  Dist distance = kInf;
  std::vector<Vertex> path;  ///< empty when unreachable
};

struct NearVertex {
  Vertex vertex = -1;
  Dist distance = kInf;
  friend bool operator==(const NearVertex&, const NearVertex&) = default;
};

struct KNearestReply {
  ServeError error = ServeError::kOk;
  /// Up to k reachable vertices nearest to u (u excluded), sorted by
  /// (distance, vertex id).
  std::vector<NearVertex> nearest;
};

class DistanceService {
 public:
  /// `snapshot` must be the n×n matrix of `graph` (zero diagonal is the
  /// producer's invariant, checked lazily by path reconstruction).
  DistanceService(std::shared_ptr<SnapshotReader> snapshot, Graph graph,
                  ServeOptions options = {});
  ~DistanceService();
  DistanceService(const DistanceService&) = delete;
  DistanceService& operator=(const DistanceService&) = delete;

  Vertex num_vertices() const { return graph_.num_vertices(); }
  const Graph& graph() const { return graph_; }
  const ServeOptions& options() const { return options_; }

  /// Async API: the future resolves to a reply (possibly an error reply);
  /// it never throws for overload/deadline.  deadline_seconds <= 0 means
  /// no deadline.
  std::future<DistanceReply> distance_async(Vertex u, Vertex v,
                                            double deadline_seconds = 0);
  std::future<PathReply> shortest_path_async(Vertex u, Vertex v,
                                             double deadline_seconds = 0);
  std::future<KNearestReply> k_nearest_async(Vertex u, int k,
                                             double deadline_seconds = 0);

  /// Blocking conveniences over the async API.
  DistanceReply distance(Vertex u, Vertex v, double deadline_seconds = 0);
  PathReply shortest_path(Vertex u, Vertex v, double deadline_seconds = 0);
  KNearestReply k_nearest(Vertex u, int k, double deadline_seconds = 0);

  /// Submit every pair, then collect — batching amortizes queue wakeups
  /// and lets the pool overlap tile IO across the batch.
  std::vector<DistanceReply> distance_batch(
      std::span<const std::pair<Vertex, Vertex>> pairs,
      double deadline_seconds = 0);

  /// Stop admitting requests, drain the queue, join the workers (their
  /// slots stay, so worker_stats() still describes the pool).
  /// Idempotent; the destructor calls it.
  void stop();

  TileCache::Stats cache_stats() const { return cache_.stats(); }
  std::vector<TileCache::Stats> cache_shard_stats() const {
    return cache_.shard_stats();
  }
  /// Current health (docs/robustness.md): kOk, kDegraded (quarantined
  /// tiles or a wedged worker; answers still exact), kUnhealthy
  /// (shedding).  /healthz serves this as its body, 503 when unhealthy.
  HealthState health() const { return compute_health(); }
  QuarantineRegistry::Stats quarantine_stats() const {
    return quarantine_.stats();
  }
  struct WorkerStats {
    int active = 0;        ///< workers currently serving the queue
    int stuck = 0;         ///< abandoned workers still wedged on a job
    std::int64_t spawned = 0;
    std::int64_t replaced = 0;
  };
  WorkerStats worker_stats() const;
  /// The `serve.*` metrics: the service's own registry plus the counts
  /// the cache shards, the quarantine, the worker pool and the trace log
  /// keep themselves, folded in under their `serve.cache.*`,
  /// `serve.quarantine.*`, `serve.worker.*` and `serve.trace.slow` names
  /// (DESIGN.md decision 19).  /metrics, /stats.json and the summary
  /// read through here.  A folded counter appears once it is non-zero,
  /// the cache gauges once a tile has been cached.
  MetricsSnapshot metrics_snapshot() const;

  /// The request-trace log (sampled ring + slow log); export its kept
  /// traces with RequestTraceLog::write_chrome_json.
  const RequestTraceLog& trace_log() const { return trace_log_; }
  /// Mutable access for front-ends (serve/tiered) that start their own
  /// spans in the same log, so tier traces land in the same rings.
  RequestTraceLog& trace_log() { return trace_log_; }
  /// The service's own registry, for front-ends that add `serve.*`
  /// metrics of their own (serve/tiered) so one /metrics scrape and one
  /// summary document cover the whole stack.
  MetricsRegistry& metrics_registry() { return registry_; }
  /// Rolling-window views of the last `window_seconds` of traffic.
  WindowStats latency_window() const { return latency_window_.stats(); }
  WindowStats error_window() const { return error_window_.stats(); }
  SloTracker::Snapshot slo_snapshot() const { return slo_.snapshot(); }

  /// Start the embedded telemetry endpoint (serve/telemetry) on
  /// 127.0.0.1:`port` (0 = ephemeral); returns the bound port.  Serves
  /// /metrics (Prometheus text of the serve.* registry, `capsp_` prefix),
  /// /healthz, and /stats.json (the summary JSON below).  Stopped by
  /// stop().
  int start_telemetry(int port = 0);
  int telemetry_port() const;

  /// CostReport-style summary: a "serve" section (config, request/error
  /// totals, cache hit rate, latency percentiles) plus the full metrics
  /// registry.  write_summary_fields composes into an open JSON object;
  /// write_summary_json wraps a whole document around it.
  void write_summary_fields(JsonWriter& json) const;
  void write_summary_json(std::ostream& out) const;

  /// Extension hooks: while one is installed, write_summary_fields emits
  /// a "tier" key inside the "serve" object and calls the newest hook to
  /// write its value — how a TieredDistanceService folds its per-tier
  /// stats into the same summary document (and /stats.json) without the
  /// service knowing the tiered layer exists.  Each hook is keyed by its
  /// `owner`, and clearing removes only that owner's, so several front
  /// ends over one service can come and go in any order.
  void set_summary_extension(const void* owner,
                             std::function<void(JsonWriter&)> fn);
  void clear_summary_extension(const void* owner);

 private:
  using Clock = std::chrono::steady_clock;

  /// Static literals naming one query kind.
  struct QueryKind {
    const char* name;     ///< trace and log kind
    const char* counter;  ///< serve.request.<kind>
    const char* scope;    ///< serve.execute.<kind> profiler scope
  };
  static const QueryKind kDistanceQuery, kPathQuery, kKNearestQuery;

  struct Job {
    Clock::time_point enqueue;
    Clock::time_point deadline;  // time_point::max() = none
    const QueryKind* kind = nullptr;
    /// Span tree of this request, when it drew a trace (nullptr = not
    /// traced).  shared_ptr because Job lives inside copyable
    /// std::function plumbing; ownership is logically unique.
    std::shared_ptr<RequestTrace> trace;
    /// Runs on a worker; `expired` is the queued-too-long verdict.
    std::function<void(bool expired, RequestTrace* trace)> run;
  };

  /// One worker thread's identity and liveness state.  The thread only
  /// ever touches its own slot; the watchdog reads the atomics.
  struct WorkerSlot {
    int index = 0;  ///< spawn index (stable; what stuck=W@J:S targets)
    std::thread thread;
    /// Steady micros when the current job was dequeued; 0 = idle.
    std::atomic<std::int64_t> busy_since_us{0};
    /// Set by the watchdog: finish the current job, then retire.
    std::atomic<bool> abandoned{false};
    std::int64_t jobs = 0;  ///< dequeued-job counter (own thread only)
  };

  /// The one enqueue path of the three query kinds: the reply promise,
  /// the job, the trace start, the expiry check, the outcome record and
  /// the rejection reply.  `body(deadline, trace)` computes the reply on
  /// a worker.
  template <typename Reply, typename Body>
  std::future<Reply> enqueue_query(const QueryKind& kind, std::int64_t u,
                                   std::int64_t v, std::int64_t k,
                                   double deadline_seconds, Body body);
  /// Admission control + enqueue; returns the rejection verdict (kOk when
  /// queued).  A rejected job's outcome is recorded here.
  ServeError submit(Job job);
  void worker_loop(WorkerSlot* slot);
  void maintenance_loop();
  /// Scan for workers wedged past stuck_worker_ms; abandon and replace.
  void check_stuck_workers();
  /// Background re-probe of quarantined tiles whose cooldown elapsed.
  void probe_quarantined_tiles();
  HealthState compute_health() const;
  /// Recompute health into the cached atomic + serve.health gauge.
  void refresh_health();

  /// Tile fetch through the cache.  A miss consults the quarantine
  /// registry, then runs the retry ladder against the snapshot: a cache
  /// put and the IO metrics on success, quarantine bookkeeping on both
  /// sides.  nullptr means the tile is unavailable right now
  /// (quarantined or retries exhausted) and the request must degrade.
  std::shared_ptr<const DistBlock> fetch_tile(std::int64_t tile_id,
                                              RequestTrace* trace);
  /// One matrix entry via its tile; false = tile unavailable (degraded).
  bool lookup(Vertex u, Vertex v, RequestTrace* trace, Dist* out);
  /// lookup() that throws DegradedTile on unavailability — for call
  /// sites (path reconstruction) threaded through DistFn.
  Dist lookup_or_throw(Vertex u, Vertex v, RequestTrace* trace);

  DistanceReply do_distance(Vertex u, Vertex v, RequestTrace* trace);
  PathReply do_path(Vertex u, Vertex v, Clock::time_point deadline,
                    RequestTrace* trace);
  KNearestReply do_k_nearest(Vertex u, int k, Clock::time_point deadline,
                             RequestTrace* trace);

  /// Latency histogram + outcome counter + rolling windows + SLO, and —
  /// when the request was traced — the trace's end timestamp.  Called on
  /// the worker before the reply promise resolves, so a caller that sees
  /// the reply also sees its metrics.
  void record_outcome(Clock::time_point enqueue, ServeError error,
                      RequestTrace* trace);

  Graph graph_;
  std::shared_ptr<SnapshotReader> snapshot_;
  ServeOptions options_;
  MetricsRegistry registry_;
  TileCache cache_;
  RequestTraceLog trace_log_;
  SloTracker slo_;
  RollingHistogram latency_window_;
  RollingHistogram error_window_;
  /// Installed hooks, oldest first.  The summary calls the last one with
  /// the mutex held, so its owner cannot be destroyed mid-call.
  mutable std::mutex summary_extensions_mutex_;
  std::vector<std::pair<const void*, std::function<void(JsonWriter&)>>>
      summary_extensions_;
  std::unique_ptr<TelemetryServer> telemetry_;

  // Resilience state (serve/resilience).  health_ is a cache of
  // compute_health() so admission control reads one atomic, refreshed by
  // the maintenance thread and on quarantine transitions.
  QuarantineRegistry quarantine_;
  std::atomic<int> health_{static_cast<int>(HealthState::kOk)};
  std::atomic<std::int64_t> workers_replaced_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  // Worker slots; unique_ptr so the atomics stay put when the watchdog
  // appends replacements.  Guarded by workers_mutex_ (not queue_mutex_:
  // the watchdog must scan while workers hold jobs).
  mutable std::mutex workers_mutex_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  int next_worker_index_ = 0;
  /// Set by stop() once every slot's thread is joined.
  std::atomic<bool> workers_joined_{false};

  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  bool maintenance_stop_ = false;
  std::thread maintenance_;
};

}  // namespace capsp
