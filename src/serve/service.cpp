#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <queue>
#include <sstream>
#include <string>
#include <thread>

#include "core/path_oracle.hpp"
#include "serve/telemetry.hpp"
#include "util/buildinfo.hpp"
#include "util/check.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/procstat.hpp"
#include "util/prof.hpp"
#include "util/prometheus.hpp"

namespace capsp {
namespace {

using Clock = std::chrono::steady_clock;

double to_micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void write_window(JsonWriter& json, const char* key, const WindowStats& w) {
  json.key(key);
  json.begin_object();
  json.field("count", w.count);
  json.field("rate_per_second", w.rate_per_second);
  json.field("mean", w.mean);
  json.field("min", w.min);
  json.field("max", w.max);
  json.field("p50", w.p50);
  json.field("p95", w.p95);
  json.field("p99", w.p99);
  json.field("covered_seconds", w.covered_seconds);
  json.end_object();
}

const char* outcome_counter(ServeError error) {
  switch (error) {
    case ServeError::kOk: return "serve.request.ok";
    case ServeError::kOverloaded: return "serve.request.overloaded";
    case ServeError::kDeadlineExceeded:
      return "serve.request.deadline_exceeded";
    case ServeError::kShutdown: return "serve.request.shutdown";
    case ServeError::kDegraded: return "serve.request.degraded";
  }
  return "serve.request.ok";
}

const char* fault_counter(TileReadError::Kind kind) {
  switch (kind) {
    case TileReadError::Kind::kIo: return "serve.fault.io";
    case TileReadError::Kind::kChecksum: return "serve.fault.checksum";
    case TileReadError::Kind::kAlloc: return "serve.fault.alloc";
  }
  return "serve.fault.io";
}

/// Internal signal that a lookup could not be served because its tile is
/// unavailable; caught at the do_* boundary and turned into kDegraded.
/// Never escapes the service.
struct DegradedTile {
  std::int64_t tile_id = -1;
};

/// Slices of the rolling latency/error windows.
constexpr int kWindowSlices = 10;
/// Cadence of the maintenance thread (watchdog scan, quarantine probes,
/// health refresh).
constexpr double kMaintenanceIntervalMs = 20;

std::int64_t steady_micros_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Jitter stream for retry backoff: per-thread so concurrent workers
/// de-synchronize; seeding does not need cross-run determinism.
Rng& backoff_rng() {
  static thread_local Rng rng(
      0x243f6a8885a308d3ull ^
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  return rng;
}

/// A request's deadline; <= 0 seconds means none.
Clock::time_point deadline_from(double deadline_seconds,
                                Clock::time_point now) {
  if (deadline_seconds <= 0) return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(deadline_seconds));
}

}  // namespace

const char* to_string(ServeError error) {
  switch (error) {
    case ServeError::kOk: return "ok";
    case ServeError::kOverloaded: return "overloaded";
    case ServeError::kDeadlineExceeded: return "deadline_exceeded";
    case ServeError::kShutdown: return "shutdown";
    case ServeError::kDegraded: return "degraded";
  }
  return "unknown";
}

const DistanceService::QueryKind DistanceService::kDistanceQuery{
    "distance", "serve.request.distance", "serve.execute.distance"};
const DistanceService::QueryKind DistanceService::kPathQuery{
    "path", "serve.request.path", "serve.execute.path"};
const DistanceService::QueryKind DistanceService::kKNearestQuery{
    "knear", "serve.request.knear", "serve.execute.knear"};

DistanceService::DistanceService(std::shared_ptr<SnapshotReader> snapshot,
                                 Graph graph, ServeOptions options)
    : graph_(std::move(graph)),
      snapshot_(std::move(snapshot)),
      options_(options),
      cache_(options.cache_bytes),
      trace_log_({options.trace_sample_every, options.slow_trace_ms * 1000.0,
                  options.trace_keep}),
      slo_(options.slo),
      latency_window_(options.window_seconds, kWindowSlices),
      error_window_(options.window_seconds, kWindowSlices),
      quarantine_(options.quarantine_cooldown_ms) {
  CAPSP_CHECK_MSG(snapshot_ != nullptr, "DistanceService needs a snapshot");
  const SnapshotHeader& h = snapshot_->header();
  CAPSP_CHECK_MSG(h.rows == graph_.num_vertices() &&
                      h.cols == graph_.num_vertices(),
                  "snapshot is " << h.rows << "x" << h.cols
                                 << ", graph has " << graph_.num_vertices()
                                 << " vertices");
  CAPSP_CHECK_MSG(options_.threads >= 1,
                  "service needs >= 1 worker, got " << options_.threads);
  if (options_.fault_injector != nullptr)
    snapshot_->set_fault_injector(options_.fault_injector.get());
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    workers_.reserve(static_cast<std::size_t>(options_.threads));
    for (int i = 0; i < options_.threads; ++i) {
      auto slot = std::make_unique<WorkerSlot>();
      slot->index = next_worker_index_++;
      slot->thread = std::thread([this, s = slot.get()] { worker_loop(s); });
      workers_.push_back(std::move(slot));
    }
  }
  maintenance_ = std::thread([this] { maintenance_loop(); });
}

DistanceService::~DistanceService() { stop(); }

void DistanceService::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Maintenance first: once it is joined, no watchdog replacement can be
  // appended, so the slots are joined in place.  They stay, so the pool's
  // stats still describe it after the join.
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    maintenance_stop_ = true;
  }
  maintenance_cv_.notify_all();
  maintenance_.join();
  // Every slot is joined — including retired stuck workers, whose
  // injected wedge is finite by construction.  No lock: a draining worker
  // may read the pool (compute_health), and nothing writes it now.
  for (auto& slot : workers_) slot->thread.join();
  workers_joined_.store(true);
  // Detach the injector so a later service on the same (shared) reader —
  // the chaos harness runs clean and faulted passes back-to-back — never
  // sees a stale pointer once this service's options copy dies.
  if (options_.fault_injector != nullptr)
    snapshot_->set_fault_injector(nullptr);
  if (telemetry_ != nullptr) telemetry_->stop();
}

void DistanceService::worker_loop(WorkerSlot* slot) {
  ServeFaultInjector* injector = options_.fault_injector.get();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this, slot] {
        return stopping_ || slot->abandoned.load(std::memory_order_relaxed) ||
               !queue_.empty();
      });
      // A retired (ex-stuck) worker stops dequeuing; its replacement
      // carries the load.  During shutdown it drains like any other.
      if (slot->abandoned.load(std::memory_order_relaxed) && !stopping_)
        return;
      if (queue_.empty()) return;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    slot->busy_since_us.store(steady_micros_now(),
                              std::memory_order_release);
    const std::int64_t job_index = slot->jobs++;
    if (injector != nullptr) {
      // A "stuck worker" is a thread wedged inside a job: the sleep sits
      // where the job body would, after busy_since is set, so the
      // watchdog sees exactly what it would see in production.
      const double wedge = injector->stick_seconds(slot->index, job_index);
      if (wedge > 0) {
        registry_.counter_add("serve.fault.stuck_worker");
        std::this_thread::sleep_for(std::chrono::duration<double>(wedge));
      }
    }
    const bool expired = Clock::now() > job.deadline;
    if (job.trace != nullptr) job.trace->mark_dequeued();
    {
      // Every log/flight-recorder event emitted while this job runs —
      // including deep inside snapshot reads and fault injections —
      // carries the request id, so a crash dump names the in-flight
      // requests (docs/observability.md).
      const LogRequestScope log_req(
          job.trace != nullptr ? job.trace->id() : -1);
      CAPSP_LOG(kTrace, "serve.job.start", {"kind", job.kind->name},
                {"worker", slot->index}, {"expired", expired});
      ProfScope prof(job.kind->scope);
      job.run(expired, job.trace.get());
      CAPSP_LOG(kTrace, "serve.job.done", {"kind", job.kind->name},
                {"worker", slot->index});
    }
    slot->busy_since_us.store(0, std::memory_order_release);
    // Routing happens after the reply resolves, but stop() joins this
    // thread, so a drained service always has every trace routed.
    if (job.trace != nullptr) trace_log_.finish(std::move(job.trace));
  }
}

void DistanceService::maintenance_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maintenance_mutex_);
      maintenance_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(kMaintenanceIntervalMs),
          [this] { return maintenance_stop_; });
      if (maintenance_stop_) return;
    }
    if (options_.stuck_worker_ms > 0) check_stuck_workers();
    probe_quarantined_tiles();
    refresh_health();
  }
}

void DistanceService::check_stuck_workers() {
  const std::int64_t now_us = steady_micros_now();
  const auto threshold_us =
      static_cast<std::int64_t>(options_.stuck_worker_ms * 1000.0);
  std::lock_guard<std::mutex> lock(workers_mutex_);
  std::vector<std::unique_ptr<WorkerSlot>> replacements;
  for (auto& slot : workers_) {
    if (slot->abandoned.load(std::memory_order_relaxed)) continue;
    const std::int64_t busy_since =
        slot->busy_since_us.load(std::memory_order_acquire);
    if (busy_since == 0 || now_us - busy_since < threshold_us) continue;
    // Wedged past the threshold: retire the thread (it exits its loop
    // when — if — it wakes) and restore capacity with a fresh one.
    slot->abandoned.store(true, std::memory_order_relaxed);
    CAPSP_LOG(kWarn, "serve.worker.stuck", {"worker", slot->index},
              {"busy_us", now_us - busy_since},
              {"threshold_us", threshold_us});
    workers_replaced_.fetch_add(1, std::memory_order_relaxed);
    auto fresh = std::make_unique<WorkerSlot>();
    fresh->index = next_worker_index_++;
    CAPSP_LOG(kInfo, "serve.worker.replaced", {"retired", slot->index},
              {"fresh", fresh->index});
    fresh->thread = std::thread([this, s = fresh.get()] { worker_loop(s); });
    replacements.push_back(std::move(fresh));
  }
  for (auto& slot : replacements) workers_.push_back(std::move(slot));
  // Wake retired workers parked on the queue cv so they notice.
  if (!replacements.empty()) queue_cv_.notify_all();
}

void DistanceService::probe_quarantined_tiles() {
  for (const std::int64_t tile_id :
       quarantine_.due_for_probe(QuarantineRegistry::Clock::now())) {
    try {
      DistBlock tile = snapshot_->read_tile(tile_id, nullptr);
      quarantine_.record_success(tile_id);
      // Seed the cache so the first post-recovery request hits.
      cache_.put(tile_id, std::move(tile));
    } catch (const TileReadError& e) {
      registry_.counter_add(fault_counter(e.kind()));
      quarantine_.record_failure(tile_id);
    }
  }
}

HealthState DistanceService::compute_health() const {
  // Once stop() has joined the pool, its state describes the teardown,
  // not the service.  Report the last live verdict so a post-run summary
  // reflects how the service ended (the /healthz endpoint answers 503
  // "stopping" separately).
  if (workers_joined_.load())
    return static_cast<HealthState>(health_.load(std::memory_order_relaxed));
  const WorkerStats workers = worker_stats();
  const QuarantineRegistry::Stats q = quarantine_.stats();
  const std::int64_t tiles = snapshot_->header().num_tiles();
  // Unhealthy: half the tile space dark, or no live workers — exact
  // answers are no longer the common case, so shed to protect the error
  // budget.  Degraded: anything quarantined or wedged, answers still
  // exact for every healthy tile.
  if (tiles > 0 && q.active * 2 >= tiles) return HealthState::kUnhealthy;
  if (workers.active == 0) return HealthState::kUnhealthy;
  if (q.active > 0 || workers.stuck > 0) return HealthState::kDegraded;
  return HealthState::kOk;
}

void DistanceService::refresh_health() {
  const HealthState health = compute_health();
  health_.store(static_cast<int>(health), std::memory_order_relaxed);
  registry_.gauge_set("serve.health", static_cast<double>(health));
  registry_.gauge_set("serve.quarantine.active",
                      static_cast<double>(quarantine_.stats().active));
}

DistanceService::WorkerStats DistanceService::worker_stats() const {
  WorkerStats stats;
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (const auto& slot : workers_) {
    if (!slot->abandoned.load(std::memory_order_relaxed))
      ++stats.active;
    else if (slot->busy_since_us.load(std::memory_order_acquire) != 0)
      ++stats.stuck;
  }
  stats.spawned = static_cast<std::int64_t>(workers_.size());
  stats.replaced = workers_replaced_.load(std::memory_order_relaxed);
  return stats;
}

ServeError DistanceService::submit(Job job) {
  registry_.counter_add(job.kind->counter);
  ServeError verdict = ServeError::kOk;
  // Fault-aware shedding: while unhealthy (cached by the maintenance
  // thread), refuse new work up front — a fast structured "degraded"
  // spends far less error budget than a slow failure per request.
  const bool shedding = health_.load(std::memory_order_relaxed) ==
                        static_cast<int>(HealthState::kUnhealthy);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      verdict = ServeError::kShutdown;
    } else if (shedding) {
      verdict = ServeError::kDegraded;
    } else if (queue_.size() >= options_.max_queue) {
      verdict = ServeError::kOverloaded;
    } else {
      queue_.push_back(std::move(job));
      registry_.gauge_max("serve.queue.depth",
                          static_cast<double>(queue_.size()));
    }
  }
  if (verdict != ServeError::kOk) {
    const auto now = Clock::now();
    // Rate-limited by the logger's per-site budget: a shed storm logs a
    // handful of lines plus a suppressed count, not one line per reject.
    CAPSP_LOG(kWarn, "serve.request.rejected", {"kind", job.kind->name},
              {"verdict", to_string(verdict)});
    registry_.counter_add(outcome_counter(verdict));
    error_window_.observe(1.0, now);
    // Rejections never executed, so they touch only the availability
    // objective (latency_us is ignored for non-ok outcomes).
    slo_.record(false, 0.0, now);
    if (job.trace != nullptr) {
      job.trace->finish(to_string(verdict), now);
      trace_log_.finish(std::move(job.trace));
    }
    return verdict;
  }
  queue_cv_.notify_one();
  return ServeError::kOk;
}

template <typename Reply, typename Body>
std::future<Reply> DistanceService::enqueue_query(const QueryKind& kind,
                                                  std::int64_t u,
                                                  std::int64_t v,
                                                  std::int64_t k,
                                                  double deadline_seconds,
                                                  Body body) {
  auto promise = std::make_shared<std::promise<Reply>>();
  std::future<Reply> future = promise->get_future();
  Job job;
  job.enqueue = Clock::now();
  job.deadline = deadline_from(deadline_seconds, job.enqueue);
  job.kind = &kind;
  job.trace = trace_log_.maybe_start(kind.name, u, v, k);
  job.run = [this, promise, body = std::move(body), enqueue = job.enqueue,
             deadline = job.deadline](bool expired, RequestTrace* trace) {
    Reply reply;
    if (expired)
      reply.error = ServeError::kDeadlineExceeded;
    else
      reply = body(deadline, trace);
    record_outcome(enqueue, reply.error, trace);
    promise->set_value(std::move(reply));
  };
  if (const ServeError verdict = submit(std::move(job));
      verdict != ServeError::kOk) {
    Reply reply;
    reply.error = verdict;
    promise->set_value(std::move(reply));
  }
  return future;
}

void DistanceService::record_outcome(Clock::time_point enqueue,
                                     ServeError error, RequestTrace* trace) {
  const auto now = Clock::now();
  const double latency_us = to_micros(now - enqueue);
  registry_.observe("serve.request.latency_us", latency_us);
  registry_.counter_add(outcome_counter(error));
  latency_window_.observe(latency_us, now);
  if (error != ServeError::kOk) error_window_.observe(1.0, now);
  slo_.record(error == ServeError::kOk, latency_us, now);
  if (trace != nullptr) trace->finish(to_string(error), now);
}

std::shared_ptr<const DistBlock> DistanceService::fetch_tile(
    std::int64_t tile_id, RequestTrace* trace) {
  if (auto tile = cache_.get(tile_id, trace)) return tile;
  // Quarantine gate: a known-bad tile fails fast instead of burning a
  // retry ladder per request on a dead sector.  A kProbe verdict means
  // this request is the sanctioned probe and proceeds to the disk.
  if (quarantine_.admit(tile_id) == QuarantineRegistry::Admission::kBlocked) {
    CAPSP_LOG(kTrace, "serve.quarantine.blocked", {"tile", tile_id});
    ScopedSpan span(trace, "tile.quarantine_blocked");
    span.detail("tile", tile_id);
    return nullptr;
  }
  // The miss fill path (snapshot read + insert) gets its own profiling
  // scope, with bytes for the memory-roofline axis.
  ProfScope prof("serve.tile_fill");
  for (int attempt = 0;; ++attempt) {
    try {
      DistBlock loaded = snapshot_->read_tile(tile_id, trace);
      if (attempt > 0) registry_.counter_add("serve.retry.success");
      if (quarantine_.record_success(tile_id)) refresh_health();
      const std::int64_t bytes =
          loaded.size() * static_cast<std::int64_t>(sizeof(Dist));
      prof.add_bytes(bytes);
      registry_.counter_add("serve.io.tiles_loaded");
      registry_.counter_add("serve.io.bytes_read", bytes);
      return cache_.put(tile_id, std::move(loaded));
    } catch (const TileReadError& e) {
      registry_.counter_add(fault_counter(e.kind()));
      if (attempt + 1 >= kRetryMaxAttempts) {
        CAPSP_LOG(kWarn, "serve.retry.exhausted", {"tile", tile_id},
                  {"attempts", attempt + 1}, {"kind", fault_counter(e.kind())});
        registry_.counter_add("serve.retry.exhausted");
        if (quarantine_.record_failure(tile_id)) refresh_health();
        return nullptr;
      }
      registry_.counter_add("serve.retry.attempts");
      const double backoff_ms = retry_backoff_ms(attempt, backoff_rng());
      CAPSP_LOG(kDebug, "serve.retry", {"tile", tile_id},
                {"attempt", attempt + 1}, {"backoff_ms", backoff_ms},
                {"kind", fault_counter(e.kind())});
      registry_.observe("serve.retry.backoff_ms", backoff_ms);
      ScopedSpan span(trace, "tile.retry");
      span.detail("tile", tile_id);
      span.detail("attempt", attempt + 1);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
}

bool DistanceService::lookup(Vertex u, Vertex v, RequestTrace* trace,
                             Dist* out) {
  const std::int64_t t = snapshot_->header().tile_dim;
  const std::int64_t tr = u / t, tc = v / t;
  const auto tile = fetch_tile(snapshot_->header().tile_id(tr, tc), trace);
  if (tile == nullptr) return false;
  *out = tile->at(u - tr * t, v - tc * t);
  return true;
}

Dist DistanceService::lookup_or_throw(Vertex u, Vertex v,
                                      RequestTrace* trace) {
  Dist d = kInf;
  if (!lookup(u, v, trace, &d)) {
    const std::int64_t t = snapshot_->header().tile_dim;
    throw DegradedTile{snapshot_->header().tile_id(u / t, v / t)};
  }
  return d;
}

DistanceReply DistanceService::do_distance(Vertex u, Vertex v,
                                           RequestTrace* trace) {
  Dist d = kInf;
  if (!lookup(u, v, trace, &d)) return {ServeError::kDegraded, kInf};
  return {ServeError::kOk, d};
}

PathReply DistanceService::do_path(Vertex u, Vertex v,
                                   Clock::time_point deadline,
                                   RequestTrace* trace) {
  PathReply reply;
  try {
    reply.distance = lookup_or_throw(u, v, trace);
    if (is_inf(reply.distance)) return reply;  // unreachable: ok, empty path
    const auto dist_fn = [this, trace](Vertex a, Vertex b) {
      return lookup_or_throw(a, b, trace);
    };
    std::vector<Vertex> path{u};
    Vertex cursor = u;
    for (Vertex steps = 0; cursor != v; ++steps) {
      if (Clock::now() > deadline) {
        reply.error = ServeError::kDeadlineExceeded;
        return reply;
      }
      CAPSP_CHECK_MSG(steps < graph_.num_vertices(),
                      "path reconstruction looped; inconsistent inputs");
      ScopedSpan hop(trace, "path.hop");
      hop.detail("from", cursor);
      cursor = next_hop_via(graph_, cursor, v, dist_fn);
      path.push_back(cursor);
    }
    registry_.observe("serve.path.hops",
                      static_cast<double>(path.size() - 1));
    reply.path = std::move(path);
  } catch (const DegradedTile&) {
    // Never a partial path: a hop that cannot be verified degrades the
    // whole reply, so every kOk path stays bit-exact.
    reply = PathReply{};
    reply.error = ServeError::kDegraded;
  }
  return reply;
}

KNearestReply DistanceService::do_k_nearest(Vertex u, int k,
                                            Clock::time_point deadline,
                                            RequestTrace* trace) {
  KNearestReply reply;
  if (k <= 0) return reply;
  const SnapshotHeader& h = snapshot_->header();
  const std::int64_t t = h.tile_dim;
  const std::int64_t tr = u / t;
  // Max-heap of the k best (distance, vertex) seen so far: top = worst
  // kept candidate, so pair ordering gives the (distance, id) tie-break.
  std::priority_queue<std::pair<Dist, Vertex>> heap;
  for (std::int64_t tc = 0; tc < h.tile_cols(); ++tc) {
    if (Clock::now() > deadline) {
      reply.error = ServeError::kDeadlineExceeded;
      return reply;
    }
    const auto tile = fetch_tile(h.tile_id(tr, tc), trace);
    if (tile == nullptr) {
      // k-nearest scans the whole row; any dark tile could hide a
      // nearer vertex, so the reply degrades rather than silently
      // returning a wrong top-k.
      reply.nearest.clear();
      reply.error = ServeError::kDegraded;
      return reply;
    }
    const std::int64_t row = u - tr * t;
    for (std::int64_t c = 0; c < tile->cols(); ++c) {
      const auto v = static_cast<Vertex>(tc * t + c);
      if (v == u) continue;
      const Dist d = tile->at(row, c);
      if (is_inf(d)) continue;
      if (heap.size() < static_cast<std::size_t>(k)) {
        heap.emplace(d, v);
      } else if (std::pair<Dist, Vertex>(d, v) < heap.top()) {
        heap.pop();
        heap.emplace(d, v);
      }
    }
  }
  reply.nearest.resize(heap.size());
  for (std::size_t i = heap.size(); i-- > 0; heap.pop())
    reply.nearest[i] = {heap.top().second, heap.top().first};
  return reply;
}

std::future<DistanceReply> DistanceService::distance_async(
    Vertex u, Vertex v, double deadline_seconds) {
  CAPSP_CHECK_MSG(u >= 0 && u < num_vertices() && v >= 0 &&
                      v < num_vertices(),
                  "query (" << u << "," << v << ") outside [0,"
                            << num_vertices() << ")");
  return enqueue_query<DistanceReply>(
      kDistanceQuery, u, v, -1, deadline_seconds,
      [this, u, v](Clock::time_point, RequestTrace* trace) {
        return do_distance(u, v, trace);
      });
}

std::future<PathReply> DistanceService::shortest_path_async(
    Vertex u, Vertex v, double deadline_seconds) {
  CAPSP_CHECK_MSG(u >= 0 && u < num_vertices() && v >= 0 &&
                      v < num_vertices(),
                  "query (" << u << "," << v << ") outside [0,"
                            << num_vertices() << ")");
  return enqueue_query<PathReply>(
      kPathQuery, u, v, -1, deadline_seconds,
      [this, u, v](Clock::time_point deadline, RequestTrace* trace) {
        return do_path(u, v, deadline, trace);
      });
}

std::future<KNearestReply> DistanceService::k_nearest_async(
    Vertex u, int k, double deadline_seconds) {
  CAPSP_CHECK_MSG(u >= 0 && u < num_vertices(),
                  "query vertex " << u << " outside [0," << num_vertices()
                                  << ")");
  return enqueue_query<KNearestReply>(
      kKNearestQuery, u, -1, k, deadline_seconds,
      [this, u, k](Clock::time_point deadline, RequestTrace* trace) {
        return do_k_nearest(u, k, deadline, trace);
      });
}

DistanceReply DistanceService::distance(Vertex u, Vertex v,
                                        double deadline_seconds) {
  return distance_async(u, v, deadline_seconds).get();
}

PathReply DistanceService::shortest_path(Vertex u, Vertex v,
                                         double deadline_seconds) {
  return shortest_path_async(u, v, deadline_seconds).get();
}

KNearestReply DistanceService::k_nearest(Vertex u, int k,
                                         double deadline_seconds) {
  return k_nearest_async(u, k, deadline_seconds).get();
}

std::vector<DistanceReply> DistanceService::distance_batch(
    std::span<const std::pair<Vertex, Vertex>> pairs,
    double deadline_seconds) {
  std::vector<std::future<DistanceReply>> futures;
  futures.reserve(pairs.size());
  for (const auto& [u, v] : pairs)
    futures.push_back(distance_async(u, v, deadline_seconds));
  std::vector<DistanceReply> replies;
  replies.reserve(pairs.size());
  for (auto& future : futures) replies.push_back(future.get());
  return replies;
}

MetricsSnapshot DistanceService::metrics_snapshot() const {
  MetricsSnapshot snapshot = registry_.snapshot();
  const auto fold = [&snapshot](const std::string& name, std::int64_t count) {
    if (count != 0) snapshot[name].counter = count;
  };
  const auto gauge = [&snapshot](const std::string& name, double value) {
    Metric& metric = snapshot[name];
    metric.kind = MetricKind::kGauge;
    metric.gauge = value;
  };
  const std::vector<TileCache::Stats> shards = cache_.shard_stats();
  TileCache::Stats cache;
  for (std::size_t j = 0; j < shards.size(); ++j) {
    const std::string shard = "serve.cache.shard" + std::to_string(j);
    fold(shard + ".hit", shards[j].hits);
    fold(shard + ".miss", shards[j].misses);
    fold(shard + ".eviction", shards[j].evictions);
    cache += shards[j];
  }
  fold("serve.cache.hit", cache.hits);
  fold("serve.cache.miss", cache.misses);
  fold("serve.cache.eviction", cache.evictions);
  // A shard never drops its last entry, so entries > 0 means a tile has
  // been cached.
  if (cache.entries > 0) {
    gauge("serve.cache.bytes", static_cast<double>(cache.bytes));
    gauge("serve.cache.entries", static_cast<double>(cache.entries));
  }
  const QuarantineRegistry::Stats quarantine = quarantine_.stats();
  fold("serve.quarantine.enter", quarantine.enters);
  fold("serve.quarantine.exit", quarantine.exits);
  fold("serve.quarantine.blocked", quarantine.blocked);
  fold("serve.quarantine.probe", quarantine.probes);
  // Every worker the watchdog found stuck was replaced.
  const std::int64_t replaced =
      workers_replaced_.load(std::memory_order_relaxed);
  fold("serve.worker.stuck", replaced);
  fold("serve.worker.replaced", replaced);
  fold("serve.trace.slow", trace_log_.stats().slow);
  return snapshot;
}

void DistanceService::write_summary_fields(JsonWriter& json) const {
  const MetricsSnapshot metrics = metrics_snapshot();
  const auto counter = [&metrics](const std::string& name) {
    return counter_value(metrics, name);
  };
  const SnapshotHeader& h = snapshot_->header();
  json.key("serve");
  json.begin_object();
  json.key("snapshot");
  json.begin_object();
  json.field("rows", h.rows);
  json.field("cols", h.cols);
  json.field("tile_dim", h.tile_dim);
  json.field("tiles", h.num_tiles());
  json.field("file_backed", snapshot_->file_backed());
  json.end_object();
  json.field("threads", options_.threads);
  json.field("cache_bytes", options_.cache_bytes);
  json.field("max_queue", static_cast<std::int64_t>(options_.max_queue));

  const std::int64_t ok = counter("serve.request.ok");
  const std::int64_t overloaded = counter("serve.request.overloaded");
  const std::int64_t expired = counter("serve.request.deadline_exceeded");
  const std::int64_t shutdown = counter("serve.request.shutdown");
  const std::int64_t degraded = counter("serve.request.degraded");
  json.key("requests");
  json.begin_object();
  json.field("total", ok + overloaded + expired + shutdown + degraded);
  json.field("ok", ok);
  json.field("overloaded", overloaded);
  json.field("deadline_exceeded", expired);
  json.field("shutdown", shutdown);
  json.field("degraded", degraded);
  json.field("distance", counter("serve.request.distance"));
  json.field("path", counter("serve.request.path"));
  json.field("knear", counter("serve.request.knear"));
  json.end_object();

  const TileCache::Stats cache = cache_.stats();
  json.key("cache");
  json.begin_object();
  json.field("hits", cache.hits);
  json.field("misses", cache.misses);
  json.field("evictions", cache.evictions);
  json.field("bytes", cache.bytes);
  json.field("entries", cache.entries);
  const std::int64_t lookups = cache.hits + cache.misses;
  json.field("hit_rate",
             lookups > 0 ? static_cast<double>(cache.hits) /
                               static_cast<double>(lookups)
                         : 0.0);
  json.key("shards");
  json.begin_array();
  for (const TileCache::Stats& shard : cache_.shard_stats()) {
    json.begin_object();
    json.field("hits", shard.hits);
    json.field("misses", shard.misses);
    json.field("evictions", shard.evictions);
    json.field("bytes", shard.bytes);
    json.field("entries", shard.entries);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  json.field("bytes_read", counter("serve.io.bytes_read"));
  json.key("latency_us");
  json.begin_object();
  if (const auto it = metrics.find("serve.request.latency_us");
      it != metrics.end()) {
    const Histogram& hist = it->second.histogram;
    json.field("count", hist.count);
    json.field("mean", hist.mean());
    json.field("p50", hist.percentile(0.50));
    json.field("p95", hist.percentile(0.95));
    json.field("max", hist.max);
  } else {
    json.field("count", std::int64_t{0});
  }
  json.end_object();

  // Rolling windows: the last window_seconds of traffic, as /stats.json
  // serves them live.
  json.key("windows");
  json.begin_object();
  json.field("seconds", options_.window_seconds);
  write_window(json, "latency_us", latency_window_.stats());
  write_window(json, "errors", error_window_.stats());
  json.end_object();

  const SloTracker::Snapshot slo = slo_.snapshot();
  json.key("slo");
  json.begin_object();
  json.field("latency_ms", options_.slo.latency_ms);
  json.field("window_seconds", options_.slo.window_seconds);
  write_slo_objective(json, "latency", slo.latency);
  write_slo_objective(json, "availability", slo.availability);
  json.end_object();

  const RequestTraceLog::Stats traces = trace_log_.stats();
  json.key("reqtrace");
  json.begin_object();
  json.field("enabled", trace_log_.enabled());
  json.field("sample_every", options_.trace_sample_every);
  json.field("slow_ms", options_.slow_trace_ms);
  json.field("started", traces.started);
  json.field("slow", traces.slow);
  json.field("sampled_kept", traces.sampled_kept);
  json.field("dropped", traces.dropped);
  json.end_object();

  // Resilience posture (docs/robustness.md): health, retry/quarantine
  // ledgers, worker-watchdog outcomes, and — under chaos — what the
  // injector actually did (vs. the serve.fault.* counters, which are
  // what the service observed).
  json.key("resilience");
  json.begin_object();
  json.field("enabled", true);
  json.field("health", to_string(compute_health()));
  json.key("retry");
  json.begin_object();
  json.field("max_attempts", kRetryMaxAttempts);
  json.field("attempts", counter("serve.retry.attempts"));
  json.field("success", counter("serve.retry.success"));
  json.field("exhausted", counter("serve.retry.exhausted"));
  json.end_object();
  const QuarantineRegistry::Stats q = quarantine_.stats();
  json.key("quarantine");
  json.begin_object();
  json.field("threshold", QuarantineRegistry::kThreshold);
  json.field("cooldown_ms", options_.quarantine_cooldown_ms);
  json.field("active", q.active);
  json.field("enters", q.enters);
  json.field("exits", q.exits);
  json.field("blocked", q.blocked);
  json.field("probes", q.probes);
  json.end_object();
  const WorkerStats workers = worker_stats();
  json.key("workers");
  json.begin_object();
  json.field("active", workers.active);
  json.field("stuck", workers.stuck);
  json.field("spawned", workers.spawned);
  json.field("replaced", workers.replaced);
  json.field("stuck_threshold_ms", options_.stuck_worker_ms);
  json.end_object();
  json.key("faults_observed");
  json.begin_object();
  json.field("io", counter("serve.fault.io"));
  json.field("checksum", counter("serve.fault.checksum"));
  json.field("alloc", counter("serve.fault.alloc"));
  json.field("stuck_worker", counter("serve.fault.stuck_worker"));
  json.end_object();
  if (options_.fault_injector != nullptr) {
    const ServeFaultInjector::Counts injected =
        options_.fault_injector->counts();
    json.field("fault_plan", options_.fault_injector->plan().to_string());
    json.key("faults_injected");
    json.begin_object();
    json.field("eio", injected.eio);
    json.field("eintr", injected.eintr);
    json.field("short_reads", injected.short_reads);
    json.field("flips", injected.flips);
    json.field("delays", injected.delays);
    json.field("allocs", injected.allocs);
    json.field("sticks", injected.sticks);
    json.end_object();
  }
  json.end_object();

  // Front-end extension (serve/tiered): the newest tiered front end's
  // per-tier stats, written by its hook so they appear in the same
  // document.
  {
    const std::lock_guard lock(summary_extensions_mutex_);
    if (!summary_extensions_.empty()) {
      json.key("tier");
      summary_extensions_.back().second(json);
    }
  }

  // Live profiler status: /profile returns the full report at the end of
  // a window; /stats.json only says whether one is in flight.
  const Profiler::Status prof_status = Profiler::global().status();
  json.key("profiler");
  json.begin_object();
  json.field("running", prof_status.running);
  json.field("hz", prof_status.hz);
  json.field("samples", prof_status.samples);
  json.end_object();
  json.end_object();

  write_process_fields(json);
  write_build_info_fields(json);
  write_metrics_fields(json, metrics);
}

int DistanceService::start_telemetry(int port) {
  CAPSP_CHECK_MSG(telemetry_ == nullptr, "telemetry already started");
  telemetry_ = std::make_unique<TelemetryServer>();
  telemetry_->handle("/metrics", [this](const std::string&) {
    std::ostringstream out;
    MetricsSnapshot snapshot = metrics_snapshot();
    append_process_metrics(snapshot);  // fresh RSS/CPU/fds per scrape
    write_prometheus_text(out, snapshot, "capsp_");
    return TelemetryResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             out.str()};
  });
  telemetry_->handle("/healthz", [this](const std::string&) {
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping = stopping_;
    }
    if (stopping)
      return TelemetryResponse{503, "text/plain; charset=utf-8",
                               "stopping\n"};
    // Tri-state health (docs/robustness.md): degraded still answers
    // 200 — it is serving exact answers for every healthy tile — while
    // unhealthy is a load-balancer-visible 503.
    const HealthState health = compute_health();
    const std::string body = std::string(to_string(health)) + "\n";
    return TelemetryResponse{
        health == HealthState::kUnhealthy ? 503 : 200,
        "text/plain; charset=utf-8", body};
  });
  telemetry_->handle("/stats.json", [this](const std::string&) {
    std::ostringstream out;
    write_summary_json(out);
    return TelemetryResponse{200, "application/json", out.str()};
  });
  // On-demand profiling window: GET /profile?seconds=N[&hz=H][&format=json].
  // The handler blocks the (serial) telemetry thread for the window —
  // acceptable at telemetry traffic rates and documented in
  // docs/profiling.md; concurrent attempts see 503.
  telemetry_->handle("/profile", [](const std::string& query) {
    char* end = nullptr;
    const std::string seconds_str =
        telemetry_query_param(query, "seconds", "2");
    double seconds = std::strtod(seconds_str.c_str(), &end);
    if (end == seconds_str.c_str() || !(seconds > 0))
      return TelemetryResponse{400, "text/plain; charset=utf-8",
                               "bad seconds parameter\n"};
    seconds = std::min(seconds, 60.0);
    const std::string hz_str = telemetry_query_param(query, "hz", "497");
    double hz = std::strtod(hz_str.c_str(), &end);
    if (end == hz_str.c_str() || !(hz > 0) || hz > 4000)
      return TelemetryResponse{400, "text/plain; charset=utf-8",
                               "bad hz parameter\n"};
    const std::string format = telemetry_query_param(query, "format", "folded");
    ProfOptions prof_options;
    prof_options.hz = hz;
    if (!Profiler::global().start(prof_options))
      return TelemetryResponse{503, "text/plain; charset=utf-8",
                               "profiler busy\n"};
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const ProfReport report = Profiler::global().stop();
    std::ostringstream out;
    if (format == "json") {
      write_prof_report_json(out, report);
      return TelemetryResponse{200, "application/json", out.str()};
    }
    report.write_folded(out);
    return TelemetryResponse{200, "text/plain; charset=utf-8", out.str()};
  });
  // Recent flight-recorder events, merged across threads and sorted by
  // time: GET /logs[?n=N].  Reads take the per-ring locks (never the
  // crash path), so scrapes are safe against concurrent recording.
  telemetry_->handle("/logs", [](const std::string& query) {
    char* end = nullptr;
    const std::string n_str = telemetry_query_param(query, "n", "256");
    const long n = std::strtol(n_str.c_str(), &end, 10);
    if (end == n_str.c_str() || n <= 0)
      return TelemetryResponse{400, "text/plain; charset=utf-8",
                               "bad n parameter\n"};
    return TelemetryResponse{
        200, "application/json",
        flightrec::recent_events_json(static_cast<std::int64_t>(n)) + "\n"};
  });
  // Full on-demand black-box dump, same JSON as a crash would write.
  telemetry_->handle("/debug/flightrec", [](const std::string&) {
    return TelemetryResponse{200, "application/json",
                             flightrec::dump_string("on_demand")};
  });
  return telemetry_->start(port);
}

int DistanceService::telemetry_port() const {
  return telemetry_ == nullptr ? 0 : telemetry_->port();
}

void DistanceService::set_summary_extension(
    const void* owner, std::function<void(JsonWriter&)> fn) {
  const std::lock_guard lock(summary_extensions_mutex_);
  summary_extensions_.emplace_back(owner, std::move(fn));
}

void DistanceService::clear_summary_extension(const void* owner) {
  const std::lock_guard lock(summary_extensions_mutex_);
  std::erase_if(summary_extensions_,
                [owner](const auto& hook) { return hook.first == owner; });
}

void DistanceService::write_summary_json(std::ostream& out) const {
  JsonWriter json(out);
  json.begin_object();
  write_summary_fields(json);
  json.end_object();
  out << "\n";
}

}  // namespace capsp
