// Request-scoped tracing for the serving layer (docs/telemetry.md).
//
// A RequestTrace is the span tree of one request: where its latency went,
// from admission to reply.  The span taxonomy mirrors the request's path
// through the stack —
//
//   queue_wait            admission to dequeue
//   execute               dequeue to completion, parent of everything below
//   tile.cache_hit        tile served from the TileCache
//   tile.cache_miss       cache lookup that missed (the reload follows)
//   tile.snapshot_read    tile payload IO (a positional pread, no lock)
//   tile.checksum         per-tile checksum verification
//   path.hop              one next-hop step of shortest_path reconstruction
//
// Traces are cheap vectors of (name, parent, start, end) built by exactly
// one thread at a time (caller until enqueue, then the worker; the queue
// mutex orders the handoff), so no lock is needed inside a trace.  The
// RequestTraceLog decides which requests get a trace (1-in-N sampling)
// and which finished traces are kept: a bounded ring of sampled traces
// plus an always-on slow-request log that keeps any request over a
// latency threshold *even when sampling would have dropped it* — so the
// tail is never invisible.  Kept traces export as one Chrome trace-event
// document (machine/trace_export's ChromeTraceWriter): one track per
// request, spans as slices, openable in chrome://tracing / Perfetto and
// summarized by scripts/trace_summary.py reqtrace.
//
// This header deliberately depends only on the standard library (no
// graph/serve types): vertices travel as std::int64_t and kinds/outcomes
// as string literals, so cache.hpp and snapshot.hpp can take a
// RequestTrace* without an include cycle.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace capsp {

/// One node of the span tree.  `name`/`detail_name` are string literals
/// (never freed, never owned).  end_us < 0 means still open; finish()
/// clamps leftovers to the request end.
struct TraceSpan {
  const char* name = "";
  std::int64_t parent = -1;  ///< index into spans(), -1 = top level
  double start_us = 0;       ///< relative to the request start
  double end_us = -1;
  const char* detail_name = nullptr;
  std::int64_t detail = 0;
};

class RequestTrace {
 public:
  using Clock = std::chrono::steady_clock;

  /// `epoch` anchors this request on the shared service timeline (the
  /// log's construction time); `kind` is a literal ("distance"|...); v/k
  /// are -1 when the query family has no such argument.
  RequestTrace(std::int64_t id, const char* kind, std::int64_t u,
               std::int64_t v, std::int64_t k, bool sampled,
               Clock::time_point epoch);

  std::int64_t id() const { return id_; }
  const char* kind() const { return kind_; }
  std::int64_t u() const { return u_; }
  std::int64_t v() const { return v_; }
  std::int64_t k() const { return k_; }
  /// True when 1-in-N sampling picked this request (a finished unsampled
  /// trace survives only by being slow).
  bool sampled() const { return sampled_; }
  double start_offset_us() const { return start_offset_us_; }
  double total_us() const { return total_us_; }
  const char* outcome() const { return outcome_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Open a child span of the innermost open span.  Returns the span id
  /// for end_span / set_span_*.  Prefer ScopedSpan.
  std::int64_t begin_span(const char* name) {
    return begin_span(name, Clock::now());
  }
  std::int64_t begin_span(const char* name, Clock::time_point now);
  void end_span(std::int64_t span) { end_span(span, Clock::now()); }
  void end_span(std::int64_t span, Clock::time_point now);
  /// Late naming: a span opened as its pessimistic case can be renamed
  /// once the outcome is known (cache_miss → cache_hit).
  void set_span_name(std::int64_t span, const char* name);
  void set_span_detail(std::int64_t span, const char* detail_name,
                       std::int64_t detail);

  /// Lifecycle: the constructor opens "queue_wait"; mark_dequeued (worker
  /// side) closes it and opens "execute"; finish closes every open span
  /// and freezes the end-to-end latency.
  void mark_dequeued() { mark_dequeued(Clock::now()); }
  void mark_dequeued(Clock::time_point now);
  void finish(const char* outcome) { finish(outcome, Clock::now()); }
  void finish(const char* outcome, Clock::time_point now);

 private:
  double offset_us(Clock::time_point now) const;

  std::int64_t id_ = 0;
  const char* kind_ = "";
  std::int64_t u_ = -1, v_ = -1, k_ = -1;
  bool sampled_ = false;
  Clock::time_point start_;
  double start_offset_us_ = 0;
  double total_us_ = 0;
  const char* outcome_ = "";
  std::vector<TraceSpan> spans_;
  std::vector<std::int64_t> open_;  ///< stack of open span ids
};

/// RAII span; a null trace makes every operation a no-op, so instrumented
/// code pays one branch when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(RequestTrace* trace, const char* name)
      : trace_(trace), span_(trace ? trace->begin_span(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end_span(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void rename(const char* name) {
    if (trace_ != nullptr) trace_->set_span_name(span_, name);
  }
  void detail(const char* detail_name, std::int64_t detail) {
    if (trace_ != nullptr) trace_->set_span_detail(span_, detail_name, detail);
  }

 private:
  RequestTrace* trace_;
  std::int64_t span_;
};

struct RequestTraceLogOptions {
  /// Trace every Nth request (0 = sampling off).  Sampling picks which
  /// traces the ring keeps; when the slow log is armed, every request is
  /// traced anyway so a slow one always has its full span tree.
  std::int64_t sample_every = 0;
  /// Slow-request threshold in microseconds (0 = slow log off).
  double slow_us = 0;
  std::size_t keep = 128;      ///< sampled-trace ring capacity
  std::size_t slow_keep = 32;  ///< slow-trace ring capacity
};

class RequestTraceLog {
 public:
  explicit RequestTraceLog(RequestTraceLogOptions options = {});

  bool enabled() const {
    return options_.sample_every > 0 || options_.slow_us > 0;
  }
  const RequestTraceLogOptions& options() const { return options_; }

  /// Admission-time decision: a fresh trace when this request should be
  /// traced (sampled, or slow-log armed), else nullptr.  Thread-safe.
  std::shared_ptr<RequestTrace> maybe_start(const char* kind, std::int64_t u,
                                            std::int64_t v, std::int64_t k);

  /// Route a finished trace: slow ring if total_us ≥ slow_us, else
  /// sampled ring if sampling picked it, else dropped.  Returns true when
  /// the trace landed in the slow ring.  Thread-safe.
  bool finish(std::shared_ptr<RequestTrace> trace);

  struct Stats {
    std::int64_t started = 0;  ///< traces created (= requests when slow log on)
    std::int64_t slow = 0;     ///< finished over the slow threshold (lifetime)
    std::int64_t sampled_kept = 0;
    std::int64_t dropped = 0;
  };
  Stats stats() const;

  /// Kept traces (slow ∪ sampled), sorted by start offset.
  std::vector<std::shared_ptr<const RequestTrace>> kept() const;

  /// Export the kept traces as one Chrome trace-event document: pid 1,
  /// one tid (= request id) per trace, the request as a root slice with
  /// its spans nested inside, log counters under the "capsp" meta key.
  void write_chrome_json(std::ostream& out) const;

 private:
  RequestTraceLogOptions options_;
  RequestTrace::Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::int64_t started_ = 0;
  std::int64_t slow_total_ = 0;
  std::int64_t sampled_kept_total_ = 0;
  std::int64_t dropped_ = 0;
  std::deque<std::shared_ptr<const RequestTrace>> slow_;
  std::deque<std::shared_ptr<const RequestTrace>> sampled_;
};

}  // namespace capsp
