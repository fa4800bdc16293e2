#include "serve/reqtrace.hpp"

#include <algorithm>
#include <utility>

#include "machine/trace_export.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace capsp {

namespace {
double to_micros(RequestTrace::Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
}  // namespace

RequestTrace::RequestTrace(std::int64_t id, const char* kind, std::int64_t u,
                           std::int64_t v, std::int64_t k, bool sampled,
                           Clock::time_point epoch)
    : id_(id), kind_(kind), u_(u), v_(v), k_(k), sampled_(sampled),
      start_(Clock::now()) {
  start_offset_us_ = to_micros(start_ - epoch);
  begin_span("queue_wait", start_);
}

double RequestTrace::offset_us(Clock::time_point now) const {
  return to_micros(now - start_);
}

std::int64_t RequestTrace::begin_span(const char* name,
                                      Clock::time_point now) {
  TraceSpan span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = offset_us(now);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void RequestTrace::end_span(std::int64_t span, Clock::time_point now) {
  CAPSP_CHECK_MSG(span >= 0 &&
                      span < static_cast<std::int64_t>(spans_.size()),
                  "end_span(" << span << ") without a matching begin_span");
  spans_[static_cast<std::size_t>(span)].end_us = offset_us(now);
  // Spans close innermost-first (ScopedSpan guarantees it); tolerate an
  // out-of-order close by popping through it so the stack stays sane.
  while (!open_.empty()) {
    const std::int64_t top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

void RequestTrace::set_span_name(std::int64_t span, const char* name) {
  spans_[static_cast<std::size_t>(span)].name = name;
}

void RequestTrace::set_span_detail(std::int64_t span,
                                   const char* detail_name,
                                   std::int64_t detail) {
  spans_[static_cast<std::size_t>(span)].detail_name = detail_name;
  spans_[static_cast<std::size_t>(span)].detail = detail;
}

void RequestTrace::mark_dequeued(Clock::time_point now) {
  if (!spans_.empty() && spans_.front().end_us < 0) end_span(0, now);
  begin_span("execute", now);
}

void RequestTrace::finish(const char* outcome, Clock::time_point now) {
  outcome_ = outcome;
  total_us_ = offset_us(now);
  while (!open_.empty()) end_span(open_.back(), now);
}

RequestTraceLog::RequestTraceLog(RequestTraceLogOptions options)
    : options_(options), epoch_(RequestTrace::Clock::now()) {
  CAPSP_CHECK_MSG(options_.sample_every >= 0,
                  "trace sample_every must be >= 0, got "
                      << options_.sample_every);
  CAPSP_CHECK_MSG(options_.slow_us >= 0,
                  "trace slow_us must be >= 0, got " << options_.slow_us);
  CAPSP_CHECK_MSG(options_.keep >= 1, "trace ring capacity must be >= 1");
}

std::shared_ptr<RequestTrace> RequestTraceLog::maybe_start(
    const char* kind, std::int64_t u, std::int64_t v, std::int64_t k) {
  if (!enabled()) return nullptr;
  std::int64_t id = 0;
  bool sampled = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = ++started_;
    sampled =
        options_.sample_every > 0 && (id - 1) % options_.sample_every == 0;
  }
  // The slow log needs the span tree of *every* request — whether one was
  // slow is only known at finish, so sampling can't prune up front.
  if (!sampled && options_.slow_us <= 0) return nullptr;
  return std::make_shared<RequestTrace>(id, kind, u, v, k, sampled, epoch_);
}

bool RequestTraceLog::finish(std::shared_ptr<RequestTrace> trace) {
  if (trace == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.slow_us > 0 && trace->total_us() >= options_.slow_us) {
    ++slow_total_;
    slow_.push_back(std::move(trace));
    if (slow_.size() > kSlowKeep) slow_.pop_front();
    return true;
  }
  if (trace->sampled()) {
    ++sampled_kept_total_;
    sampled_.push_back(std::move(trace));
    if (sampled_.size() > options_.keep) sampled_.pop_front();
    return false;
  }
  ++dropped_;
  return false;
}

RequestTraceLog::Stats RequestTraceLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.started = started_;
  stats.slow = slow_total_;
  stats.sampled_kept = sampled_kept_total_;
  stats.dropped = dropped_;
  return stats;
}

std::vector<std::shared_ptr<const RequestTrace>> RequestTraceLog::kept()
    const {
  std::vector<std::shared_ptr<const RequestTrace>> traces;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    traces.reserve(slow_.size() + sampled_.size());
    traces.insert(traces.end(), slow_.begin(), slow_.end());
    traces.insert(traces.end(), sampled_.begin(), sampled_.end());
  }
  std::sort(traces.begin(), traces.end(),
            [](const auto& a, const auto& b) {
              return a->start_offset_us() != b->start_offset_us()
                         ? a->start_offset_us() < b->start_offset_us()
                         : a->id() < b->id();
            });
  return traces;
}

void RequestTraceLog::write_chrome_json(std::ostream& out) const {
  const auto traces = kept();
  const Stats log_stats = stats();
  ChromeTraceWriter writer(out);
  writer.process_name(1, "capsp serve");
  for (const auto& trace : traces) {
    const std::int64_t tid = trace->id();
    writer.thread_name(
        1, tid, "req " + std::to_string(trace->id()) + " " + trace->kind());
    // Root slice: the whole request.  Spans nest inside it by time
    // containment on the same track, which is how Perfetto builds the
    // tree — a span's dur can never exceed its parent's because finish()
    // clamps open spans to the request end.
    JsonWriter& json = writer.begin_event(trace->kind(), "request", "X", 1,
                                          tid, trace->start_offset_us());
    json.field("dur", trace->total_us());
    json.key("args");
    json.begin_object();
    json.field("outcome", trace->outcome());
    json.field("u", trace->u());
    if (trace->v() >= 0) json.field("v", trace->v());
    if (trace->k() >= 0) json.field("k", trace->k());
    json.field("sampled", trace->sampled());
    json.end_object();
    writer.end_event();
    for (const TraceSpan& span : trace->spans()) {
      const double end =
          span.end_us < 0 ? trace->total_us() : span.end_us;
      JsonWriter& sj = writer.begin_event(
          span.name, "span", "X", 1, tid,
          trace->start_offset_us() + span.start_us);
      sj.field("dur", std::max(0.0, end - span.start_us));
      if (span.detail_name != nullptr) {
        sj.key("args");
        sj.begin_object();
        sj.field(span.detail_name, span.detail);
        sj.end_object();
      }
      writer.end_event();
    }
  }
  JsonWriter& meta = writer.begin_meta();
  meta.field("reqtrace", true);
  meta.field("traces", static_cast<std::int64_t>(traces.size()));
  meta.field("started", log_stats.started);
  meta.field("slow", log_stats.slow);
  meta.field("sampled_kept", log_stats.sampled_kept);
  meta.field("dropped", log_stats.dropped);
  meta.field("sample_every", options_.sample_every);
  meta.field("slow_us", options_.slow_us);
  writer.close();
}

}  // namespace capsp
