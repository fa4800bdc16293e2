#include "serve/tiered.hpp"

#include <algorithm>
#include <chrono>
#include <queue>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

using Clock = std::chrono::steady_clock;

double to_micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void write_latency(JsonWriter& json, const Histogram& h) {
  json.key("latency_us");
  json.begin_object();
  json.field("count", h.count);
  json.field("mean", h.mean());
  json.field("p50", h.percentile(0.50));
  json.field("p95", h.percentile(0.95));
  json.field("p99", h.percentile(0.99));
  json.field("max", h.count > 0 ? h.max : 0.0);
  json.end_object();
}

/// Observed gaps travel through the registry as integer parts-per-million
/// so the log₂ histogram buckets resolve small ratios; the summary
/// renders them back as ratios.
double gap_to_ppm(double gap) {
  if (gap >= 1e6) return 1e12;  // effectively-unbounded gap, keep finite
  return gap * 1e6;
}

}  // namespace

const char* to_string(Tier tier) {
  return tier == Tier::kApprox ? "approx" : "exact";
}

const char* to_string(TierMode mode) {
  switch (mode) {
    case TierMode::kApprox: return "approx";
    case TierMode::kExact: return "exact";
    case TierMode::kAuto: return "auto";
  }
  return "auto";
}

bool parse_tier_mode(const std::string& name, TierMode* out) {
  if (name == "approx") *out = TierMode::kApprox;
  else if (name == "exact") *out = TierMode::kExact;
  else if (name == "auto") *out = TierMode::kAuto;
  else return false;
  return true;
}

TieredDistanceService::TieredDistanceService(
    DistanceService& exact, std::shared_ptr<const LandmarkSketch> sketch,
    TieredOptions options)
    : exact_(exact),
      sketch_(std::move(sketch)),
      options_(options),
      approx_slo_(SloOptions{.latency_ms = 1}),
      exact_slo_(SloOptions{.latency_ms = 100}) {
  CAPSP_CHECK_MSG(options_.stretch_budget >= 0,
                  "stretch_budget must be >= 0, got "
                      << options_.stretch_budget);
  sketch_usable_ =
      sketch_ != nullptr && sketch_->num_landmarks() > 0 &&
      sketch_->n == static_cast<std::int64_t>(exact_.num_vertices()) &&
      static_cast<std::int64_t>(sketch_->rows.size()) ==
          sketch_->num_landmarks() * sketch_->n;
  if (!sketch_usable_)
    CAPSP_LOG(kWarn, "serve.tier.sketch_unusable",
              {"landmarks", sketch_ != nullptr ? sketch_->num_landmarks()
                                               : std::int64_t{0}},
              {"sketch_n", sketch_ != nullptr ? sketch_->n : std::int64_t{0}},
              {"graph_n", static_cast<std::int64_t>(exact_.num_vertices())});
  exact_.metrics_registry().gauge_set(
      "serve.tier.landmarks",
      sketch_usable_ ? static_cast<double>(sketch_->num_landmarks()) : 0.0);
  exact_.set_summary_extension(
      this, [this](JsonWriter& json) { write_summary(json); });
}

TieredDistanceService::~TieredDistanceService() {
  exact_.clear_summary_extension(this);
}

template <typename Reply, typename Approx, typename Exact>
Reply TieredDistanceService::route(const char* trace_kind, Vertex u, Vertex v,
                                   int k, Approx approx, Exact exact) {
  MetricsRegistry& registry = exact_.metrics_registry();
  const auto answer_exact = [&](bool escalated) {
    registry.counter_add("serve.tier.request.exact");
    const auto start = Clock::now();
    Reply out = exact();
    const double latency_us = to_micros(Clock::now() - start);
    registry.observe("serve.tier.exact.latency_us", latency_us);
    exact_slo_.record(out.error == ServeError::kOk, latency_us);
    out.tier = Tier::kExact;
    out.escalated = escalated;
    return out;
  };
  const auto escalate = [&](const char* reason_counter, const char* reason) {
    registry.counter_add("serve.tier.escalated");
    registry.counter_add(reason_counter);
    // kDebug lands in the flight-recorder ring even when the sink is
    // quiet, so a post-mortem dump shows the escalations leading up to a
    // crash.
    CAPSP_LOG(kDebug, "serve.tier.escalate", {"reason", reason},
              {"u", static_cast<std::int64_t>(u)},
              {"v", static_cast<std::int64_t>(v)});
    return answer_exact(/*escalated=*/true);
  };
  const auto record_approx = [&](ServeError error, double latency_us) {
    registry.counter_add("serve.tier.request.approx");
    if (error != ServeError::kOk)
      registry.counter_add("serve.tier.approx.degraded");
    registry.observe("serve.tier.approx.latency_us", latency_us);
    approx_slo_.record(error == ServeError::kOk, latency_us);
  };

  const TierMode mode = options_.mode;
  if (mode == TierMode::kExact) return answer_exact(/*escalated=*/false);
  if (sketch_degraded()) {
    if (mode == TierMode::kAuto)
      return escalate("serve.tier.escalated.degraded", "degraded");
    record_approx(ServeError::kDegraded, 0);
    Reply out;
    out.error = ServeError::kDegraded;
    out.tier = Tier::kApprox;
    return out;
  }
  const auto start = Clock::now();
  std::shared_ptr<RequestTrace> trace =
      exact_.trace_log().maybe_start(trace_kind, u, v, k);
  if (trace != nullptr) trace->mark_dequeued();  // no queue on this tier
  double gap = 0;
  Reply out = approx(trace.get(), &gap);
  const bool escalated =
      mode == TierMode::kAuto && gap > options_.stretch_budget;
  if (!escalated) {
    record_approx(ServeError::kOk, to_micros(Clock::now() - start));
    registry.observe("serve.tier.gap_ppm", gap_to_ppm(gap));
  }
  if (trace != nullptr) {
    trace->finish(escalated ? "escalated" : "ok");
    exact_.trace_log().finish(std::move(trace));
  }
  if (escalated) return escalate("serve.tier.escalated.gap", "gap");
  out.tier = Tier::kApprox;
  return out;
}

TieredDistanceReply TieredDistanceService::distance(Vertex u, Vertex v,
                                                    double deadline_seconds) {
  return route<TieredDistanceReply>(
      "tier.approx", u, v, -1,
      [&](RequestTrace* trace, double* gap) {
        DistanceBound bound;
        {
          ScopedSpan span(trace, "sketch.bounds");
          bound = sketch_->bounds(u, v);
        }
        *gap = bound.gap();
        TieredDistanceReply out;
        out.estimate = bound.upper;
        out.lower_bound = bound.lower;
        out.upper_bound = bound.upper;
        return out;
      },
      [&] {
        const DistanceReply reply = exact_.distance(u, v, deadline_seconds);
        TieredDistanceReply out;
        out.error = reply.error;
        if (reply.error == ServeError::kOk)
          out.estimate = out.lower_bound = out.upper_bound = reply.distance;
        return out;
      });
}

TieredKNearestReply TieredDistanceService::k_nearest(Vertex u, int k,
                                                     double deadline_seconds) {
  return route<TieredKNearestReply>(
      "tier.knear", u, -1, k,
      [&](RequestTrace* trace, double* gap) {
        // One pass of upper bounds from u, then the same (distance, id)
        // max-heap selection the exact tier uses, so the two orders agree.
        std::vector<Dist> upper;
        std::priority_queue<std::pair<Dist, Vertex>> heap;
        {
          ScopedSpan span(trace, "sketch.scan");
          sketch_->upper_bounds_from(u, upper);
          for (Vertex v = 0; v < static_cast<Vertex>(upper.size()); ++v) {
            const Dist d = upper[static_cast<std::size_t>(v)];
            if (v == u || is_inf(d)) continue;
            if (static_cast<int>(heap.size()) < k) {
              heap.emplace(d, v);
            } else if (k > 0 && std::pair<Dist, Vertex>(d, v) < heap.top()) {
              heap.pop();
              heap.emplace(d, v);
            }
          }
        }
        TieredKNearestReply out;
        out.nearest.resize(heap.size());
        for (std::size_t i = heap.size(); i-- > 0;) {
          out.nearest[i] = {heap.top().second, heap.top().first};
          heap.pop();
        }
        // A top-k is as loose as its loosest neighbor.
        for (const NearVertex& near : out.nearest)
          *gap = std::max(*gap, sketch_->bounds(u, near.vertex).gap());
        return out;
      },
      [&] {
        KNearestReply reply = exact_.k_nearest(u, k, deadline_seconds);
        TieredKNearestReply out;
        out.error = reply.error;
        out.nearest = std::move(reply.nearest);
        return out;
      });
}

TieredDistanceService::Stats TieredDistanceService::stats() const {
  const MetricsSnapshot metrics = exact_.metrics_snapshot();
  Stats s;
  s.approx = counter_value(metrics, "serve.tier.request.approx");
  s.exact = counter_value(metrics, "serve.tier.request.exact");
  s.escalated = counter_value(metrics, "serve.tier.escalated");
  s.escalated_gap = counter_value(metrics, "serve.tier.escalated.gap");
  s.escalated_degraded =
      counter_value(metrics, "serve.tier.escalated.degraded");
  return s;
}

void TieredDistanceService::write_summary(JsonWriter& json) const {
  const MetricsSnapshot metrics = exact_.metrics_snapshot();
  const auto counter = [&metrics](const std::string& name) {
    return counter_value(metrics, name);
  };
  const auto histogram = [&metrics](const std::string& name) -> Histogram {
    const auto it = metrics.find(name);
    return it == metrics.end() ? Histogram{} : it->second.histogram;
  };
  const std::int64_t approx = counter("serve.tier.request.approx");
  const std::int64_t exact = counter("serve.tier.request.exact");
  const std::int64_t escalated = counter("serve.tier.escalated");
  json.begin_object();
  json.field("mode", to_string(options_.mode));
  json.field("stretch_budget", options_.stretch_budget);
  json.field("landmarks",
             sketch_ != nullptr ? sketch_->num_landmarks() : std::int64_t{0});
  json.field("degraded", sketch_degraded());

  const SloTracker::Snapshot approx_slo = approx_slo_.snapshot();
  json.key("approx");
  json.begin_object();
  json.field("requests", approx);
  json.field("degraded_replies", counter("serve.tier.approx.degraded"));
  write_latency(json, histogram("serve.tier.approx.latency_us"));
  json.key("slo");
  json.begin_object();
  write_slo_objective(json, "latency", approx_slo.latency);
  write_slo_objective(json, "availability", approx_slo.availability);
  json.end_object();
  json.end_object();

  const SloTracker::Snapshot exact_slo = exact_slo_.snapshot();
  json.key("exact");
  json.begin_object();
  json.field("requests", exact);
  write_latency(json, histogram("serve.tier.exact.latency_us"));
  json.key("slo");
  json.begin_object();
  write_slo_objective(json, "latency", exact_slo.latency);
  write_slo_objective(json, "availability", exact_slo.availability);
  json.end_object();
  json.end_object();

  json.key("escalated");
  json.begin_object();
  json.field("count", escalated);
  const std::int64_t routed = approx + escalated;
  json.field("rate", routed > 0
                         ? static_cast<double>(escalated) /
                               static_cast<double>(routed)
                         : 0.0);
  json.key("by_reason");
  json.begin_object();
  json.field("gap", counter("serve.tier.escalated.gap"));
  json.field("degraded", counter("serve.tier.escalated.degraded"));
  json.end_object();
  json.end_object();

  // Observed stretch: the relative width of the intervals the approx
  // tier actually served, as a ratio (0 = answered exactly).
  const Histogram gaps = histogram("serve.tier.gap_ppm");
  json.key("stretch");
  json.begin_object();
  json.field("observed", gaps.count);
  json.field("mean_gap", gaps.mean() / 1e6);
  json.field("p50_gap", gaps.percentile(0.50) / 1e6);
  json.field("p99_gap", gaps.percentile(0.99) / 1e6);
  json.field("max_gap", gaps.count > 0 ? gaps.max / 1e6 : 0.0);
  json.end_object();
  json.end_object();
}

}  // namespace capsp
