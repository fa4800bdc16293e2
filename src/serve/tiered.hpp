// TieredDistanceService: the approximate tier in front of the exact
// tile path (docs/serving.md, "Tiered serving"; ROADMAP item 3).
//
// The exact DistanceService pays queueing, tile IO, and cache pressure
// on every query.  A landmark sketch (src/approx) answers in
// O(#landmarks) arithmetic on the caller's thread — no queue, no tile,
// no lock — with a certified interval lower ≤ exact ≤ upper.  This
// front-end decides per request which tier answers:
//
//   kExact   always the tile path (the reply carries the exact value);
//   kApprox  always the sketch (kDegraded when the sketch is unusable);
//   kAuto    the sketch, escalating to the tile path when
//              * the interval's relative gap exceeds the stretch budget,
//              * or the sketch is degraded (missing, empty, or wrong n).
//
// Every reply says which tier produced it and carries the bounds, so a
// caller can tell "exact", "approximate but certified within budget",
// and "escalated" apart.  Escalations, per-tier latencies, and observed
// gaps land in the underlying service's own MetricsRegistry
// (`serve.tier.*`) and summary document, each tier gets its own
// SloTracker, approx answers draw tier spans from the shared
// RequestTraceLog, and escalations leave flight-recorder events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "approx/sketch.hpp"
#include "serve/service.hpp"
#include "serve/slo.hpp"

namespace capsp {

class JsonWriter;

/// Which tier produced a reply.
enum class Tier { kApprox = 0, kExact = 1 };

/// Per-service tier policy.
enum class TierMode { kApprox = 0, kExact = 1, kAuto = 2 };

const char* to_string(Tier tier);
const char* to_string(TierMode mode);
/// "approx" | "exact" | "auto" → mode; false on anything else (so tools
/// can reject bad flags with a usage error instead of a crash).
bool parse_tier_mode(const std::string& name, TierMode* out);

struct TieredOptions {
  TierMode mode = TierMode::kAuto;
  /// Escalate (in kAuto) when (upper - lower) / lower exceeds this.
  /// 0.25 = accept answers certified within 25% of the true distance.
  double stretch_budget = 0.25;
};

/// Tiered reply: the estimate plus its certificate.  On the approx tier
/// `estimate == upper_bound` (an overestimate never undershoots a
/// deadline-style consumer); on the exact tier all three coincide.
struct TieredDistanceReply {
  ServeError error = ServeError::kOk;
  Dist estimate = kInf;
  Dist lower_bound = 0;  ///< an errored reply certifies nothing
  Dist upper_bound = kInf;
  Tier tier = Tier::kApprox;
  bool escalated = false;  ///< kAuto only: the sketch answered and was rejected
};

struct TieredKNearestReply {
  ServeError error = ServeError::kOk;
  /// Sorted by (distance, vertex id) — the deterministic order both
  /// tiers share, so approx-vs-exact comparisons are stable.
  std::vector<NearVertex> nearest;
  Tier tier = Tier::kApprox;
  bool escalated = false;
};

class TieredDistanceService {
 public:
  /// Wraps `exact` (not owned; must outlive this object).  A null or
  /// mismatched sketch (wrong n) marks the approx tier degraded rather
  /// than failing construction, so a serving stack can come up exact-only
  /// and gain the fast tier when a sketch arrives.  Registers `serve.tier.*`
  /// metrics and the summary "tier" section on the wrapped service.
  TieredDistanceService(DistanceService& exact,
                        std::shared_ptr<const LandmarkSketch> sketch,
                        TieredOptions options = {});
  ~TieredDistanceService();
  TieredDistanceService(const TieredDistanceService&) = delete;
  TieredDistanceService& operator=(const TieredDistanceService&) = delete;

  const TieredOptions& options() const { return options_; }
  const LandmarkSketch* sketch() const { return sketch_.get(); }

  /// The approx tier is unusable: no sketch, an empty one, or a
  /// vertex-count mismatch.  kAuto escalates every query; kApprox
  /// answers kDegraded.
  bool sketch_degraded() const { return !sketch_usable_; }

  /// Answer under the service's mode.  `deadline_seconds` applies to the
  /// exact path only (the sketch path cannot block); <= 0 means none.
  TieredDistanceReply distance(Vertex u, Vertex v,
                               double deadline_seconds = 0);

  /// k-nearest: one O(L·n) upper-bound scan on the approx tier, selected
  /// by (distance, id).  The answer's gap is the widest interval among
  /// the selected neighbors, so in kAuto the whole query escalates when
  /// any of them exceeds the budget — a partially certified top-k is not
  /// a top-k.
  TieredKNearestReply k_nearest(Vertex u, int k, double deadline_seconds = 0);

  SloTracker::Snapshot approx_slo_snapshot() const {
    return approx_slo_.snapshot();
  }

  /// Deterministic per-tier totals (mirrors the serve.tier.* counters).
  struct Stats {
    std::int64_t approx = 0;     ///< requests answered by the sketch
    std::int64_t exact = 0;      ///< requests answered by the tile path
    std::int64_t escalated = 0;  ///< kAuto sketch answers rejected
    std::int64_t escalated_gap = 0;
    std::int64_t escalated_degraded = 0;
  };
  Stats stats() const;

  /// The "tier" section of the serve summary document: mode and budget,
  /// per-tier request counts / latency percentiles / SLO objectives,
  /// escalation counts by reason, and the observed stretch-gap
  /// distribution.  Installed as a summary hook on the wrapped service
  /// from construction to destruction; of several live front ends, the
  /// newest writes the section of /stats.json and --summary-json.
  void write_summary(JsonWriter& json) const;

 private:
  /// The one routing path of both query kinds: the mode and
  /// degraded-sketch checks, the approx tier's trace (`trace_kind`, u, v,
  /// k), the stretch budget, and then either the approx record or an
  /// escalation.  `approx(trace, &gap)` answers from the sketch and
  /// widens `gap` (starting at 0) to the widest interval it served;
  /// `exact()` asks the wrapped service.
  template <typename Reply, typename Approx, typename Exact>
  Reply route(const char* trace_kind, Vertex u, Vertex v, int k,
              Approx approx, Exact exact);

  DistanceService& exact_;
  std::shared_ptr<const LandmarkSketch> sketch_;
  TieredOptions options_;
  bool sketch_usable_ = false;  ///< shape checks done once at construction
  /// Per-tier objectives: the approximate tier is held to a much tighter
  /// latency target (1 ms against the exact tier's 100 ms) — that
  /// asymmetry is the tier's reason to exist, and the per-tier SLO makes
  /// it measurable.
  SloTracker approx_slo_;
  SloTracker exact_slo_;
};

}  // namespace capsp
