// Service-level-objective tracking for the serving layer
// (docs/telemetry.md).
//
// Two objectives, the standard pair for a query service:
//
//   latency       of the requests that *succeeded*, a fraction
//                 `latency_target` must answer within `latency_ms`;
//   availability  of *all* requests (including admission rejections), a
//                 fraction `availability_target` must succeed.
//
// For each objective the tracker keeps lifetime good/total counts (the
// compliance ratio and how much error budget is left) and a sliding
// window of good/bad events (util/metrics RollingHistogram, observing
// bad?1:0 so the window mean *is* the bad fraction).  The headline signal
// is the burn rate — windowed bad fraction over the allowed bad fraction
// (1 − target): 1.0 means failing at exactly the budgeted pace, above
// 1.0 the budget is burning faster than it accrues.  DistanceService
// surfaces the snapshot in its summary JSON and /stats.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "util/metrics.hpp"

namespace capsp {

class JsonWriter;

struct SloOptions {
  /// Latency objective threshold; 0 disables the latency objective.
  double latency_ms = 0;
  double latency_target = 0.99;
  double availability_target = 0.999;
  /// Burn-rate window.
  double window_seconds = 60;
};

class SloTracker {
 public:
  using Clock = std::chrono::steady_clock;

  /// Slices of the burn-rate window.
  static constexpr int kWindowSlices = 12;

  explicit SloTracker(SloOptions options = {},
                      Clock::time_point epoch = Clock::now());

  const SloOptions& options() const { return options_; }

  /// One finished request: `ok` is the structured outcome (admission
  /// rejections count, with latency_us ignored for the latency
  /// objective since they never executed).
  void record(bool ok, double latency_us) {
    record(ok, latency_us, Clock::now());
  }
  void record(bool ok, double latency_us, Clock::time_point now);

  struct Objective {
    bool enabled = false;
    double target = 0;
    std::int64_t total = 0;           ///< lifetime events
    std::int64_t good = 0;            ///< lifetime within-objective events
    double compliance = 1.0;          ///< good/total (1 when empty)
    /// Lifetime budget left: 1 = untouched, 0 = exhausted, negative =
    /// overspent.  (1 − compliance) / (1 − target) subtracted from 1.
    double budget_remaining = 1.0;
    std::int64_t window_total = 0;
    double window_bad_fraction = 0;
    double burn_rate = 0;  ///< window_bad_fraction / (1 − target)
  };
  struct Snapshot {
    Objective latency;
    Objective availability;
  };
  Snapshot snapshot() const { return snapshot(Clock::now()); }
  Snapshot snapshot(Clock::time_point now) const;

 private:
  SloOptions options_;
  mutable std::mutex mutex_;
  std::int64_t latency_total_ = 0, latency_good_ = 0;
  std::int64_t avail_total_ = 0, avail_good_ = 0;
  RollingHistogram latency_bad_;  ///< observes bad?1:0 per ok request
  RollingHistogram avail_bad_;    ///< observes bad?1:0 per request
};

/// Emit `"key": {...}`, one objective of a snapshot, into an open JSON
/// object (the summary's slo sections, per service and per tier).
void write_slo_objective(JsonWriter& json, const char* key,
                         const SloTracker::Objective& o);

}  // namespace capsp
