#include "serve/slo.hpp"

#include "util/check.hpp"
#include "util/json.hpp"

namespace capsp {
namespace {

SloOptions validated(SloOptions options) {
  CAPSP_CHECK_MSG(options.latency_ms >= 0,
                  "SLO latency_ms must be >= 0, got " << options.latency_ms);
  CAPSP_CHECK_MSG(options.latency_target > 0 && options.latency_target < 1,
                  "SLO latency_target must be in (0,1), got "
                      << options.latency_target);
  CAPSP_CHECK_MSG(
      options.availability_target > 0 && options.availability_target < 1,
      "SLO availability_target must be in (0,1), got "
          << options.availability_target);
  return options;
}

}  // namespace

SloTracker::SloTracker(SloOptions options, Clock::time_point epoch)
    : options_(validated(options)),
      latency_bad_(options_.window_seconds, kWindowSlices, epoch),
      avail_bad_(options_.window_seconds, kWindowSlices, epoch) {}

void SloTracker::record(bool ok, double latency_us, Clock::time_point now) {
  const bool latency_enabled = options_.latency_ms > 0;
  const bool within =
      latency_enabled && latency_us <= options_.latency_ms * 1000.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++avail_total_;
    if (ok) {
      ++avail_good_;
      if (latency_enabled) {
        ++latency_total_;
        if (within) ++latency_good_;
      }
    }
  }
  avail_bad_.observe(ok ? 0.0 : 1.0, now);
  if (latency_enabled && ok) latency_bad_.observe(within ? 0.0 : 1.0, now);
}

SloTracker::Snapshot SloTracker::snapshot(Clock::time_point now) const {
  const auto objective = [](bool enabled, double target, std::int64_t total,
                            std::int64_t good, const WindowStats& window) {
    Objective o;
    o.enabled = enabled;
    o.target = target;
    o.total = total;
    o.good = good;
    o.compliance =
        total > 0 ? static_cast<double>(good) / static_cast<double>(total)
                  : 1.0;
    o.budget_remaining = 1.0 - (1.0 - o.compliance) / (1.0 - target);
    o.window_total = window.count;
    // The window observes bad?1:0, so its mean is the bad fraction.
    o.window_bad_fraction = window.count > 0 ? window.mean : 0.0;
    o.burn_rate = o.window_bad_fraction / (1.0 - target);
    return o;
  };

  std::int64_t latency_total = 0, latency_good = 0;
  std::int64_t avail_total = 0, avail_good = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    latency_total = latency_total_;
    latency_good = latency_good_;
    avail_total = avail_total_;
    avail_good = avail_good_;
  }
  Snapshot snapshot;
  snapshot.latency =
      objective(options_.latency_ms > 0, options_.latency_target,
                latency_total, latency_good, latency_bad_.stats(now));
  snapshot.availability =
      objective(true, options_.availability_target, avail_total, avail_good,
                avail_bad_.stats(now));
  return snapshot;
}

void write_slo_objective(JsonWriter& json, const char* key,
                         const SloTracker::Objective& o) {
  json.key(key);
  json.begin_object();
  json.field("enabled", o.enabled);
  json.field("target", o.target);
  json.field("total", o.total);
  json.field("good", o.good);
  json.field("compliance", o.compliance);
  json.field("budget_remaining", o.budget_remaining);
  json.field("window_total", o.window_total);
  json.field("window_bad_fraction", o.window_bad_fraction);
  json.field("burn_rate", o.burn_rate);
  json.end_object();
}

}  // namespace capsp
