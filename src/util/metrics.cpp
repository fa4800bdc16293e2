#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/json.hpp"

namespace capsp {
namespace {

/// Bucket index for a value: 0 for v ≤ 1 (and non-finite junk), else
/// ceil(log₂ v) clamped to the table.  Powers of two land exactly on
/// their own bucket boundary (IEEE log2 is exact there).
int bucket_of(double value) {
  if (!(value > 1.0)) return 0;
  const double b = std::ceil(std::log2(value));
  if (b >= static_cast<double>(Histogram::kBuckets - 1)) {
    return Histogram::kBuckets - 1;
  }
  return static_cast<int>(b);
}

/// FNV-1a over the name picks the shard; stable across platforms so
/// contention behaviour is reproducible.
std::size_t shard_index(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % MetricsRegistry::kShards);
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

thread_local MetricsRegistry* tl_sink = nullptr;

}  // namespace

void Histogram::observe(double value) {
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
  ++buckets[static_cast<std::size_t>(bucket_of(value))];
}

void Histogram::merge(const Histogram& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

double Histogram::percentile(double q) const {
  if (count == 0) return 0.0;
  const double target = std::max(1.0, std::ceil(q * static_cast<double>(count)));
  std::int64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target) {
      const double upper = std::ldexp(1.0, b);  // 2^b; bucket 0 tops at 1
      return std::clamp(upper, min, max);
    }
  }
  return max;
}

RollingHistogram::RollingHistogram(double window_seconds, int slices,
                                   Clock::time_point epoch)
    : num_slices_(slices), epoch_(epoch) {
  CAPSP_CHECK_MSG(window_seconds > 0,
                  "window_seconds must be > 0, got " << window_seconds);
  CAPSP_CHECK_MSG(slices >= 1, "window needs >= 1 slice, got " << slices);
  slice_seconds_ = window_seconds / slices;
  slices_.resize(static_cast<std::size_t>(slices));
}

std::int64_t RollingHistogram::slice_of(Clock::time_point now) const {
  const double elapsed =
      std::chrono::duration<double>(now - epoch_).count();
  if (elapsed <= 0) return 0;
  return static_cast<std::int64_t>(elapsed / slice_seconds_);
}

void RollingHistogram::observe(double value, Clock::time_point now) {
  const std::int64_t s = slice_of(now);
  const std::lock_guard<std::mutex> lock(mutex_);
  Slice& slice = slices_[static_cast<std::size_t>(
      s % static_cast<std::int64_t>(slices_.size()))];
  if (slice.index != s) {
    // Lazy rotation: this slot last held an expired slice; recycle it.
    slice.index = s;
    slice.hist = Histogram{};
  }
  slice.hist.observe(value);
}

WindowStats RollingHistogram::stats(Clock::time_point now) const {
  const std::int64_t s = slice_of(now);
  Histogram merged;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Slice& slice : slices_) {
      // Inside the window ending at `now`: the current slice and the
      // num_slices-1 before it.  Slots holding older (or never-written)
      // indices are expired and excluded.
      if (slice.index < 0 || slice.index > s ||
          slice.index <= s - static_cast<std::int64_t>(slices_.size()))
        continue;
      merged.merge(slice.hist);
    }
  }
  WindowStats stats;
  stats.count = merged.count;
  const double elapsed =
      std::chrono::duration<double>(now - epoch_).count();
  // Early in a run the window is not yet full; dividing by the full
  // window would understate the rate, so cover only elapsed time (but at
  // least one slice, so a burst in the first instant is not infinite).
  stats.covered_seconds = std::clamp(elapsed, slice_seconds_,
                                     slice_seconds_ * num_slices_);
  stats.rate_per_second =
      static_cast<double>(merged.count) / stats.covered_seconds;
  if (merged.count > 0) {
    stats.mean = merged.mean();
    stats.min = merged.min;
    stats.max = merged.max;
    stats.p50 = merged.percentile(0.50);
    stats.p95 = merged.percentile(0.95);
    stats.p99 = merged.percentile(0.99);
  }
  return stats;
}

MetricsRegistry::Shard& MetricsRegistry::shard_for(std::string_view name) {
  return shards_[shard_index(name)];
}

Metric& MetricsRegistry::slot(Shard& shard, std::string_view name,
                              MetricKind kind) {
  auto it = shard.metrics.find(name);
  if (it == shard.metrics.end()) {
    it = shard.metrics.emplace(std::string(name), Metric{}).first;
    it->second.kind = kind;
  } else {
    CAPSP_CHECK_MSG(it->second.kind == kind,
                    "metric '" + std::string(name) + "' is a " +
                        kind_name(it->second.kind) + ", not a " +
                        kind_name(kind));
  }
  return it->second;
}

void MetricsRegistry::counter_add(std::string_view name, std::int64_t delta) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  slot(shard, name, MetricKind::kCounter).counter += delta;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  slot(shard, name, MetricKind::kGauge).gauge = value;
}

void MetricsRegistry::gauge_max(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  Metric& metric = slot(shard, name, MetricKind::kGauge);
  metric.gauge = std::max(metric.gauge, value);
}

void MetricsRegistry::observe(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  slot(shard, name, MetricKind::kHistogram).histogram.observe(value);
}

void MetricsRegistry::merge_histogram(std::string_view name,
                                      const Histogram& values) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  slot(shard, name, MetricKind::kHistogram).histogram.merge(values);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  CAPSP_CHECK_MSG(&other != this, "registry merge with itself");
  for (std::size_t s = 0; s < kShards; ++s) {
    // Names shard identically in every registry, so shard s merges into
    // shard s and two locks (ordered: source first) suffice.
    const std::lock_guard<std::mutex> source_lock(other.shards_[s].mutex);
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    for (const auto& [name, theirs] : other.shards_[s].metrics) {
      Metric& mine = slot(shards_[s], name, theirs.kind);
      switch (theirs.kind) {
        case MetricKind::kCounter: mine.counter += theirs.counter; break;
        case MetricKind::kGauge:
          mine.gauge = std::max(mine.gauge, theirs.gauge);
          break;
        case MetricKind::kHistogram: mine.histogram.merge(theirs.histogram); break;
      }
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, metric] : shard.metrics) out.emplace(name, metric);
  }
  return out;
}

void MetricsRegistry::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.metrics.clear();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() {
  return tl_sink != nullptr ? *tl_sink : MetricsRegistry::global();
}

ScopedMetricsSink::ScopedMetricsSink(MetricsRegistry& registry)
    : previous_(tl_sink) {
  tl_sink = &registry;
}

ScopedMetricsSink::~ScopedMetricsSink() { tl_sink = previous_; }

void write_metrics_fields(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.key("metrics");
  json.begin_object();
  for (const auto& [name, metric] : snapshot) {
    json.key(name);
    json.begin_object();
    json.field("kind", kind_name(metric.kind));
    switch (metric.kind) {
      case MetricKind::kCounter:
        json.field("value", metric.counter);
        break;
      case MetricKind::kGauge:
        json.field("value", metric.gauge);
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = metric.histogram;
        json.field("count", h.count);
        json.field("sum", h.sum);
        json.field("min", h.count > 0 ? h.min : 0.0);
        json.field("max", h.count > 0 ? h.max : 0.0);
        json.field("mean", h.mean());
        json.field("p50", h.percentile(0.50));
        json.field("p95", h.percentile(0.95));
        break;
      }
    }
    json.end_object();
  }
  json.end_object();
}

void write_metrics_json(std::ostream& out, const MetricsRegistry& registry) {
  JsonWriter json(out);
  json.begin_object();
  write_metrics_fields(json, registry.snapshot());
  json.end_object();
  out << "\n";
}

}  // namespace capsp
