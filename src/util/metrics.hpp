// Lock-sharded metrics registry: counters, gauges, and log-scale
// histograms with cheap percentile estimates (docs/metrics.md).
//
// Every layer that wants to count something (partitioner, semiring
// kernels, superFW, the comm fabric itself) may be running on any rank.
// Each rank gets its own registry for the duration of `Machine::run` (the
// rank's context carries it, util/context.hpp), and the per-rank
// registries are merged into the caller's registry in rank order when the
// run ends — so cross-rank contention is limited to name-shard locks
// within one rank's registry, and the merged totals are deterministic for
// deterministic programs.
//
// Naming convention: `layer.component.metric`, e.g.
// `partition.nd.separator_size` or `machine.comm.frame_words`.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace capsp {

class JsonWriter;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Fixed-shape log₂ histogram.  Bucket 0 holds values ≤ 1; bucket b ≥ 1
/// holds (2^(b-1), 2^b]; the last bucket absorbs everything larger.
/// Exact min/max/sum/count ride along, so mean is exact and the
/// percentile estimate can be clamped into [min, max].
struct Histogram {
  static constexpr int kBuckets = 64;

  std::int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<std::int64_t, kBuckets> buckets{};

  void observe(double value);
  void merge(const Histogram& other);
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Upper bound of the first bucket whose cumulative count reaches
  /// q·count (q in [0, 1]), clamped into [min, max].  Exact for
  /// single-valued distributions; otherwise correct to within the 2×
  /// bucket resolution.
  double percentile(double q) const;
};

/// Aggregates over a sliding time window, as computed by
/// RollingHistogram::stats: everything a live telemetry endpoint wants to
/// show about "the last W seconds" without the cumulative histogram's
/// since-startup smearing.
struct WindowStats {
  std::int64_t count = 0;
  double rate_per_second = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Seconds of history the stats actually cover (≤ the configured
  /// window; shorter right after startup).
  double covered_seconds = 0.0;
};

/// Sliding-window histogram: a ring of `slices` log₂ Histograms, each
/// covering window_seconds/slices of wall time.  observe() lands a value
/// in the slice owning `now`; stats() merges the slices still inside the
/// window ending at `now` and derives quantiles and a rate.  Expired
/// slices are recycled lazily, so rotation is O(1) per observation.
///
/// Time is passed in explicitly (defaulting to steady_clock::now), which
/// makes the rotation logic deterministic under test: inject a fabricated
/// monotonic clock and the slice arithmetic is exact.  Timestamps must be
/// monotone non-decreasing; the steady clock guarantees that, and tests
/// must preserve it.
///
/// Thread-safe (one mutex; windows are read far less often than the
/// lock-sharded cumulative registry, so a single lock is fine).
class RollingHistogram {
 public:
  using Clock = std::chrono::steady_clock;

  explicit RollingHistogram(double window_seconds = 10.0, int slices = 10,
                            Clock::time_point epoch = Clock::now());

  double window_seconds() const { return slice_seconds_ * num_slices_; }

  void observe(double value) { observe(value, Clock::now()); }
  void observe(double value, Clock::time_point now);

  WindowStats stats() const { return stats(Clock::now()); }
  WindowStats stats(Clock::time_point now) const;

 private:
  struct Slice {
    std::int64_t index = -1;  ///< absolute slice number, -1 = never used
    Histogram hist;
  };

  std::int64_t slice_of(Clock::time_point now) const;

  double slice_seconds_ = 1.0;
  int num_slices_ = 10;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Slice> slices_;
};

/// One named metric.  The kind is fixed at first use; re-using a name
/// with a different kind is a CHECK failure.
struct Metric {
  MetricKind kind = MetricKind::kCounter;
  std::int64_t counter = 0;
  double gauge = 0.0;
  Histogram histogram;
};

/// Snapshot of a whole registry, sorted by name (map semantics make the
/// JSON output and test assertions order-stable).
using MetricsSnapshot = std::map<std::string, Metric>;

/// `name`'s counter in `snapshot`, or 0 when it has none (a counter
/// appears only once something has counted it).
std::int64_t counter_value(const MetricsSnapshot& snapshot,
                           const std::string& name);

class MetricsRegistry {
 public:
  static constexpr std::size_t kShards = 16;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void counter_add(std::string_view name, std::int64_t delta = 1);
  void gauge_set(std::string_view name, double value);
  /// Gauge variant keeping the maximum of all values set so far.
  void gauge_max(std::string_view name, double value);
  void observe(std::string_view name, double value);
  /// Merge a whole histogram of observations into `name` at once.
  void merge_histogram(std::string_view name, const Histogram& values);

  /// Add every metric of `other` into this registry (counters add,
  /// gauges keep the max, histograms merge).  Kind conflicts CHECK.
  void merge_from(const MetricsRegistry& other);

  MetricsSnapshot snapshot() const;
  void clear();

  /// Process-wide default sink (used when the installed context names
  /// no registry).
  static MetricsRegistry& global();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, Metric, std::less<>> metrics;
  };

  Shard& shard_for(std::string_view name);
  /// Find-or-create under the shard lock, CHECKing kind stability.
  Metric& slot(Shard& shard, std::string_view name, MetricKind kind);

  std::array<Shard, kShards> shards_;
};

/// The registry instrumentation points write to: the installed context's
/// (RankContext::metrics), else the global registry.
MetricsRegistry& metrics();

/// Emit `"metrics": { name: {...}, ... }` into an already-open JSON
/// object (composable with other sections, e.g. apsp_tool adds the
/// oracle comparison alongside).
void write_metrics_fields(JsonWriter& json, const MetricsSnapshot& snapshot);

/// Whole-document form: `{"metrics": {...}}`.
void write_metrics_json(std::ostream& out, const MetricsRegistry& registry);

}  // namespace capsp
