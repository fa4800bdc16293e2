// Structured, leveled logging — the fourth observability pillar
// (docs/observability.md, "Logs").
//
// Design constraints, in order:
//
//  1. Cheap when quiet.  A CAPSP_LOG below both the sink level and the
//     flight-recorder level costs one relaxed atomic load and a branch;
//     no fields are evaluated, no strings are built.  That is what lets
//     the call sites stay compiled into release builds and pass the
//     logging-overhead bench gate (CI, same pattern as the profiler's).
//
//  2. Structured.  Events carry a literal event name (dot-separated,
//     mirroring the metrics convention: "serve.retry", "machine.fault")
//     plus literal-key fields — never printf-formatted prose — so the
//     JSON-lines sink is machine-digestible (scripts/trace_summary.py
//     logs) and the human sink is still readable.
//
//  3. Correlated.  The installed rank context (util/context.hpp: rank,
//     phase, request id) is stamped on every event.  The machine layer
//     sets rank/phase for its ranks, the serving workers set the request
//     id from the in-flight RequestTrace, so a chaos run's log tells a
//     causal story across ranks and threads.
//
//  4. Rate-limited per call site.  Each CAPSP_LOG expansion owns a
//     static token bucket; a hot loop can keep its log line without
//     melting the sink.  Suppressed counts are reported on the next
//     emitted event ("suppressed": N), so nothing is silently lost.
//
// Every logged event is also recorded into the flight recorder's
// per-context ring (util/flightrec.hpp) when it meets the (lower) ring
// level, independent of whether the sink printed it — the ring is the
// black box, the sink is the live feed.
//
// Level policy: the sink defaults to off (library code stays silent
// under tests), but kError events always print to the sink — an error
// the user never sees is worse than a noisy one.  Tools wire
// --log-level/--log-json flags and the CAPSP_LOG_LEVEL / CAPSP_LOG_JSON
// environment variables to the global logger.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>

#include "util/context.hpp"

namespace capsp {

enum class LogLevel : std::int32_t {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,  ///< sink threshold only; never a level of an event
};

const char* to_string(LogLevel level);

/// Parses "trace" | "debug" | "info" | "warn" | "error" | "off"
/// (case-sensitive).  CHECK-fails on anything else, so a typoed
/// --log-level or CAPSP_LOG_LEVEL is a loud error, not silence.
LogLevel log_level_from_string(const std::string& name);

/// A small tagged value for one structured field.  Keys are expected to
/// be string literals; string values are copied (they may be
/// temporaries).
class LogValue {
 public:
  enum class Kind : std::uint8_t { kInt, kDouble, kBool, kString };

  /// Any integer type (except bool) narrows to int64.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  LogValue(T v)                                                   // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  LogValue(double v) : kind_(Kind::kDouble), double_(v) {}        // NOLINT
  LogValue(bool v) : kind_(Kind::kBool), bool_(v) {}              // NOLINT
  LogValue(const char* v) : kind_(Kind::kString), string_(v) {}   // NOLINT
  LogValue(const std::string& v)                                  // NOLINT
      : kind_(Kind::kString), string_(v) {}

  Kind kind() const { return kind_; }
  std::int64_t as_int() const { return int_; }
  double as_double() const { return double_; }
  bool as_bool() const { return bool_; }
  const std::string& as_string() const { return string_; }

 private:
  Kind kind_;
  std::int64_t int_ = 0;
  double double_ = 0;
  bool bool_ = false;
  std::string string_;
};

struct LogField {
  const char* key;  ///< string literal
  LogValue value;
};

/// Stamps the in-flight request id on the installed rank context
/// (util/context.hpp) for the scope's lifetime (serving workers).
class LogRequestScope {
 public:
  explicit LogRequestScope(std::int64_t request_id)
      : previous_(current_context().request_id) {
    current_context().request_id = request_id;
  }
  ~LogRequestScope() { current_context().request_id = previous_; }
  LogRequestScope(const LogRequestScope&) = delete;
  LogRequestScope& operator=(const LogRequestScope&) = delete;

 private:
  std::int64_t previous_;
};

/// Copies `phase` (truncating) into the installed context; the machine's
/// Comm::set_phase calls this so solver-phase labels (L2/R3) correlate
/// log events with trace slices.
void log_set_phase(const std::string& phase);

/// Tool-side flag plumbing, precedence flag > environment > tool
/// default: `flag_level` ("" = not given) overrides CAPSP_LOG_LEVEL,
/// which overrides `default_level` (tools pass "warn"; the library
/// default sink stays off).  `flag_json` turns JSON lines on (it never
/// turns CAPSP_LOG_JSON off).  CHECK-fails on an unknown level name.
void log_configure_tool(const std::string& flag_level, bool flag_json,
                        const char* default_level);

// ---------------------------------------------------------------------------
// Per-call-site rate limiting

namespace log_detail {

/// One static instance per CAPSP_LOG expansion: a token bucket of
/// `Logger::site_limit_per_second()` events per second plus a count of
/// suppressed events, drained onto the next emitted one.
struct Site {
  std::atomic<std::int64_t> window_start_us{0};
  std::atomic<std::int64_t> emitted_in_window{0};
  std::atomic<std::int64_t> suppressed{0};
};

}  // namespace log_detail

// ---------------------------------------------------------------------------
// The logger

class Logger {
 public:
  static Logger& global();

  /// Sink threshold.  kError events print regardless (see header
  /// comment); everything else below the threshold is sink-silent but
  /// may still reach the flight recorder.
  void set_level(LogLevel level) {
    level_.store(static_cast<std::int32_t>(level),
                 std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }

  /// Flight-recorder threshold: events at or above it are recorded into
  /// the context's ring even when the sink is quiet.  Default kDebug.
  void set_ring_level(LogLevel level) {
    ring_level_.store(static_cast<std::int32_t>(level),
                      std::memory_order_relaxed);
  }
  LogLevel ring_level() const {
    return static_cast<LogLevel>(
        ring_level_.load(std::memory_order_relaxed));
  }

  /// JSON-lines vs human-readable sink format.
  void set_json(bool json) { json_.store(json, std::memory_order_relaxed); }
  bool json() const { return json_.load(std::memory_order_relaxed); }

  /// Redirect the sink (default std::cerr).  The stream must outlive
  /// all logging; pass nullptr to restore std::cerr.  Tests point this
  /// at an ostringstream to assert on output.
  void set_sink(std::ostream* sink);

  /// Injectable clock: seconds since the Unix epoch.  Pass nullptr to
  /// restore the system clock.  Tests pin this for deterministic
  /// timestamps and rate-limit windows.
  void set_clock(std::function<double()> clock);
  double now() const;

  /// Token-bucket capacity per call site per second (default 200;
  /// 0 disables rate limiting).
  void set_site_limit_per_second(std::int64_t limit) {
    site_limit_.store(limit, std::memory_order_relaxed);
  }
  std::int64_t site_limit_per_second() const {
    return site_limit_.load(std::memory_order_relaxed);
  }

  /// Re-reads CAPSP_LOG_LEVEL / CAPSP_LOG_JSON.  Called once lazily by
  /// global(); tools call set_level/set_json afterwards to let flags
  /// override the environment.
  void configure_from_env();

  /// The cheap gate the macro checks before evaluating any field.
  bool should_log(LogLevel level) const {
    const auto value = static_cast<std::int32_t>(level);
    return value >= level_.load(std::memory_order_relaxed) ||
           value >= ring_level_.load(std::memory_order_relaxed) ||
           level == LogLevel::kError;
  }

  /// Slow path: renders the event, applies the site's rate limit,
  /// records into the flight recorder, and writes to the sink when the
  /// level clears the threshold.  Call through CAPSP_LOG.
  void log(LogLevel level, log_detail::Site& site, const char* file,
           int line, const char* event,
           std::initializer_list<LogField> fields);

  /// Total events written to the sink (tests / stats).
  std::int64_t sink_lines() const {
    return sink_lines_.load(std::memory_order_relaxed);
  }

 private:
  Logger() = default;

  std::atomic<std::int32_t> level_{
      static_cast<std::int32_t>(LogLevel::kOff)};
  std::atomic<std::int32_t> ring_level_{
      static_cast<std::int32_t>(LogLevel::kDebug)};
  std::atomic<bool> json_{false};
  std::atomic<std::int64_t> site_limit_{200};
  std::atomic<std::int64_t> sink_lines_{0};

  mutable std::mutex sink_mutex_;       // guards sink_ and clock_ swaps
  std::ostream* sink_ = nullptr;        // nullptr = std::cerr
  std::function<double()> clock_;       // empty = system clock
};

}  // namespace capsp

/// Log a structured event:
///   CAPSP_LOG(kWarn, "serve.quarantine.enter",
///             {"tile", tile_id}, {"failures", n});
/// `event` and field keys must be literals.  Fields are not evaluated
/// when the event clears neither the sink nor the ring threshold.
#define CAPSP_LOG(level_, event_, ...)                                     \
  do {                                                                     \
    if (::capsp::Logger::global().should_log(                              \
            ::capsp::LogLevel::level_)) {                                  \
      static ::capsp::log_detail::Site capsp_log_site_;                    \
      ::capsp::Logger::global().log(::capsp::LogLevel::level_,             \
                                    capsp_log_site_, __FILE__, __LINE__,   \
                                    event_, {__VA_ARGS__});                \
    }                                                                      \
  } while (false)
