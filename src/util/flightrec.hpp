// Black-box flight recorder (docs/observability.md, "Logs").
//
// Every rank context that logs (util/context.hpp) gets a fixed-size ring
// of the last kRingCapacity events — pre-rendered into fixed char
// buffers, no heap anywhere on the record path.  The rings are the
// process's black box: when something dies, the dump shows what every
// rank and thread was doing in the seconds before, even events the sink
// never printed.
//
// Concurrency model: the owning context is the only writer to its ring;
// slot writes are ordered against normal-context readers (the /logs
// endpoint, dump_string, stats) by a per-ring mutex that is uncontended
// on the record path.  Rings are a pool of never-freed nodes (NodePool,
// util/context.hpp), claimed by a context at its first record and
// parked with it; a reused ring starts empty.
//
// The *crash* path is the exception to the locking rule: a signal
// handler must not block on a mutex the crashing thread may hold, so
// the SIGSEGV/SIGABRT handlers installed by install_crash_handlers()
// walk the rings lock-free and write the dump with only
// async-signal-safe calls (open/write/close, open-coded number
// formatting) before the default disposition re-raises.  A torn slot
// read there can at worst garble one detail string in a dump written
// while the process dies — file/event pointers are interned literals.
//
// Dump triggers, all writing the same {"flightrec": ...} JSON document:
//   * CAPSP_CHECK failure             — hook in util/check.cpp
//   * DeadlockError construction      — machine/watchdog.cpp
//   * SIGSEGV / SIGABRT / SIGBUS / SIGFPE — install_crash_handlers()
//   * SIGTERM drain                   — the tools' drain paths
//   * on demand                       — /debug/flightrec and /logs
//     TelemetryServer endpoints, or dump_file()/dump_string() directly.
// The first four fire only when a dump path is configured
// (set_dump_path() or the CAPSP_FLIGHTREC_DUMP environment variable),
// so library users and tests that expect exceptions pay nothing.
#pragma once

#include <cstdint>
#include <string>

namespace capsp {

enum class LogLevel : std::int32_t;

namespace flightrec {

/// Events kept per ring.  Power of two so head % capacity is a mask.
inline constexpr std::int64_t kRingCapacity = 256;

/// One recorded event, fully rendered at record time so the crash path
/// only copies bytes.  `file` and `event` are interned literals.
struct Event {
  double ts = 0;                  ///< seconds since the Unix epoch
  std::uint64_t tid = 0;          ///< OS thread id of the recorder (a
                                  ///< rank fiber's carrier)
  std::int64_t request_id = -1;   ///< RankContext correlation
  const char* file = nullptr;
  const char* event = nullptr;
  std::int32_t line = 0;
  std::int32_t level = 0;         ///< LogLevel underlying value
  std::int32_t rank = -1;
  char phase[32] = {0};
  char detail[96] = {0};          ///< "k=v k=v", truncated to fit
};

/// Record one event into the calling context's ring (one uncontended
/// lock; the context claims a ring at its first record).  Called by
/// Logger::log for events at or above the ring level; callable directly
/// for events that must never reach a sink (check failures).  Zero
/// `ts`/`tid` are filled in.
void record(const Event& event);

/// A parking context gives its ring back (util/context.cpp).
struct Ring;
void park_ring(Ring* ring);

/// Where crash-triggered dumps go.  Empty (the default) disables the
/// crash/check/deadlock dump paths entirely.  Also read once from
/// CAPSP_FLIGHTREC_DUMP on first use.  Not async-signal-safe; call
/// during startup, before install_crash_handlers().
void set_dump_path(const std::string& path);

/// Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that dump to the
/// configured path and then re-raise with the default disposition.  They
/// run on the thread's alternate signal stack when it has one, so a rank
/// fiber's stack overflow still leaves a dump.  Idempotent.  No-op
/// (returns false) when no dump path is configured.
bool install_crash_handlers();

/// Install a SIGTERM handler that dumps to the configured path and then
/// re-raises with the default disposition, so an externally-killed soak
/// (the chaos CI job, an operator's kill) still leaves its black box.
/// Same async-signal-safe path as the crash handlers.  Idempotent;
/// no-op (returns false) when no dump path is configured.
bool install_term_drain_handler();

/// Dump every ring as {"flightrec": {...}} JSON (non-crash paths; the
/// crash path writes the same document with async-signal-safe calls).
/// dump_file returns false when the file cannot be written.
bool dump_file(const std::string& path, const char* reason);
std::string dump_string(const char* reason);

/// Dump to the configured path with `reason`; no-op without one.
/// The hook check.cpp / watchdog.cpp / the tools call on fatal events.
/// Returns true when a dump was written.
bool dump_if_configured(const char* reason) noexcept;

/// The last `max_events` events across all rings, merged and
/// time-sorted, as {"logs": {...}} JSON — the /logs endpoint body.
/// Ordinary (non-signal) code path.
std::string recent_events_json(std::int64_t max_events);

struct Stats {
  std::int64_t rings = 0;     ///< rings ever made (held + parked)
  std::int64_t recorded = 0;  ///< events recorded process-wide
};
Stats stats();

}  // namespace flightrec
}  // namespace capsp
