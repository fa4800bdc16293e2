// Sampling profiler with kernel accounting, perf_event counters, and
// roofline reporting (docs/profiling.md).
//
// Three cooperating pieces:
//
//  1. ProfScope — RAII markers on the hot paths (min-plus kernels,
//     superFW levels, serving execute path), pushed on the rank
//     context's scope stack (util/context.hpp) with a couple of
//     relaxed/release stores.  The stack is kept even with the profiler
//     off (CAPSP_CHECK failures report it, util/check.cpp); clock reads
//     and kernel accounting are skipped then, so the markers can stay
//     compiled into release builds.  Scopes on kernel paths also report
//     work (`add_ops`/`add_bytes`) for exact per-kernel throughput; a
//     kernel's seconds are its rank context's on-CPU seconds (two
//     CLOCK_THREAD_CPUTIME_ID reads per call, only while profiling), so
//     a rank waiting for a core is not billed to its kernel, and a rank
//     fiber parked inside a scope is not billed for the other fibers its
//     carrier runs meanwhile (prof_switch_in/prof_switch_out).
//
//  2. Profiler — a background sampler thread wakes at the configured Hz
//     and walks every rank context's scope stack, writing raw
//     samples into a lock-free single-producer ring and periodically
//     folding the ring into an aggregate stack→count map (so arbitrarily
//     long sessions lose nothing while the ring stays bounded).  Started
//     either for a whole run (tools' --profile) or for a window
//     (TelemetryServer /profile?seconds=N).
//
//  3. PerfCounters — optional hardware counters via perf_event_open
//     (cycles, instructions, LLC misses, branch misses) plus software
//     counters (task-clock, page-faults).  Counters are opened per
//     existing thread (enumerated from /proc/self/task, inherit=1 for
//     children spawned later), so a profiling window over an
//     already-running service still attributes work done by its worker
//     pool.  Every failure mode degrades gracefully: each counter
//     records whether it is available and why not, and the report is
//     complete without them (containers and CI typically lack a PMU —
//     see docs/profiling.md for the fallback matrix).  Setting
//     CAPSP_PROF_NO_PERF=1 skips the syscall entirely, which CI uses to
//     pin the fallback path.
//
// The report folds into flamegraph-ready "folded stack" lines and a JSON
// document with a per-kernel roofline section: measured ops/s and
// bytes/s against a startup-probed machine peak, and ops/cycle when the
// cycle counter is live.  The tools place the report next to the cost
// oracle's predicted-vs-measured W comparison so compute and
// communication rooflines read side by side.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace capsp {

class JsonWriter;
struct RankContext;

// ---------------------------------------------------------------------------
// Scope markers

namespace prof_detail {
extern std::atomic<bool> g_enabled;  // flipped by Profiler start/stop
}  // namespace prof_detail

/// True while a profiling session is running (one relaxed load).
inline bool prof_enabled() {
  return prof_detail::g_enabled.load(std::memory_order_relaxed);
}

/// RAII hot-path marker.  `name` must be a string literal (or otherwise
/// outlive the process) — it is stored by pointer and interned by
/// identity.  Dot-separated names mirror the metrics convention, e.g.
/// "semiring.accumulate" or "serve.execute.distance".
///
/// The frame stack is maintained even while no profiling session runs
/// (a push/pop is two stores), because CAPSP_CHECK failures report the
/// active scope stack as crash context (util/check.cpp); the clock
/// reads and kernel accounting stay gated on prof_enabled().
class ProfScope {
 public:
  explicit ProfScope(const char* name) { enter(name); }
  ~ProfScope() { leave(); }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  /// Report semiring operations done under this scope (kernel paths).
  void add_ops(std::int64_t ops) { ops_ += ops; }
  /// Report bytes moved under this scope (I/O and streaming paths).
  void add_bytes(std::int64_t bytes) { bytes_ += bytes; }

 private:
  void enter(const char* name);
  void leave();

  const char* name_ = nullptr;
  RankContext* context_ = nullptr;  ///< whose stack holds the frame
  bool timed_ = false;  ///< a session was running when the scope opened
  std::int64_t ops_ = 0;
  std::int64_t bytes_ = 0;
  double start_cpu_seconds_ = 0;
};

/// A carrier thread switches a rank fiber's context in and out
/// (machine/fibers.cpp).  While a profiling session runs, the carrier's
/// CPU time between the two is added to the context, so ProfScope bills
/// a fiber only its own CPU on whichever carriers ran it.  Without a
/// session neither reads a clock.
void prof_switch_in(RankContext& context);
void prof_switch_out(RankContext& context);

// ---------------------------------------------------------------------------
// Report types

/// One perf_event counter: its reading over the profiled window, or the
/// reason it could not be opened.
struct PerfCounter {
  std::string name;        // "cycles", "instructions", ...
  bool hardware = false;   // PERF_TYPE_HARDWARE vs _SOFTWARE
  bool available = false;
  std::string error;       // strerror / "disabled by CAPSP_PROF_NO_PERF"
  std::int64_t value = 0;  // summed over threads; 0 when unavailable
};

struct PerfCounterSet {
  bool attempted = false;      // profiling session asked for counters
  bool any_available = false;  // at least one counter opened
  int threads_covered = 0;     // tids found at session start
  std::vector<PerfCounter> counters;
  const PerfCounter* find(const std::string& name) const;
};

/// Startup-probed machine peaks for the roofline axes: the kernels'
/// dispatched min-plus tile on in-cache data (compute roof, best of 5
/// trials) and a large streaming elementwise-min pass (memory roof).
/// Probed once per process (~60 ms) on first use, then cached.
struct MachinePeak {
  double minplus_ops_per_second = 0;
  /// (best − worst) / best over the compute-roof trials.
  double minplus_ops_spread = 0;
  double stream_bytes_per_second = 0;
};
const MachinePeak& machine_peak();

/// Exact accounting for one instrumented kernel scope, accumulated by
/// ProfScope destructors while profiling.  `seconds` are on-CPU seconds
/// of the scopes' rank contexts.
struct KernelStats {
  std::int64_t calls = 0;
  std::int64_t ops = 0;
  std::int64_t bytes = 0;
  double seconds = 0;

  double ops_per_second() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
  double bytes_per_second() const { return seconds > 0 ? static_cast<double>(bytes) / seconds : 0; }
  /// Arithmetic intensity (ops per byte); 0 when bytes were not reported.
  double intensity() const { return bytes > 0 ? static_cast<double>(ops) / static_cast<double>(bytes) : 0; }
};

struct FoldedStack {
  std::string stack;  // "a;b;c" — flamegraph.pl's folded format
  std::int64_t count = 0;
};

struct ProfReport {
  bool enabled = false;  // false = no session ran (empty report)
  double hz = 0;
  double duration_seconds = 0;
  std::int64_t samples = 0;          // samples folded into the report
  std::int64_t idle_ticks = 0;       // ticks where no thread was in a scope
  std::int64_t dropped = 0;          // ring overflow (should stay 0)
  std::vector<FoldedStack> folded;   // sorted by count desc, then stack
  std::map<std::string, std::int64_t> self_samples;   // leaf attribution
  std::map<std::string, std::int64_t> total_samples;  // anywhere on stack
  std::map<std::string, KernelStats> kernels;
  PerfCounterSet perf;
  MachinePeak peak;

  /// Effective clock from the counters (cycles / task-clock); 0 when
  /// either counter is unavailable.  Feeds per-kernel ops/cycle.
  double effective_ghz() const;
  /// Ops per cycle for one kernel via the effective clock (0 if unknown).
  double ops_per_cycle(const KernelStats& k) const;

  /// Flamegraph-ready folded lines ("stack count\n" per entry).
  void write_folded(std::ostream& out) const;
};

/// Emit `"profile": { ... }` into an open JSON object (shared by the
/// tools' report/metrics JSON, /stats.json, and the /profile endpoint).
void write_prof_fields(JsonWriter& json, const ProfReport& report);

/// Whole-document form: `{"profile": {...}}`.
void write_prof_report_json(std::ostream& out, const ProfReport& report);

// ---------------------------------------------------------------------------
// Profiler

struct ProfOptions {
  double hz = 497.0;          // sampling rate (off the tick beat on purpose)
  bool perf_counters = true;  // attempt perf_event_open
  std::size_t ring_capacity = 8192;  // raw sample ring entries
};

/// The process-wide sampling profiler.  One session at a time: start()
/// returns false if a session is already running (the /profile endpoint
/// turns that into 503).  stop() joins the sampler and returns the
/// report.  Thread-safe.
class Profiler {
 public:
  static Profiler& global();

  /// Begin a session; false if one is already running.
  bool start(const ProfOptions& options = {});
  /// End the session and build its report.  CHECKs if none is running.
  ProfReport stop();
  bool running() const;

  /// Live status for /stats.json while a session is in flight.
  struct Status {
    bool running = false;
    double hz = 0;
    std::int64_t samples = 0;
  };
  Status status() const;

 private:
  Profiler() = default;
  struct Session;
  mutable std::mutex mutex_;
  std::unique_ptr<Session> session_;
};

}  // namespace capsp
