// JSON exporters for the observability layer (docs/observability.md):
//
// * write_chrome_trace — the event timelines in Chrome trace-event
//   format, loadable in chrome://tracing and ui.perfetto.dev.  One track
//   per rank; the logical latency clock is the time axis (1 message = 1
//   µs), phases render as slices, messages as flow arrows, and the
//   critical-path decomposition rides along under a top-level "capsp"
//   key (extra top-level keys are explicitly allowed by the format).
// * write_cost_report_json — the CostReport as a machine-readable record,
//   optionally with the per-phase critical-path decompositions.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "machine/commledger.hpp"
#include "machine/cost_model.hpp"
#include "machine/trace.hpp"
#include "machine/watchdog.hpp"
#include "util/json.hpp"

namespace capsp {

/// Low-level Chrome trace-event document writer, shared by the solver
/// exporter below and the serving layer's request-trace exporter
/// (serve/reqtrace), so both produce files the same viewers open the
/// same way.  Usage: construct (opens the document and the traceEvents
/// array), emit events, optionally begin_meta() to add fields under the
/// "capsp" top-level key, then close().
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Open one trace-event record with the common fields.  The caller may
  /// append more fields (dur, args, ...) through json() and must finish
  /// the record with end_event().
  JsonWriter& begin_event(const std::string& name, const char* cat,
                          const char* ph, int pid, std::int64_t tid,
                          double ts);
  void end_event() { json_.end_object(); }

  /// Closed "X" (complete) event: a slice of `dur` microseconds.
  void complete_event(const std::string& name, const char* cat, int pid,
                      std::int64_t tid, double ts, double dur);

  /// Track naming metadata ("M" events).
  void process_name(int pid, const std::string& name);
  void thread_name(int pid, std::int64_t tid, const std::string& name);

  /// Close the traceEvents array and open the "capsp" top-level object
  /// (extra top-level keys are explicitly allowed by the format; this is
  /// where scripts/trace_summary.py finds capsp-specific metadata).
  JsonWriter& begin_meta();

  /// Finish the document (closes the meta object if open).  Must be the
  /// last call.
  void close();

  JsonWriter& json() { return json_; }

 private:
  void name_meta(const char* meta_name, int pid, std::int64_t tid,
                 bool with_tid, const std::string& name);

  std::ostream& out_;
  JsonWriter json_;
  bool events_open_ = true;
  bool meta_open_ = false;
};

/// Write `trace` as Chrome trace-event JSON.  Optional critical-path
/// reports (latency and/or bandwidth axis) are embedded as metadata under
/// the "capsp" top-level key, where scripts/trace_summary.py reads them;
/// an optional comm ledger adds the per-channel "comm" section there too,
/// so one trace file carries both the timelines (with send→recv flow
/// arrows) and the channel ledger they aggregate into.
void write_chrome_trace(std::ostream& out, const Trace& trace,
                        const CriticalPathReport* latency_path = nullptr,
                        const CriticalPathReport* bandwidth_path = nullptr,
                        const CommLedger* comm = nullptr);

/// Write `report` as a JSON object: headline scalars, per-phase volumes
/// (post-reset and setup segments), and — when the paths are supplied —
/// the critical-path per-phase cost segments, whose values sum to
/// critical_latency / critical_bandwidth respectively.  An optional comm
/// ledger adds the "comm" section; `extra_fields` (if set) is invoked
/// inside the top-level object so higher layers can append sections the
/// machine layer cannot know about (core's "comm_audit", for one)
/// without a reverse dependency.
void write_cost_report_json(
    std::ostream& out, const CostReport& report,
    const CriticalPathReport* latency_path = nullptr,
    const CriticalPathReport* bandwidth_path = nullptr,
    const CommLedger* comm = nullptr,
    const std::function<void(JsonWriter&)>& extra_fields = nullptr);

/// Write a DeadlockReport as a JSON object ("deadlock": true,
/// the blocked receives with their (L, B) clocks, the wait cycle, and the
/// dead ranks).  apsp_tool writes this in place of the cost report when a
/// run deadlocks, so scripts/trace_summary.py can surface it.
void write_deadlock_report_json(std::ostream& out,
                                const DeadlockReport& report);

}  // namespace capsp
