#include "machine/trace_export.hpp"

#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"

namespace capsp {
namespace {

/// Globally unique flow id for the message sent as event `event_index` of
/// rank `src` (trace event indices are well under 2^32, so this fits the
/// 2^53 range JSON numbers keep exact).
std::int64_t flow_id(RankId src, std::int64_t event_index) {
  return static_cast<std::int64_t>(src) * (std::int64_t{1} << 32) +
         event_index;
}

void clock_args(JsonWriter& json, const TraceEvent& e) {
  json.key("args");
  json.begin_object();
  json.field("phase", e.phase);
  json.field("L", e.after.latency);
  json.field("B", e.after.words);
  if (e.kind == TraceEventKind::kSend || e.kind == TraceEventKind::kRecv) {
    json.field("peer", static_cast<std::int64_t>(e.peer));
    json.field("tag", e.tag);
    json.field("words", e.words);
  }
  if (e.kind == TraceEventKind::kCompute) json.field("ops", e.ops);
  json.end_object();
}

/// The solver's exporter: the logical latency clock is the timeline (ts
/// in "microseconds"), so slice widths read directly as critical-path
/// message counts.
void write_rank_events(ChromeTraceWriter& writer, RankId rank,
                       const std::vector<TraceEvent>& timeline) {
  JsonWriter& json = writer.json();
  const auto event_header = [&](const char* name, const char* cat,
                                const char* ph, RankId r, double ts) {
    writer.begin_event(name, cat, ph, 0, static_cast<std::int64_t>(r), ts);
  };
  writer.thread_name(0, static_cast<std::int64_t>(rank),
                     "rank " + std::to_string(rank));

  // Phase bands: a slice from each phase change (and from ts 0) to the
  // next change or the end of the timeline.
  const double final_ts =
      timeline.empty() ? 0 : timeline.back().after.latency;
  std::string open_phase;
  double open_ts = 0;
  auto close_phase = [&](double ts) {
    if (open_phase.empty()) return;
    event_header(open_phase.c_str(), "phase", "X", rank, open_ts);
    json.field("dur", ts - open_ts);
    json.end_object();
  };
  for (const TraceEvent& e : timeline) {
    if (e.kind != TraceEventKind::kPhase) continue;
    close_phase(e.after.latency);
    open_phase = e.label;
    open_ts = e.after.latency;
  }
  close_phase(final_ts);

  for (std::int64_t i = 0; i < static_cast<std::int64_t>(timeline.size());
       ++i) {
    const TraceEvent& e = timeline[static_cast<std::size_t>(i)];
    const double ts = e.after.latency;
    switch (e.kind) {
      case TraceEventKind::kSend:
        event_header("send", "comm", "i", rank, ts);
        json.field("s", "t");
        clock_args(json, e);
        json.end_object();
        // Flow start: the arrow to the matching receive.
        event_header("msg", "msg", "s", rank, ts);
        json.field("id", flow_id(rank, i));
        json.end_object();
        break;
      case TraceEventKind::kRecv:
        event_header("recv", "comm", "i", rank, ts);
        json.field("s", "t");
        clock_args(json, e);
        json.end_object();
        if (e.peer_event >= 0) {
          event_header("msg", "msg", "f", rank, ts);
          json.field("id", flow_id(e.peer, e.peer_event));
          json.field("bp", "e");
          json.end_object();
        }
        break;
      case TraceEventKind::kCompute:
        event_header(e.label.empty() ? "compute" : e.label.c_str(),
                     "compute", "i", rank, ts);
        json.field("s", "t");
        clock_args(json, e);
        json.end_object();
        break;
      case TraceEventKind::kSpanBegin:
        event_header(e.label.c_str(), "span", "B", rank, ts);
        json.end_object();
        break;
      case TraceEventKind::kSpanEnd:
        event_header(e.label.c_str(), "span", "E", rank, ts);
        json.end_object();
        break;
      case TraceEventKind::kClockReset:
        event_header("clock reset", "comm", "i", rank, ts);
        json.field("s", "t");
        json.end_object();
        break;
      case TraceEventKind::kProtocol:
        event_header(e.label.empty() ? "protocol" : e.label.c_str(),
                     "protocol", "i", rank, ts);
        json.field("s", "t");
        clock_args(json, e);
        json.end_object();
        break;
      case TraceEventKind::kPhase:
        break;  // rendered as slices above
    }
  }
}

void write_by_phase(JsonWriter& json, const char* key,
                    const CriticalPathReport& path) {
  json.key(key);
  json.begin_object();
  json.field("total", path.total);
  json.field("hops", static_cast<std::int64_t>(path.hops.size()));
  json.key("by_phase");
  json.begin_object();
  for (const auto& [phase, cost] : path.by_phase) json.field(phase, cost);
  json.end_object();
  json.end_object();
}

void write_phase_volumes(JsonWriter& json, const char* key,
                         const std::map<std::string, PhaseVolume>& phases) {
  json.key(key);
  json.begin_object();
  for (const auto& [phase, volume] : phases) {
    json.key(phase);
    json.begin_object();
    json.field("messages", volume.messages);
    json.field("words", volume.words);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out)
    : out_(out), json_(out) {
  json_.begin_object();
  json_.field("displayTimeUnit", "ms");
  json_.key("traceEvents");
  json_.begin_array();
}

JsonWriter& ChromeTraceWriter::begin_event(const std::string& name,
                                           const char* cat, const char* ph,
                                           int pid, std::int64_t tid,
                                           double ts) {
  json_.begin_object();
  json_.field("name", name);
  json_.field("cat", cat);
  json_.field("ph", ph);
  json_.field("pid", pid);
  json_.field("tid", tid);
  json_.field("ts", ts);
  return json_;
}

void ChromeTraceWriter::complete_event(const std::string& name,
                                       const char* cat, int pid,
                                       std::int64_t tid, double ts,
                                       double dur) {
  begin_event(name, cat, "X", pid, tid, ts);
  json_.field("dur", dur);
  end_event();
}

void ChromeTraceWriter::name_meta(const char* meta_name, int pid,
                                  std::int64_t tid, bool with_tid,
                                  const std::string& name) {
  json_.begin_object();
  json_.field("name", meta_name);
  json_.field("ph", "M");
  json_.field("pid", pid);
  if (with_tid) json_.field("tid", tid);
  json_.key("args");
  json_.begin_object();
  json_.field("name", name);
  json_.end_object();
  json_.end_object();
}

void ChromeTraceWriter::process_name(int pid, const std::string& name) {
  name_meta("process_name", pid, 0, /*with_tid=*/false, name);
}

void ChromeTraceWriter::thread_name(int pid, std::int64_t tid,
                                    const std::string& name) {
  name_meta("thread_name", pid, tid, /*with_tid=*/true, name);
}

JsonWriter& ChromeTraceWriter::begin_meta() {
  CAPSP_CHECK_MSG(events_open_ && !meta_open_,
                  "begin_meta out of order in ChromeTraceWriter");
  json_.end_array();
  events_open_ = false;
  json_.key("capsp");
  json_.begin_object();
  meta_open_ = true;
  return json_;
}

void ChromeTraceWriter::close() {
  if (events_open_) {
    json_.end_array();
    events_open_ = false;
  }
  if (meta_open_) {
    json_.end_object();
    meta_open_ = false;
  }
  json_.end_object();
  out_ << '\n';
}

void write_chrome_trace(std::ostream& out, const Trace& trace,
                        const CriticalPathReport* latency_path,
                        const CriticalPathReport* bandwidth_path,
                        const CommLedger* comm) {
  ChromeTraceWriter writer(out);
  for (RankId r = 0; r < static_cast<RankId>(trace.per_rank.size()); ++r)
    write_rank_events(writer, r, trace.per_rank[static_cast<std::size_t>(r)]);
  // This is where scripts/trace_summary.py finds the critical-path
  // decomposition.
  JsonWriter& json = writer.begin_meta();
  json.field("ranks", static_cast<std::int64_t>(trace.per_rank.size()));
  json.field("events", trace.num_events());
  if (latency_path != nullptr)
    write_by_phase(json, "critical_latency", *latency_path);
  if (bandwidth_path != nullptr)
    write_by_phase(json, "critical_bandwidth", *bandwidth_path);
  if (comm != nullptr && comm->present) write_comm_fields(json, *comm);
  writer.close();
}

void write_cost_report_json(std::ostream& out, const CostReport& report,
                            const CriticalPathReport* latency_path,
                            const CriticalPathReport* bandwidth_path,
                            const CommLedger* comm,
                            const std::function<void(JsonWriter&)>& extra_fields) {
  JsonWriter json(out);
  json.begin_object();
  json.field("critical_latency", report.critical_latency);
  json.field("critical_bandwidth", report.critical_bandwidth);
  json.field("total_messages", report.total_messages);
  json.field("total_words", report.total_words);
  json.field("max_rank_messages", report.max_rank_messages);
  json.field("max_rank_words", report.max_rank_words);
  json.field("setup_messages", report.setup_messages);
  json.field("setup_words", report.setup_words);
  write_phase_volumes(json, "phase_total", report.phase_total);
  write_phase_volumes(json, "phase_max_rank", report.phase_max_rank);
  write_phase_volumes(json, "setup_phase_total", report.setup_phase_total);
  // Only fault/reliable runs emit these, so plain reports are unchanged.
  if (report.reliability.any()) {
    const ReliabilityStats& s = report.reliability;
    json.key("reliability");
    json.begin_object();
    json.field("frames_sent", s.frames_sent);
    json.field("retransmissions", s.retransmissions);
    json.field("acks", s.acks);
    json.field("duplicates_dropped", s.duplicates_dropped);
    json.field("corrupt_rejected", s.corrupt_rejected);
    json.field("reordered", s.reordered);
    json.field("give_ups", s.give_ups);
    json.end_object();
  }
  if (report.faults.any()) {
    const FaultCounts& f = report.faults;
    json.key("faults");
    json.begin_object();
    json.field("drops", f.drops);
    json.field("duplicates", f.duplicates);
    json.field("corruptions", f.corruptions);
    json.field("delays", f.delays);
    json.field("kills", f.kills);
    json.field("stalls", f.stalls);
    json.end_object();
  }
  if (report.oracle.present) {
    const OracleComparison& o = report.oracle;
    json.key("oracle");
    json.begin_object();
    json.field("model", o.model);
    json.field("predicted_bandwidth", o.predicted_bandwidth);
    json.field("predicted_latency", o.predicted_latency);
    json.field("measured_bandwidth", report.critical_bandwidth);
    json.field("measured_latency", report.critical_latency);
    json.field("bandwidth_ratio", o.bandwidth_ratio);
    json.field("latency_ratio", o.latency_ratio);
    json.end_object();
  }
  if (latency_path != nullptr)
    write_by_phase(json, "critical_path_latency", *latency_path);
  if (bandwidth_path != nullptr)
    write_by_phase(json, "critical_path_bandwidth", *bandwidth_path);
  if (comm != nullptr && comm->present) write_comm_fields(json, *comm);
  if (extra_fields) extra_fields(json);
  json.end_object();
  out << '\n';
}

void write_deadlock_report_json(std::ostream& out,
                                const DeadlockReport& report) {
  JsonWriter json(out);
  json.begin_object();
  json.field("deadlock", true);
  json.key("blocked");
  json.begin_array();
  for (const BlockedRecv& b : report.blocked) {
    json.begin_object();
    json.field("rank", static_cast<std::int64_t>(b.rank));
    json.field("src", static_cast<std::int64_t>(b.src));
    json.field("tag", b.tag);
    json.field("phase", b.phase);
    json.field("L", b.clock.latency);
    json.field("B", b.clock.words);
    json.end_object();
  }
  json.end_array();
  json.key("cycle");
  json.begin_array();
  for (RankId r : report.cycle) json.value(static_cast<std::int64_t>(r));
  json.end_array();
  json.key("dead_ranks");
  json.begin_array();
  for (RankId r : report.dead) json.value(static_cast<std::int64_t>(r));
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace capsp
