// apsp_tool — command-line front end to the capsp library: solve a graph
// from a file or a generator with any algorithm of the family, profile its
// nested dissection, answer shortest-path queries, or write a generated
// instance.  `apsp_tool --mode <m> --help` lists a mode's flags, each
// declared once in the mode tables at the end of this file (or, for the
// flags both tools share, in front_end.cpp); docs/using.md and
// docs/observability.md show them at work.  A plan that kills a rank ends
// with a DeadlockReport and exit code 3 the moment no rank can proceed
// (docs/robustness.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "capsp.hpp"
#include "core/cost_oracle.hpp"
#include "front_end.hpp"
#include "machine/commledger.hpp"
#include "machine/trace_export.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/telemetry.hpp"
#include "util/buildinfo.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prometheus.hpp"
#include "util/table.hpp"

namespace {

using namespace capsp;

/// Start the solver-side telemetry endpoint (docs/telemetry.md) when
/// --telemetry-port is given: the same embedded server the serving layer
/// uses, with /comm.json fed live from the CommLedgerHub so long solves
/// are observable while they run.
std::unique_ptr<TelemetryServer> start_solver_telemetry(std::int64_t port) {
  if (port < 0) return nullptr;
  auto server = std::make_unique<TelemetryServer>();
  server->handle("/metrics", [](const std::string&) {
    std::ostringstream out;
    write_prometheus_text(out, MetricsRegistry::global().snapshot(),
                          "capsp_");
    TelemetryResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = out.str();
    return response;
  });
  server->handle("/healthz", [](const std::string&) {
    TelemetryResponse response;
    response.body = "ok\n";
    return response;
  });
  server->handle("/stats.json", [](const std::string&) {
    std::ostringstream out;
    JsonWriter json(out);
    json.begin_object();
    write_metrics_fields(json, MetricsRegistry::global().snapshot());
    write_build_info_fields(json);
    json.end_object();
    out << "\n";
    TelemetryResponse response;
    response.content_type = "application/json";
    response.body = out.str();
    return response;
  });
  server->handle("/comm.json", [](const std::string&) {
    const CommLedger ledger = CommLedgerHub::global().snapshot();
    TelemetryResponse response;
    response.content_type = "application/json";
    if (!ledger.present) {
      response.status = 503;
      response.body = "{\"error\":\"no comm ledger recorded yet\"}\n";
      return response;
    }
    std::ostringstream out;
    write_comm_ledger_json(out, ledger);
    response.body = out.str();
    return response;
  });
  const int bound = server->start(static_cast<int>(port));
  std::cout << "telemetry on http://127.0.0.1:" << bound
            << " (/metrics /healthz /stats.json /comm.json)\n";
  return server;
}

volatile std::sig_atomic_t g_linger_interrupted = 0;
void on_linger_interrupt(int) { g_linger_interrupted = 1; }

/// --telemetry-linger: keep the endpoint alive after the solve so
/// scrapers (and the CI smoke) can read the final published ledger;
/// SIGINT ends the linger early.
void linger_telemetry(double seconds, const TelemetryServer* server) {
  if (server == nullptr || seconds <= 0) return;
  std::signal(SIGINT, &on_linger_interrupt);
  std::cout << "telemetry lingering " << seconds
            << "s on port " << server->port() << " (Ctrl-C to exit)\n";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (g_linger_interrupted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
}

/// Stdout digest + --comm-json artifact for a ledger-enabled solve.
void write_comm_outputs(const std::string& path,
                        const SparseApspResult& result) {
  if (!result.comm.present) return;
  const CommChannelStats totals = result.comm.totals();
  std::cout << "comm ledger: " << result.comm.channels.size()
            << " channels, logical " << totals.logical_messages
            << " msgs / " << totals.logical_words << " words, physical "
            << totals.physical_frames << " frames / " << totals.physical_words
            << " words\n";
  if (result.comm_audit.present) {
    const CommAudit& a = result.comm_audit;
    std::cout << "comm audit (" << a.model
              << "): message_ratio=" << a.total_message_ratio
              << " max_channel_word_ratio=" << a.max_channel_word_ratio;
    if (a.has_collect)
      std::cout << " word_optimality_factor=" << a.word_optimality_factor;
    std::cout << "\n";
  }
  write_output(path, "comm-json", "comm ledger", [&](std::ostream& out) {
    JsonWriter json(out);
    json.begin_object();
    write_comm_fields(json, result.comm);
    if (result.comm_audit.present)
      write_comm_audit_fields(json, result.comm_audit);
    json.end_object();
    out << "\n";
  });
}

/// --metrics-json: dump the merged registry (plus the oracle comparison
/// when the solved algorithm attached one) as a single JSON object.
void write_metrics(const std::string& path, const CostReport* costs,
                   const CommAudit* comm_audit = nullptr) {
  write_output(path, "metrics-json", "metrics", [&](std::ostream& out) {
    JsonWriter json(out);
    json.begin_object();
    write_metrics_fields(json, MetricsRegistry::global().snapshot());
    if (costs != nullptr && costs->oracle.present) {
      const OracleComparison& o = costs->oracle;
      json.key("oracle");
      json.begin_object();
      json.field("model", o.model);
      json.field("predicted_bandwidth", o.predicted_bandwidth);
      json.field("predicted_latency", o.predicted_latency);
      json.field("measured_bandwidth", costs->critical_bandwidth);
      json.field("measured_latency", costs->critical_latency);
      json.field("bandwidth_ratio", o.bandwidth_ratio);
      json.field("latency_ratio", o.latency_ratio);
      json.end_object();
    }
    if (comm_audit != nullptr && comm_audit->present)
      write_comm_audit_fields(json, *comm_audit);
    // A --profile run lands its report here too, so the compute roofline
    // sits next to the oracle's communication comparison in one document.
    if (const ProfReport* prof = finish_profiler(); prof != nullptr)
      write_prof_fields(json, *prof);
    write_build_info_fields(json);
    json.end_object();
    out << "\n";
  });
}

/// --height, where 0 (or less) picks a machine size for the graph.
int resolve_height(int height, const Graph& graph) {
  return height > 0 ? height : recommend_height(graph);
}

int mode_gen(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  const std::string out = cli.get<std::string>("out");
  if (out.empty()) throw UsageError("--mode gen requires --out <path>");
  cli.check_unused();
  save_edge_list(out, graph);
  std::cout << "wrote " << graph.num_vertices() << " vertices / "
            << graph.num_edges() << " edges to " << out << "\n";
  return 0;
}

int mode_partition(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  const int height = resolve_height(cli.get<int>("height"), graph);
  cli.check_unused();
  const Dissection nd = nested_dissection(graph, height, rng);
  std::cout << "nested dissection of " << graph.num_vertices()
            << " vertices into " << nd.tree.num_supernodes()
            << " supernodes (h=" << height << "):\n";
  TextTable table({"supernode", "level", "kind", "vertices"});
  for (Snode s = 1; s <= nd.tree.num_supernodes(); ++s) {
    table.add_row({TextTable::num(static_cast<std::int64_t>(s)),
                   TextTable::num(nd.tree.level_of(s)),
                   nd.tree.level_of(s) == 1 ? "leaf" : "separator",
                   TextTable::num(static_cast<std::int64_t>(
                       nd.range_of(s).size()))});
  }
  table.print(std::cout);
  std::cout << "top separator |S| = " << nd.top_separator_size() << " = "
            << static_cast<double>(nd.top_separator_size()) /
                   std::sqrt(static_cast<double>(graph.num_vertices()))
            << "·√n\n";
  return 0;
}

/// A run in which no rank could proceed: one structured error event, the
/// full report body on stderr (the documented exit-code-3 artifact),
/// the JSON report where the cost report would have gone, exit code 3.
int report_deadlock(const std::string& report_path,
                    const DeadlockReport& report) {
  CAPSP_LOG(kError, "apsp_tool.deadlock",
            {"blocked", report.blocked.size()}, {"dead", report.dead.size()},
            {"cycle", report.cycle.size()});
  std::cerr << report.to_string();
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    CAPSP_CHECK_MSG(out, "cannot write --report-json file " << report_path);
    write_deadlock_report_json(out, report);
    CAPSP_LOG(kInfo, "apsp_tool.deadlock_report_written",
              {"path", report_path});
  }
  return 3;
}

/// One-line robustness summary after a fault/reliable run.
void print_robustness(const SparseApspResult& result) {
  const FaultCounts& f = result.costs.faults;
  if (f.any()) {
    std::cout << "faults injected: " << f.drops << " dropped, "
              << f.duplicates << " duplicated, " << f.corruptions
              << " corrupted, " << f.delays << " delayed, " << f.stalls
              << " stalled, " << f.kills << " killed\n";
  }
  const ReliabilityStats& s = result.costs.reliability;
  if (s.any()) {
    std::cout << "reliability: " << s.frames_sent << " frames ("
              << s.retransmissions << " retransmissions), "
              << s.corrupt_rejected << " rejected corrupt, "
              << s.duplicates_dropped << " duplicates dropped, "
              << s.reordered << " reordered\n";
  }
}

/// Write the --trace / --report-json artifacts for a traced (or plain)
/// sparse-family run.  The critical-path decompositions ride along in
/// both files when a trace is available.
void write_observability(const std::string& trace_path,
                         const std::string& report_path,
                         const SparseApspResult& result) {
  std::optional<CriticalPathReport> latency, bandwidth;
  if (result.trace.enabled()) {
    latency = extract_critical_path(result.trace, CostAxis::kLatency);
    bandwidth = extract_critical_path(result.trace, CostAxis::kBandwidth);
  }
  const CriticalPathReport* lat = latency ? &*latency : nullptr;
  const CriticalPathReport* bw = bandwidth ? &*bandwidth : nullptr;
  const CommLedger* comm = result.comm.present ? &result.comm : nullptr;
  CAPSP_CHECK_MSG(trace_path.empty() || result.trace.enabled(),
                  "--trace requires a traced run");
  write_output(trace_path, "trace",
               "event trace (" + std::to_string(result.trace.num_events()) +
                   " events)",
               [&](std::ostream& out) {
                 write_chrome_trace(out, result.trace, lat, bw, comm);
               });
  // The comm audit lives in the core layer, which trace_export (a
  // machine-layer facility) cannot name; append it via the hook.
  std::function<void(JsonWriter&)> extra;
  if (result.comm_audit.present)
    extra = [&result](JsonWriter& json) {
      write_comm_audit_fields(json, result.comm_audit);
    };
  write_output(report_path, "report-json", "cost report",
               [&](std::ostream& out) {
                 write_cost_report_json(out, result.costs, lat, bw, comm,
                                        extra);
               });
}

int mode_solve(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  const std::string algorithm = cli.get<std::string>("algorithm");
  const bool sparse_family =
      algorithm == "sparse" || algorithm == "bottleneck";
  // The trace and the comm ledger are recorded by the machine the sparse
  // and bottleneck solvers run on; --telemetry-port serves /metrics for
  // every algorithm.
  if (!sparse_family)
    for (const char* flag : {"trace", "comm-json", "comm-ledger"})
      if (cli.has(flag))
        throw UsageError(std::string("--") + flag +
                         " is only supported for --algorithm "
                         "sparse|bottleneck, not '" + algorithm + "'");
  // A bottleneck run yields widths, not distances: the distance writers
  // and the APSP certificate do not apply to it.
  if (algorithm == "bottleneck")
    for (const char* flag : {"save-distances", "verify"})
      if (cli.has(flag))
        throw UsageError(std::string("--") + flag +
                         " is not supported for --algorithm bottleneck");
  // Every output flag, read before the solve so that a misspelt flag
  // fails before any work.
  const std::string trace_path = cli.get<std::string>("trace");
  const std::string report_path = cli.get<std::string>("report-json");
  const std::string metrics_path = cli.get<std::string>("metrics-json");
  const std::string comm_path = cli.get<std::string>("comm-json");
  const std::string save_path = cli.get<std::string>("save-distances");
  const auto tile = cli.get<std::int64_t>("tile");
  const bool verify = cli.get<bool>("verify");
  const double linger_seconds = cli.get<double>("telemetry-linger");
  const auto telemetry_port = cli.get<int>("telemetry-port");
  const int height_flag = cli.get<int>("height");
  const int height = resolve_height(height_flag, graph);
  SparseApspOptions options;
  if (sparse_family) {
    options.height = height;
    options.trace = !trace_path.empty();
    // The solver's telemetry endpoint serves the live ledger.
    options.comm_ledger = cli.get<bool>("comm-ledger") ||
                          !comm_path.empty() || telemetry_port >= 0;
    // Robustness (docs/robustness.md).
    if (const auto plan = cli.get<std::string>("fault-plan"); !plan.empty())
      options.fault_plan = FaultPlan::parse(plan);
    options.reliable = cli.get<bool>("reliable");
  }
  const int q = algorithm == "dc" ? cli.get<int>("q") : 0;
  cli.check_unused();

  std::cout << "graph: " << graph.num_vertices() << " vertices, "
            << graph.num_edges() << " edges\n";
  if (height_flag <= 0)
    std::cout << "auto-selected eTree height " << height << " (p = "
              << ((1 << height) - 1) * ((1 << height) - 1) << ")\n";
  DistBlock distances;
  // Costs of whichever machine run happened, for --metrics-json's oracle
  // section (absent for the sequential algorithms).
  std::optional<CostReport> solved_costs;
  std::optional<CommAudit> solved_audit;
  // Up before the solve so /comm.json observes the run in flight.
  const std::unique_ptr<TelemetryServer> telemetry =
      start_solver_telemetry(telemetry_port);
  if (sparse_family) {
    SparseApspResult result;
    try {
      result = algorithm == "sparse" ? run_sparse_apsp(graph, options)
                                     : run_sparse_bottleneck(graph, options);
    } catch (const DeadlockError& e) {
      return report_deadlock(report_path, e.report);
    }
    std::cout << (algorithm == "sparse" ? "2D-SPARSE-APSP on p="
                                        : "distributed bottleneck (max,min) "
                                          "on p=")
              << result.num_ranks << ": L=" << result.costs.critical_latency
              << " messages, B=" << result.costs.critical_bandwidth
              << " words";
    if (algorithm == "sparse")
      std::cout << ", |S|=" << result.separator_size;
    std::cout << "\n";
    print_robustness(result);
    write_comm_outputs(comm_path, result);
    write_observability(trace_path, report_path, result);
    solved_costs = result.costs;
    if (result.comm_audit.present) solved_audit = result.comm_audit;
    distances = std::move(result.distances);
  } else if (algorithm == "dc") {
    DistributedApspResult result = run_dc_apsp(graph, q);
    attach_oracle(result.costs,
                  predict_dc_apsp(static_cast<double>(graph.num_vertices()),
                                  static_cast<double>(q) * q));
    solved_costs = result.costs;
    distances = result.distances;
    std::cout << "2D-DC-APSP on p=" << q * q
              << ": L=" << result.costs.critical_latency
              << " messages, B=" << result.costs.critical_bandwidth
              << " words\n";
    write_output(report_path, "report-json", "cost report",
                 [&](std::ostream& out) {
                   write_cost_report_json(out, result.costs);
                 });
  } else if (algorithm == "superfw") {
    const Dissection nd = nested_dissection(graph, height, rng);
    const SuperFwResult result = superfw_original_order(graph, nd);
    distances = result.distances;
    std::cout << "SuperFW: " << result.ops << " scalar ops\n";
  } else {
    distances = reference_apsp(graph);
    std::cout << "Dijkstra-per-source (sequential oracle)\n";
  }
  if (!save_path.empty()) {
    write_snapshot(save_path, distances, tile);
    std::cout << "saved distance matrix (tile " << tile << ") to "
              << save_path << "\n";
  }
  if (verify) {
    const ValidationReport report = validate_apsp(graph, distances);
    CAPSP_CHECK_MSG(report.ok, "result failed the APSP certificate: "
                                   << report.problem);
    std::cout << "certificate: distances verified exact (O(n·m) check)\n";
  }
  write_metrics(metrics_path, solved_costs ? &*solved_costs : nullptr,
                solved_audit ? &*solved_audit : nullptr);
  if (algorithm == "bottleneck") {
    // Widths, not distances: report the narrowest pair.
    Dist narrowest = kInf;
    for (Vertex u = 0; u < graph.num_vertices(); ++u)
      for (Vertex v = u + 1; v < graph.num_vertices(); ++v)
        narrowest = std::min(narrowest, distances.at(u, v));
    std::cout << "narrowest pair bottleneck: " << narrowest << "\n";
  } else {
    const PathOracle oracle(graph, std::move(distances));
    std::cout << "diameter " << oracle.diameter() << ", radius "
              << oracle.radius() << ", mean distance "
              << oracle.mean_distance() << "\n";
  }
  linger_telemetry(linger_seconds, telemetry.get());
  return 0;
}

/// Answer one (u, v) through the service: distance + path on one line.
void print_query(DistanceService& service, Vertex u, Vertex v) {
  const PathReply reply = service.shortest_path(u, v);
  CAPSP_CHECK_MSG(reply.error == ServeError::kOk,
                  "query (" << u << "," << v
                            << ") failed: " << to_string(reply.error));
  if (is_inf(reply.distance)) {
    std::cout << u << " -> " << v << ": unreachable\n";
    return;
  }
  std::cout << u << " -> " << v << ": distance " << reply.distance
            << "; path:";
  for (Vertex hop : reply.path) std::cout << ' ' << hop;
  std::cout << '\n';
}

int mode_query(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  // A matrix saved by solve --save-distances skips the recompute.
  const std::string cached = cli.get<std::string>("distances");
  const int height = cli.get<int>("height");
  const std::string pairs_path = cli.get<std::string>("pairs");
  const auto from = cli.get<Vertex>("from");
  const Vertex to = cli.get<Vertex>("to", graph.num_vertices() - 1);
  cli.check_unused();
  std::shared_ptr<SnapshotReader> reader;
  if (!cached.empty()) {
    reader = std::make_shared<SnapshotReader>(cached);
  } else {
    SparseApspOptions options;
    options.height = resolve_height(height, graph);
    reader = std::make_shared<SnapshotReader>(
        run_sparse_apsp(graph, options).distances, kDefaultTileDim);
  }
  DistanceService service(reader, graph);
  if (!pairs_path.empty()) {
    // Batch mode: every "u v" line of the file, one process, one service.
    std::ifstream in(pairs_path);
    CAPSP_CHECK_MSG(in, "cannot open --pairs file " << pairs_path);
    Vertex u = 0, v = 0;
    std::int64_t answered = 0;
    while (in >> u >> v) {
      print_query(service, u, v);
      ++answered;
    }
    CAPSP_CHECK_MSG(in.eof(), "--pairs file " << pairs_path
                                              << ": bad line after "
                                              << answered
                                              << " queries (want 'u v')");
    std::cout << answered << " queries answered\n";
    return 0;
  }
  print_query(service, from, to);
  return 0;
}

using enum Flag::Kind;
const std::vector<Flag> kSolveFlags = {
    {"algorithm", kChoice,
     {"sparse", "dc", "superfw", "dijkstra", "bottleneck"}, "sparse",
     "the solver"},
    {"q", kInt, {"<q>"}, "4", "--algorithm dc grid side, p = q^2"},
    {"verify", kSwitch, {}, "", "certify the distances, O(n·m)"},
    {"save-distances", kText, {"<path>"}, "", "tiled CAPSPDB2 snapshot"},
    {"tile", kInt, {"<dim>"}, "64", "snapshot tile dimension"},
    {"trace", kText, {"<path>"}, "", "event trace JSON"},
    {"report-json", kText, {"<path>"}, "", "CostReport JSON, oracle ratios"},
    {"metrics-json", kText, {"<path>"}, "", "merged metrics registry JSON"},
    {"fault-plan", kText, {"<spec>"}, "", "faults, e.g. seed=7,drop=0.05"},
    {"reliable", kSwitch, {}, "", "acked, retrying transport"},
    {"comm-ledger", kSwitch, {}, "", "per-channel comm ledger and audit"},
    {"comm-json", kText, {"<path>"}, "", "ledger + audit file (a ledger run)"},
    {"telemetry-port", kInt, {"<port>"}, "-1",
     "endpoint + ledger; 0 = any, -1 = off"},
    {"telemetry-linger", kReal, {"<sec>"}, "0", "keep it up after the solve"},
};
const std::vector<Flag> kQueryFlags = {
    {"distances", kText, {"<path>"}, "", "answer from this snapshot"},
    {"pairs", kText, {"<file>"}, "", "answer every 'u v' line of the file"},
    {"from", kInt, {"<v>"}, "0", "source vertex"},
    {"to", kInt, {"<v>"}, "", "target vertex (default: the last)"},
};

}  // namespace

int main(int argc, char** argv) {
  return run_tool(
      argc, argv,
      {"apsp_tool",
       "apsp_tool.usage",
       "apsp_tool.fatal",
       {{"solve", "run a solver; print summary stats and costs", mode_solve,
         kSolveFlags},
        {"partition", "nested dissection; print the supernode profile",
         mode_partition},
        {"query", "shortest paths from a saved or freshly solved matrix",
         mode_query, kQueryFlags},
        {"gen", "write a generated graph to a file", mode_gen,
         {{"out", kText, {"<path>"}, "", "output edge list (required)"}}}},
       {{"height", kInt, {"<h>"}, "3", "eTree height, p = (2^h-1)^2; 0 = auto",
         {"solve", "partition", "query"}}},
       "  0  success\n"
       "  1  error (bad input, failed invariant CHECK, failed --verify)\n"
       "  2  usage error (unknown --mode or flag, a value that does not\n"
       "     parse, contradictory or incomplete flags: e.g. --mode gen\n"
       "     without --out)\n"
       "  3  deadlock: no rank could proceed, so the run was aborted at\n"
       "     once (structured report on stderr; --report-json receives the\n"
       "     DeadlockReport JSON)\n"});
}
