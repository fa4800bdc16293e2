// apsp_tool — command-line front end to the capsp library.
//
// Subcommand-style interface for working with graphs from files or
// generators without writing C++:
//
//   apsp_tool --mode solve --graph grid --n 400 --height 3
//       run 2D-SPARSE-APSP, print summary stats and costs
//   apsp_tool --mode solve --file g.txt --algorithm dc --q 4
//       run a chosen algorithm on a graph file
//   apsp_tool --mode partition --file g.txt --height 3
//       run nested dissection, print the supernode/separator profile
//   apsp_tool --mode solve --file g.txt --save-distances g.snap --verify
//       solve once, certify the result, save the matrix as a tiled
//       snapshot (docs/serving.md)
//   apsp_tool --mode query --file g.txt --distances g.snap --from 0 --to 17
//       print the shortest path between two vertices (saved matrix)
//   apsp_tool --mode gen --graph rmat --n 512 --out g.txt
//       write a generated instance to a file
//   apsp_tool --mode solve --graph grid --n 256 --trace t.json
//             --report-json r.json
//       also record the event trace (load t.json in ui.perfetto.dev or
//       feed it to scripts/trace_summary.py) and the machine-readable
//       cost report — see docs/observability.md
//   apsp_tool --mode solve --graph grid --n 256
//             --fault-plan seed=7,drop=0.05 --reliable --verify
//       run under fault injection with the reliable transport; a plan
//       that kills a rank ends with a DeadlockReport and exit code 3 the
//       moment no rank can proceed — see docs/robustness.md
//
// Each mode reads all of its flags before it starts work; a flag no mode
// reads (a typo, or a removed flag) is a usage error.
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
#include "machine/commledger.hpp"
#include "machine/trace_export.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "util/prometheus.hpp"
#include "serve/snapshot.hpp"
#include "util/buildinfo.hpp"
#include "util/cli.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/table.hpp"

namespace {

using namespace capsp;

void print_help() {
  std::cout <<
      "usage: apsp_tool --mode solve|partition|query|gen [flags]\n"
      "\n"
      "graph input (all modes):\n"
      "  --file <path>            load an edge-list / matrix-market file\n"
      "  --graph <kind>           generate: grid|grid3d|er|tree|rmat|geometric\n"
      "  --n <count>              generated-graph size (default 256)\n"
      "  --seed <int>             generator seed (default 1)\n"
      "\n"
      "--mode solve:\n"
      "  --algorithm <name>       sparse|dc|superfw|dijkstra|bottleneck\n"
      "  --height <h>             eTree height, p = (2^h-1)^2 ranks; 0 = auto\n"
      "  --q <q>                  grid side for --algorithm dc (p = q^2)\n"
      "  --verify                 certify distances with the O(n·m) check\n"
      "  --save-distances <path>  save the distance matrix as a tiled\n"
      "                           CAPSPDB2 snapshot (docs/serving.md)\n"
      "  --tile <dim>             snapshot tile dimension (default 64)\n"
      "  --verify, --save-distances\n"
      "                           not available for --algorithm bottleneck\n"
      "  --trace <path>           event trace JSON (sparse|bottleneck)\n"
      "  --report-json <path>     CostReport JSON, incl. the cost-oracle\n"
      "                           predicted-vs-measured ratios\n"
      "  --metrics-json <path>    merged metrics registry JSON (docs/metrics.md)\n"
      "  --fault-plan <spec>      inject faults, e.g. seed=7,drop=0.05\n"
      "  --reliable               acked, retrying transport\n"
      "\n"
      "comm observatory (solve, sparse|bottleneck; docs/cost-model.md):\n"
      "  --comm-ledger            record the per-channel (src, dst, class,\n"
      "                           phase) ledger; prints a summary and adds\n"
      "                           \"comm\" + \"comm_audit\" to --report-json\n"
      "  --comm-json <path>       ledger + message-optimality audit as a\n"
      "                           standalone artifact (implies --comm-ledger;\n"
      "                           feed to scripts/trace_summary.py comm)\n"
      "  --telemetry-port <p>     serve /metrics /healthz /stats.json and\n"
      "                           the live /comm.json heatmap during the\n"
      "                           solve (implies --comm-ledger; 0 picks an\n"
      "                           ephemeral port)\n"
      "  --telemetry-linger <sec> keep the endpoint up after the solve so\n"
      "                           scrapers can read the final ledger\n"
      "                           (Ctrl-C ends the linger early)\n"
      "\n"
      "--mode partition:  --height <h>\n"
      "--mode query:      --from <v> --to <v> [--distances <path>]\n"
      "                   --pairs <file>: answer every 'u v' line of the\n"
      "                   file in one process through a DistanceService\n"
      "                   (--distances reads a --save-distances\n"
      "                   snapshot; without it the graph is solved once\n"
      "                   and served from memory)\n"
      "--mode gen:        --out <path>\n"
      "\n"
      "profiling (any mode; see docs/profiling.md):\n"
      "  --profile                sample the run's ProfScope stacks and\n"
      "                           print hot scopes + a kernel roofline\n"
      "  --profile-hz <hz>        sampling rate (default 497)\n"
      "  --profile-folded <path>  flamegraph-ready folded stacks\n"
      "  --profile-json <path>    full ProfReport JSON (also embedded in\n"
      "                           --metrics-json next to the oracle section)\n"
      "\n"
      "logging (any mode; see docs/observability.md):\n"
      "  --log-level <level>      structured-log sink threshold: trace|\n"
      "                           debug|info|warn|error|off (default warn;\n"
      "                           overrides CAPSP_LOG_LEVEL)\n"
      "  --log-json               JSON-lines log output (or CAPSP_LOG_JSON=1)\n"
      "  --flightrec <path>       arm the black-box flight recorder: CHECK\n"
      "                           failures, deadlocks, fatal signals and\n"
      "                           SIGTERM dump the last events of every\n"
      "                           thread here (or CAPSP_FLIGHTREC_DUMP)\n"
      "  --version                build/host provenance, then exit\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  error (bad input, failed invariant CHECK, failed --verify)\n"
      "  2  usage error (unknown --mode or flag, contradictory or\n"
      "     incomplete flags — e.g. --mode gen without --out)\n"
      "  3  deadlock: no rank could proceed, so the run was aborted at\n"
      "     once (structured report on stderr; --report-json receives the\n"
      "     DeadlockReport JSON)\n";
}

/// Ends the --profile session (idempotent) and caches the report so the
/// metrics JSON, the artifact files, and the stdout summary all describe
/// the same window.
const ProfReport* finish_profiler() {
  static std::optional<ProfReport> report;
  if (Profiler::global().running()) report = Profiler::global().stop();
  return report ? &*report : nullptr;
}

/// --comm-ledger / --comm-json / --telemetry-port all need the machine
/// to record the per-channel ledger.
bool want_comm_ledger(const Cli& cli) {
  return cli.get_bool("comm-ledger", false) ||
         !cli.get_string("comm-json", "").empty() ||
         cli.get_int("telemetry-port", -1) >= 0;
}

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
  if (path.empty()) return;
  std::ofstream out(path);
  CAPSP_CHECK_MSG(out, "cannot write --comm-json file " << path);
  JsonWriter json(out);
  json.begin_object();
  write_comm_fields(json, result.comm);
  if (result.comm_audit.present)
    write_comm_audit_fields(json, result.comm_audit);
  json.end_object();
  out << "\n";
  std::cout << "wrote comm ledger to " << path << "\n";
}

/// --metrics-json: dump the merged registry (plus the oracle comparison
/// when the solved algorithm attached one) as a single JSON object.
void write_metrics(const std::string& path, const CostReport* costs,
                   const CommAudit* comm_audit = nullptr) {
  if (path.empty()) return;
  std::ofstream out(path);
  CAPSP_CHECK_MSG(out, "cannot write --metrics-json file " << path);
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
  std::cout << "wrote metrics to " << path << "\n";
}

/// Stdout digest + artifact files for a --profile run: top scopes by
/// sample count, the per-kernel roofline, and counter availability.
void emit_profile_outputs(const std::string& folded_path,
                          const std::string& json_path,
                          const ProfReport& report) {
  if (!folded_path.empty()) {
    std::ofstream out(folded_path);
    CAPSP_CHECK_MSG(out, "cannot write --profile-folded file " << folded_path);
    report.write_folded(out);
    std::cout << "wrote folded stacks (" << report.folded.size()
              << " unique) to " << folded_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    CAPSP_CHECK_MSG(out, "cannot write --profile-json file " << json_path);
    write_prof_report_json(out, report);
    std::cout << "wrote profile report to " << json_path << "\n";
  }

  std::cout << "\nprofile: " << report.samples << " samples @ " << report.hz
            << " Hz over " << report.duration_seconds << " s";
  if (report.perf.any_available) {
    std::cout << " (perf counters: ";
    bool first = true;
    for (const PerfCounter& c : report.perf.counters) {
      if (!c.available) continue;
      std::cout << (first ? "" : " ") << c.name << "=" << c.value;
      first = false;
    }
    std::cout << ")";
  } else if (report.perf.attempted) {
    std::cout << " (perf counters unavailable; see docs/profiling.md)";
  }
  std::cout << "\n";

  std::vector<std::pair<std::string, std::int64_t>> top(
      report.total_samples.begin(), report.total_samples.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  const std::size_t shown = std::min<std::size_t>(top.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto self = report.self_samples.find(top[i].first);
    std::cout << "  " << top[i].first << ": " << top[i].second << " total, "
              << (self == report.self_samples.end() ? 0 : self->second)
              << " self\n";
  }
  if (!report.kernels.empty()) {
    std::cout << "kernel roofline (machine peak "
              << report.peak.minplus_ops_per_second << " ops/s, "
              << report.peak.stream_bytes_per_second << " bytes/s):\n";
    for (const auto& [name, k] : report.kernels) {
      if (k.ops == 0 && k.bytes == 0) continue;
      std::cout << "  " << name << ": " << k.calls << " calls, "
                << k.ops_per_second() << " ops/s";
      if (report.peak.minplus_ops_per_second > 0 && k.ops > 0)
        std::cout << " ("
                  << 100.0 * k.ops_per_second() /
                         report.peak.minplus_ops_per_second
                  << "% of peak)";
      if (report.ops_per_cycle(k) > 0)
        std::cout << ", " << report.ops_per_cycle(k) << " ops/cycle";
      std::cout << "\n";
    }
  }
}

Graph build_graph(const Cli& cli, Rng& rng) {
  const std::string file = cli.get_string("file", "");
  if (!file.empty()) return load_graph_auto(file);
  return make_named_graph(cli.get_string("graph", "grid"),
                          static_cast<Vertex>(cli.get_int("n", 256)), rng);
}

int mode_gen(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw UsageError("--mode gen requires --out <path>");
  cli.check_flags();
  save_edge_list(out, graph);
  std::cout << "wrote " << graph.num_vertices() << " vertices / "
            << graph.num_edges() << " edges to " << out << "\n";
  return 0;
}

int mode_partition(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  const int height = static_cast<int>(cli.get_int("height", 3));
  cli.check_flags();
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

/// Fill the robustness options (docs/robustness.md) shared by the
/// sparse-family algorithms: --fault-plan <spec>, --reliable.
void apply_robustness_flags(const Cli& cli, SparseApspOptions& options) {
  const std::string plan = cli.get_string("fault-plan", "");
  if (!plan.empty()) options.fault_plan = FaultPlan::parse(plan);
  options.reliable = cli.get_bool("reliable", false);
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
  if (!trace_path.empty()) {
    CAPSP_CHECK_MSG(result.trace.enabled(),
                    "--trace requires a traced run");
    std::ofstream out(trace_path);
    CAPSP_CHECK_MSG(out, "cannot write --trace file " << trace_path);
    write_chrome_trace(out, result.trace, lat, bw, comm);
    std::cout << "wrote event trace (" << result.trace.num_events()
              << " events) to " << trace_path << "\n";
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    CAPSP_CHECK_MSG(out, "cannot write --report-json file " << report_path);
    // The comm audit lives in the core layer, which trace_export (a
    // machine-layer facility) cannot name; append it via the hook.
    std::function<void(JsonWriter&)> extra;
    if (result.comm_audit.present)
      extra = [&result](JsonWriter& json) {
        write_comm_audit_fields(json, result.comm_audit);
      };
    write_cost_report_json(out, result.costs, lat, bw, comm, extra);
    std::cout << "wrote cost report to " << report_path << "\n";
  }
}

int mode_solve(const Cli& cli, Rng& rng) {
  const Graph graph = build_graph(cli, rng);
  const std::string algorithm = cli.get_string("algorithm", "sparse");
  const bool sparse_family =
      algorithm == "sparse" || algorithm == "bottleneck";
  if (!sparse_family && algorithm != "dc" && algorithm != "superfw" &&
      algorithm != "dijkstra")
    throw UsageError("unknown --algorithm '" + algorithm +
                     "' (sparse|dc|superfw|dijkstra|bottleneck)");
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
  const std::string trace_path = cli.get_string("trace", "");
  const std::string report_path = cli.get_string("report-json", "");
  const std::string metrics_path = cli.get_string("metrics-json", "");
  const std::string comm_path = cli.get_string("comm-json", "");
  const std::string save_path = cli.get_string("save-distances", "");
  const auto tile = cli.get_int("tile", kDefaultTileDim);
  const bool verify = cli.get_bool("verify", false);
  const double linger_seconds = cli.get_double("telemetry-linger", 0);
  // --height 0 (the default "auto") picks a machine size for the graph.
  const int height_flag = static_cast<int>(cli.get_int("height", 3));
  const int height =
      height_flag > 0 ? height_flag : recommend_height(graph);
  SparseApspOptions options;
  if (sparse_family) {
    options.height = height;
    options.trace = !trace_path.empty();
    options.comm_ledger = want_comm_ledger(cli);
    apply_robustness_flags(cli, options);
  }
  const int q = algorithm == "dc" ? static_cast<int>(cli.get_int("q", 4)) : 0;
  const std::int64_t telemetry_port = cli.get_int("telemetry-port", -1);
  cli.check_flags();

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
  if (algorithm == "bottleneck") {
    SparseApspResult result;
    try {
      result = run_sparse_bottleneck(graph, options);
    } catch (const DeadlockError& e) {
      return report_deadlock(report_path, e.report);
    }
    std::cout << "distributed bottleneck (max,min) on p="
              << result.num_ranks
              << ": L=" << result.costs.critical_latency
              << " messages, B=" << result.costs.critical_bandwidth
              << " words\n";
    print_robustness(result);
    write_comm_outputs(comm_path, result);
    write_observability(trace_path, report_path, result);
    write_metrics(metrics_path, &result.costs,
                  result.comm_audit.present ? &result.comm_audit : nullptr);
    Dist narrowest = kInf;
    for (Vertex u = 0; u < graph.num_vertices(); ++u)
      for (Vertex v = u + 1; v < graph.num_vertices(); ++v)
        narrowest = std::min(narrowest, result.distances.at(u, v));
    std::cout << "narrowest pair bottleneck: " << narrowest << "\n";
    linger_telemetry(linger_seconds, telemetry.get());
    return 0;
  }
  if (algorithm == "sparse") {
    SparseApspResult result;
    try {
      result = run_sparse_apsp(graph, options);
    } catch (const DeadlockError& e) {
      return report_deadlock(report_path, e.report);
    }
    distances = result.distances;
    std::cout << "2D-SPARSE-APSP on p=" << result.num_ranks
              << ": L=" << result.costs.critical_latency
              << " messages, B=" << result.costs.critical_bandwidth
              << " words, |S|=" << result.separator_size << "\n";
    print_robustness(result);
    write_comm_outputs(comm_path, result);
    write_observability(trace_path, report_path, result);
    solved_costs = result.costs;
    if (result.comm_audit.present) solved_audit = result.comm_audit;
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
    if (!report_path.empty()) {
      std::ofstream out(report_path);
      CAPSP_CHECK_MSG(out, "cannot write --report-json file " << report_path);
      write_cost_report_json(out, result.costs);
      std::cout << "wrote cost report to " << report_path << "\n";
    }
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
  const PathOracle oracle(graph, std::move(distances));
  std::cout << "diameter " << oracle.diameter() << ", radius "
            << oracle.radius() << ", mean distance "
            << oracle.mean_distance() << "\n";
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
  const std::string cached = cli.get_string("distances", "");
  SparseApspOptions options;
  options.height = static_cast<int>(cli.get_int("height", 2));
  const std::string pairs_path = cli.get_string("pairs", "");
  const auto from = static_cast<Vertex>(cli.get_int("from", 0));
  const auto to = static_cast<Vertex>(
      cli.get_int("to", graph.num_vertices() - 1));
  cli.check_flags();
  std::shared_ptr<SnapshotReader> reader;
  if (!cached.empty()) {
    reader = std::make_shared<SnapshotReader>(cached);
  } else {
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

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.get_bool("help", false)) {
      print_help();
      return 0;
    }
    if (cli.get_bool("version", false)) {
      std::cout << version_string("apsp_tool");
      return 0;
    }
    const std::string mode = cli.get_string("mode", "solve");
    log_configure_tool(cli.get_string("log-level", ""),
                       cli.get_bool("log-json", false), "warn");
    const std::string flightrec = cli.get_string("flightrec", "");
    if (!flightrec.empty()) flightrec::set_dump_path(flightrec);
    flightrec::install_crash_handlers();
    flightrec::install_term_drain_handler();
    Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
    std::string profile_folded, profile_json;
    if (cli.get_bool("profile", false)) {
      ProfOptions prof_options;
      prof_options.hz = cli.get_double("profile-hz", 497.0);
      profile_folded = cli.get_string("profile-folded", "");
      profile_json = cli.get_string("profile-json", "");
      CAPSP_CHECK_MSG(Profiler::global().start(prof_options),
                      "profiler already running");
    }
    // Each mode reads the rest of its flags, then calls Cli::check_flags
    // before it starts work.
    int status;
    if (mode == "gen") {
      status = mode_gen(cli, rng);
    } else if (mode == "partition") {
      status = mode_partition(cli, rng);
    } else if (mode == "solve") {
      status = mode_solve(cli, rng);
    } else if (mode == "query") {
      status = mode_query(cli, rng);
    } else {
      CAPSP_LOG(kError, "apsp_tool.usage", {"mode", mode},
                {"expected", "solve|partition|query|gen"});
      return 2;
    }
    if (const ProfReport* prof = finish_profiler(); prof != nullptr)
      emit_profile_outputs(profile_folded, profile_json, *prof);
    return status;
  } catch (const capsp::UsageError& e) {
    CAPSP_LOG(kError, "apsp_tool.usage", {"error", e.what()});
    return 2;
  } catch (const capsp::check_error& e) {
    CAPSP_LOG(kError, "apsp_tool.fatal", {"what", e.what()});
    return 1;
  }
}
