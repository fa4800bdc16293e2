#include "front_end.hpp"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/buildinfo.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

/// The flags every mode of both tools reads, --mode first.
std::vector<Flag> shared_flags(const Tool& tool) {
  std::vector<std::string> modes;
  for (const ToolMode& mode : tool.modes) modes.emplace_back(mode.name);
  using enum Flag::Kind;
  return with_help_and_log({
      {"mode", kChoice, modes, tool.modes.front().name, "what to run"},
      {"version", kSwitch, {}, "", "build/host provenance, then exit"},
      {"file", kText, {"<path>"}, "", "load the graph (.gr, .graph, edges)"},
      {"graph", kText, {"<kind>"}, "grid",
       "grid|grid3d|er|tree|rmat|geometric"},
      {"n", kInt, {"<count>"}, "256", "generated-graph size"},
      {"seed", kInt, {"<int>"}, "1", "generator and dissection seed"},
      {"flightrec", kText, {"<path>"}, "",
       "flight-recorder dump (or CAPSP_FLIGHTREC_DUMP)"},
      {"profile", kSwitch, {}, "", "sample; print hot scopes, roofline"},
      {"profile-hz", kReal, {"<hz>"}, "497", "sampling rate"},
      {"profile-folded", kText, {"<path>"}, "", "flamegraph-ready stacks"},
      {"profile-json", kText, {"<path>"}, "", "full ProfReport JSON"},
  });
}

void print_help(const Tool& tool, const Cli& cli) {
  std::cout << "usage: " << tool.name
            << " --mode <mode> [flags]  (--mode <mode> --help: its flags)\n";
  for (const ToolMode& mode : tool.modes)
    std::cout << "  " << std::left << std::setw(10) << mode.name << "  "
              << mode.summary << "\n";
  cli.print_flags(std::cout);
  std::cout << "\nexit codes:\n" << tool.exit_codes;
}

/// Stdout digest and artifact files for a --profile run: the top scopes
/// by sample count, then each kernel's throughput against the probed
/// compute and stream peaks.
void emit_profile_outputs(const std::string& folded_path,
                          const std::string& json_path,
                          const ProfReport& report) {
  write_output(
      folded_path, "profile-folded",
      "folded stacks (" + std::to_string(report.folded.size()) + " unique)",
      [&](std::ostream& out) { report.write_folded(out); });
  write_output(json_path, "profile-json", "profile report",
               [&](std::ostream& out) { write_prof_report_json(out, report); });

  std::cout << "\nprofile: " << report.samples << " samples @ " << report.hz
            << " Hz over " << report.duration_seconds << " s";
  if (report.perf.any_available) {
    const char* separator = " (perf counters: ";
    for (const PerfCounter& c : report.perf.counters)
      if (c.available) {
        std::cout << separator << c.name << "=" << c.value;
        separator = " ";
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
  for (std::size_t i = 0; i < std::min<std::size_t>(top.size(), 8); ++i) {
    const auto self = report.self_samples.find(top[i].first);
    std::cout << "  " << top[i].first << ": " << top[i].second << " total, "
              << (self == report.self_samples.end() ? 0 : self->second)
              << " self\n";
  }
  if (report.kernels.empty()) return;
  const MachinePeak& peak = report.peak;
  std::cout << "kernel roofline (machine peak " << peak.minplus_ops_per_second
            << " ops/s, " << peak.stream_bytes_per_second << " bytes/s):\n";
  for (const auto& [name, k] : report.kernels) {
    if (k.ops == 0 && k.bytes == 0) continue;
    std::cout << "  " << name << ": " << k.calls << " calls";
    if (k.ops > 0) {
      std::cout << ", " << k.ops_per_second() << " ops/s";
      if (peak.minplus_ops_per_second > 0)
        std::cout << " (" << 100.0 * k.ops_per_second() /
                                 peak.minplus_ops_per_second
                  << "% of peak)";
    }
    if (k.bytes > 0) {
      std::cout << ", " << k.bytes_per_second() << " bytes/s";
      if (peak.stream_bytes_per_second > 0)
        std::cout << " (" << 100.0 * k.bytes_per_second() /
                                 peak.stream_bytes_per_second
                  << "% of stream peak)";
    }
    if (report.ops_per_cycle(k) > 0)
      std::cout << ", " << report.ops_per_cycle(k) << " ops/cycle";
    std::cout << "\n";
  }
}

}  // namespace

const ProfReport* finish_profiler() {
  static std::optional<ProfReport> report;
  if (Profiler::global().running()) report = Profiler::global().stop();
  return report ? &*report : nullptr;
}

Graph build_graph(const Cli& cli, Rng& rng) {
  const std::string file = cli.get<std::string>("file");
  if (!file.empty()) return load_graph_auto(file);
  return make_named_graph(cli.get<std::string>("graph"), cli.get<Vertex>("n"),
                          rng);
}

int run_tool(int argc, const char* const* argv, const Tool& tool) {
  try {
    std::vector<Flag> flags = shared_flags(tool);
    flags.insert(flags.end(), tool.flags.begin(), tool.flags.end());
    for (const ToolMode& mode : tool.modes)
      for (Flag flag : mode.flags) {
        flag.modes = {mode.name};
        flags.push_back(std::move(flag));
      }
    const Cli cli(argc, argv, std::move(flags));
    // --help prints first, then still judges the rest of the line: exit 2
    // means the same line without --help would be refused.
    if (cli.get<bool>("help")) {
      print_help(tool, cli);
      cli.validate();
      return 0;
    }
    cli.validate();
    if (cli.get<bool>("version")) {
      std::cout << version_string(tool.name);
      return 0;
    }
    log_configure_tool(cli.get<std::string>("log-level"),
                       cli.get<bool>("log-json"), "warn");
    const std::string flightrec = cli.get<std::string>("flightrec");
    if (!flightrec.empty()) flightrec::set_dump_path(flightrec);
    flightrec::install_crash_handlers();
    flightrec::install_term_drain_handler();
    Rng rng(static_cast<std::uint64_t>(cli.get<std::int64_t>("seed")));
    // Started before a mode spawns threads, so perf counters (when the
    // host grants them) inherit into every worker.
    std::string profile_folded, profile_json;
    if (cli.get<bool>("profile")) {
      ProfOptions options;
      options.hz = cli.get<double>("profile-hz");
      profile_folded = cli.get<std::string>("profile-folded");
      profile_json = cli.get<std::string>("profile-json");
      CAPSP_CHECK_MSG(Profiler::global().start(options),
                      "profiler already running");
    }
    const std::string mode = cli.mode();
    const auto selected =
        std::find_if(tool.modes.begin(), tool.modes.end(),
                     [&](const ToolMode& m) { return mode == m.name; });
    CAPSP_CHECK_MSG(selected != tool.modes.end(), "no mode " << mode);
    const int status = selected->run(cli, rng);
    if (const ProfReport* report = finish_profiler(); report != nullptr)
      emit_profile_outputs(profile_folded, profile_json, *report);
    return status;
  } catch (const UsageError& e) {
    CAPSP_LOG(kError, tool.usage_event, {"error", e.what()});
    return 2;
  } catch (const std::exception& e) {
    CAPSP_LOG(kError, tool.fatal_event, {"what", e.what()});
    // A failed CHECK wrote the flight recorder as it threw; any other
    // error writes it here.
    if (dynamic_cast<const check_error*>(&e) == nullptr)
      flightrec::dump_if_configured("fatal_exception");
    return 1;
  }
}

}  // namespace capsp
