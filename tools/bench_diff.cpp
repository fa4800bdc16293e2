/// bench_diff — regression gate over BENCH_*.json directories.
///
/// Compares every benchmark document in --candidate against the matching
/// document in --baseline (by default the committed bench/baselines/) and
/// fails when any numeric metric moved by more than the allowed relative
/// tolerance in either direction.  Costs in this repo are deterministic, so
/// the gate is a change detector, not a noise filter: an unexpected
/// improvement is as suspicious as a regression.
///
/// Exit codes: 0 pass, 1 tolerance violation, 2 usage/IO error,
/// 3 structural mismatch (missing bench, record count drift, type change).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/bench_compare.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

using capsp::Flag;
using enum Flag::Kind;

const std::vector<Flag> kFlags = capsp::with_help_and_log({
    {"baseline", kText, {"<dir>"}, "", "reference dumps (required)"},
    {"candidate", kText, {"<dir>"}, "", "fresh dumps (required)"},
    {"tolerance", kReal, {"<frac>"}, "0", "allowed relative change"},
    {"metric-tolerance", kText, {"name=frac[,...]"}, "",
     "per-metric --tolerance"},
    {"metric-class", kText, {"pattern=frac|skip[,...]"}, "",
     "per '*' glob; first match wins"},
    {"compare-time", kSwitch, {}, "", "also compare *_ms, *_seconds, ..."},
    {"require-all", kSwitch, {}, "", "a missing candidate bench fails"},
    {"report-md", kText, {"<path>"}, "", "markdown summary"},
    {"report-json", kText, {"<path>"}, "", "machine-readable report"},
});

void print_help(const capsp::Cli& cli) {
  std::cout << R"(usage: bench_diff --baseline <dir> --candidate <dir> [flags]

Compares BENCH_*.json benchmark dumps (written by the bench binaries when
CAPSP_BENCH_JSON_DIR is set) between two directories and exits non-zero
when metrics drift beyond tolerance.  See docs/metrics.md.
)";
  cli.print_flags(std::cout);
  std::cout << R"(
exit codes:
  0  all compared metrics within tolerance
  1  at least one metric moved beyond tolerance
  2  usage or I/O error (bad flags, unreadable directory)
  3  structural mismatch (bench/record/field set drift, parse failure)
)";
}

/// Calls add(key, value) for each item of a "key=value,key=value" spec.
template <class Add>
void for_each_item(const std::string& flag, const std::string& spec,
                   const Add& add) {
  std::istringstream items(spec);
  for (std::string item; std::getline(items, item, ',');) {
    const std::size_t eq = item.rfind('=');
    if (eq == std::string::npos || eq == 0)
      throw capsp::UsageError("--" + flag + " expects key=value items, got '" +
                              item + "'");
    add(item.substr(0, eq), item.substr(eq + 1));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const capsp::Cli cli(argc, argv, kFlags);
    if (cli.get<bool>("help")) {
      print_help(cli);
      cli.validate();
      return 0;
    }
    cli.validate();
    capsp::log_configure_tool(cli.get<std::string>("log-level"),
                              cli.get<bool>("log-json"), "warn");
    const std::string baseline = cli.get<std::string>("baseline");
    const std::string candidate = cli.get<std::string>("candidate");
    if (baseline.empty() || candidate.empty())
      throw capsp::UsageError(
          "--baseline and --candidate are required (--help for usage)");

    capsp::BenchDiffOptions options;
    options.tolerance = cli.get<double>("tolerance");
    CAPSP_CHECK_MSG(options.tolerance >= 0,
                    "--tolerance must be >= 0, got " << options.tolerance);
    for_each_item("metric-tolerance", cli.get<std::string>("metric-tolerance"),
                  [&](const std::string& name, const std::string& value) {
                    options.metric_tolerance[name] =
                        capsp::Cli::parse<double>("metric-tolerance", value);
                  });
    // "ops_per_*=0.5,*_misses=skip": ordered tolerance classes.
    for_each_item(
        "metric-class", cli.get<std::string>("metric-class"),
        [&](const std::string& pattern, const std::string& value) {
          capsp::MetricClass cls;
          cls.pattern = pattern;
          cls.skip = value == "skip";
          if (!cls.skip)
            cls.tolerance = capsp::Cli::parse<double>("metric-class", value);
          CAPSP_CHECK_MSG(cls.tolerance >= 0,
                          "--metric-class tolerance must be >= 0, got "
                              << value);
          options.metric_classes.push_back(std::move(cls));
        });
    options.ignore_time_like = !cli.get<bool>("compare-time");
    options.require_all = cli.get<bool>("require-all");
    const std::string report_md = cli.get<std::string>("report-md");
    const std::string report_json = cli.get<std::string>("report-json");
    cli.check_unused();

    const capsp::BenchDiffReport report =
        capsp::diff_bench_dirs(baseline, candidate, options);

    if (!report_md.empty()) {
      std::ofstream out(report_md);
      CAPSP_CHECK_MSG(out.good(), "cannot write " << report_md);
      capsp::write_bench_diff_markdown(out, report);
    }
    if (!report_json.empty()) {
      std::ofstream out(report_json);
      CAPSP_CHECK_MSG(out.good(), "cannot write " << report_json);
      capsp::write_bench_diff_json(out, report);
    }

    // Human summary on stdout: problems, then violations, then the verdict.
    for (const std::string& problem : report.problems)
      std::cout << "PROBLEM: " << problem << "\n";
    for (const std::string& skipped : report.skipped)
      std::cout << "skipped: " << skipped << "\n";
    for (const capsp::MetricDelta& delta : report.deltas) {
      if (!delta.violation) continue;
      std::cout << "FAIL " << delta.bench << " record#" << delta.record
                << (delta.record_key.empty() ? "" : " [" + delta.record_key +
                                                        "]")
                << " " << delta.metric << ": " << delta.baseline << " -> "
                << delta.candidate << " (change "
                << delta.relative_change * 100 << "%, tolerance "
                << delta.tolerance * 100 << "%)\n";
    }
    std::cout << "bench_diff: " << report.benches_compared << " benches, "
              << report.records_compared << " records, "
              << report.metrics_compared << " metrics compared; "
              << report.violations << " violations, " << report.problems.size()
              << " problems -> "
              << (report.exit_code() == 0 ? "PASS" : "FAIL") << "\n";
    return report.exit_code();
  } catch (const capsp::UsageError& e) {
    CAPSP_LOG(kError, "bench_diff.usage", {"error", e.what()});
    return 2;
  } catch (const std::exception& e) {
    CAPSP_LOG(kError, "bench_diff.fatal", {"what", e.what()});
    return 2;
  }
}
