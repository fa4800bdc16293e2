// The observability layer (docs/observability.md): event tracing, blame
// attribution, critical-path extraction, volume segmentation at
// reset_clock, traffic-matrix hygiene, and the JSON exporters.
#include <gtest/gtest.h>

#include <sstream>

#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/collectives.hpp"
#include "machine/machine.hpp"
#include "machine/trace_export.hpp"

namespace capsp {
namespace {

/// Golden 3-rank exchange exercising every blame case:
///   r0 --2w--> r1   (r1's merge ties on both axes -> local blame)
///   r1 --4w--> r2   (message wins both axes)
///   r2 --1w--> r0   (message wins both axes)
/// Final clocks: r0 (3,7), r1 (2,6), r2 (3,7).
void golden_exchange(Comm& comm) {
  if (comm.rank() == 0) {
    comm.set_phase("a");
    const std::vector<Dist> payload(2, 1.0);
    comm.send(1, 100, payload);
    comm.recv(2, 102);
  } else if (comm.rank() == 1) {
    comm.set_phase("b");
    comm.recv(0, 100);
    const std::vector<Dist> payload(4, 2.0);
    comm.send(2, 101, payload);
  } else {
    comm.set_phase("c");
    comm.recv(1, 101);
    const std::vector<Dist> payload(1, 3.0);
    comm.send(0, 102, payload);
  }
}

TEST(Trace, GoldenCriticalPathLatency) {
  Machine machine(3);
  machine.enable_tracing(true);
  machine.run(golden_exchange);
  EXPECT_EQ(machine.report().critical_latency, 3);
  EXPECT_EQ(machine.report().critical_bandwidth, 7);

  const CriticalPathReport path = machine.critical_path(CostAxis::kLatency);
  EXPECT_EQ(path.total, machine.report().critical_latency);

  // The path must cross exactly the two messages whose merges the message
  // side won; the tied first hop (r0 -> r1) is blamed on local history.
  ASSERT_EQ(path.hops.size(), 2u);
  EXPECT_EQ(path.hops[0].src, 1);
  EXPECT_EQ(path.hops[0].dst, 2);
  EXPECT_EQ(path.hops[0].tag, 101);
  EXPECT_EQ(path.hops[0].words, 4);
  EXPECT_EQ(path.hops[0].phase, "c");
  EXPECT_EQ(path.hops[1].src, 2);
  EXPECT_EQ(path.hops[1].dst, 0);
  EXPECT_EQ(path.hops[1].tag, 102);
  EXPECT_EQ(path.hops[1].words, 1);
  EXPECT_EQ(path.hops[1].phase, "a");

  // Contributions telescope to the total, attributed to the phase where
  // each cost accrued: r1's recv+send under "b", r2's send under "c".
  double sum = 0;
  for (const auto& step : path.steps) sum += step.contribution;
  EXPECT_EQ(sum, path.total);
  EXPECT_EQ(path.by_phase.at("b"), 2);
  EXPECT_EQ(path.by_phase.at("c"), 1);
}

TEST(Trace, GoldenCriticalPathBandwidth) {
  Machine machine(3);
  machine.enable_tracing(true);
  machine.run(golden_exchange);
  const CriticalPathReport path =
      machine.critical_path(CostAxis::kBandwidth);
  EXPECT_EQ(path.total, machine.report().critical_bandwidth);
  ASSERT_EQ(path.hops.size(), 2u);
  EXPECT_EQ(path.hops[0].src, 1);
  EXPECT_EQ(path.hops[1].src, 2);
  double sum = 0;
  for (const auto& step : path.steps) sum += step.contribution;
  EXPECT_EQ(sum, path.total);
  // r1: tied recv (2 words local) + send advance (4 words) = 6 under "b";
  // r2: send advance (1 word) under "c".
  EXPECT_EQ(path.by_phase.at("b"), 6);
  EXPECT_EQ(path.by_phase.at("c"), 1);
}

TEST(Trace, UntracedRunRecordsNothingAndWalkChecks) {
  Machine machine(3);
  machine.run(golden_exchange);
  EXPECT_FALSE(machine.trace().enabled());
  EXPECT_EQ(machine.trace().num_events(), 0u);
  EXPECT_THROW(machine.critical_path(), check_error);
}

TEST(Trace, ClockMonotoneAlongEveryTimeline) {
  Rng rng(5);
  const Graph graph = make_grid2d(8, 8, rng);
  SparseApspOptions options;
  options.height = 2;
  options.collect_distances = false;
  options.trace = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  ASSERT_TRUE(result.trace.enabled());
  EXPECT_GT(result.trace.num_events(), 0u);
  for (const auto& timeline : result.trace.per_rank) {
    CostClock previous;  // zero
    bool after_reset = false;
    for (const auto& e : timeline) {
      if (e.kind == TraceEventKind::kClockReset) {
        previous = CostClock{};
        after_reset = true;
        continue;
      }
      if (!after_reset) continue;  // setup may precede the reset
      EXPECT_LE(previous.latency, e.before.latency);
      EXPECT_LE(previous.words, e.before.words);
      EXPECT_LE(e.before.latency, e.after.latency);
      EXPECT_LE(e.before.words, e.after.words);
      previous = e.after;
    }
    EXPECT_TRUE(after_reset);
  }
}

TEST(Trace, SegmentsSumToCriticalCostsOnSparseApsp) {
  // ISSUE acceptance: the per-phase critical-path segments must sum to
  // the report's critical costs exactly (every value is integer-valued).
  Rng rng(5);
  const Graph graph = make_grid2d(10, 10, rng);
  for (int h : {2, 3}) {
    SparseApspOptions options;
    options.height = h;
    options.collect_distances = false;
    options.trace = true;
    const SparseApspResult result = run_sparse_apsp(graph, options);
    for (const CostAxis axis : {CostAxis::kLatency, CostAxis::kBandwidth}) {
      const CriticalPathReport path =
          extract_critical_path(result.trace, axis);
      const double expected = axis == CostAxis::kLatency
                                  ? result.costs.critical_latency
                                  : result.costs.critical_bandwidth;
      EXPECT_EQ(path.total, expected);
      double by_phase_sum = 0;
      for (const auto& [phase, cost] : path.by_phase) by_phase_sum += cost;
      EXPECT_EQ(by_phase_sum, expected);
      // Phase labels on the path are the algorithm's L<l>/R<r> labels.
      for (const auto& [phase, cost] : path.by_phase)
        EXPECT_TRUE(phase.find("R") != std::string::npos ||
                    phase == "collect" || phase == "setup")
            << phase;
    }
  }
}

TEST(Trace, TracingDoesNotPerturbCosts) {
  Rng rng(5);
  const Graph graph = make_grid2d(9, 9, rng);
  SparseApspOptions options;
  options.height = 3;
  options.collect_distances = false;
  SparseApspOptions traced = options;
  traced.trace = true;
  const SparseApspResult plain = run_sparse_apsp(graph, options);
  const SparseApspResult with_trace = run_sparse_apsp(graph, traced);
  EXPECT_EQ(plain.costs.critical_latency,
            with_trace.costs.critical_latency);
  EXPECT_EQ(plain.costs.critical_bandwidth,
            with_trace.costs.critical_bandwidth);
  EXPECT_EQ(plain.costs.total_messages, with_trace.costs.total_messages);
  EXPECT_EQ(plain.costs.total_words, with_trace.costs.total_words);
  EXPECT_EQ(plain.ops_per_rank, with_trace.ops_per_rank);
}

TEST(Trace, ResetClockSegmentsVolumes) {
  Machine machine(2);
  machine.run([](Comm& comm) {
    comm.set_phase("setup");
    if (comm.rank() == 0) {
      const std::vector<Dist> payload(3, 1.0);
      comm.send(1, 1, payload);
    } else {
      comm.recv(0, 1);
    }
    comm.reset_clock();
    comm.set_phase("setup");  // deliberately reused label
    if (comm.rank() == 1) {
      const std::vector<Dist> payload(5, 2.0);
      comm.send(0, 2, payload);
    } else {
      comm.recv(1, 2);
    }
  });
  const CostReport& report = machine.report();
  // Headline volumes cover post-reset traffic only; the pre-reset segment
  // is reported separately — even though the phase label was reused.
  EXPECT_EQ(report.total_messages, 1);
  EXPECT_EQ(report.total_words, 5);
  EXPECT_EQ(report.setup_messages, 1);
  EXPECT_EQ(report.setup_words, 3);
  ASSERT_TRUE(report.phase_total.count("setup"));
  EXPECT_EQ(report.phase_total.at("setup").words, 5);
  ASSERT_TRUE(report.setup_phase_total.count("setup"));
  EXPECT_EQ(report.setup_phase_total.at("setup").words, 3);
  // The clocks restart at the reset: one message of five words remains.
  EXPECT_EQ(report.critical_latency, 1);
  EXPECT_EQ(report.critical_bandwidth, 5);
}

TEST(Trace, TrafficMatrixBoundsChecked) {
  const TrafficMatrix empty;
  EXPECT_THROW(empty.words_between(0, 0), check_error);
  EXPECT_THROW(empty.messages_between(0, 0), check_error);

  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<Dist> payload(4, 1.0);
      comm.send(1, 7, payload);
    } else {
      comm.recv(0, 7);
    }
  });
  EXPECT_EQ(machine.traffic().words_between(0, 1), 4);
  EXPECT_THROW(machine.traffic().words_between(0, 2), check_error);
  EXPECT_THROW(machine.traffic().messages_between(-1, 0), check_error);
}

TEST(Trace, RunClearsTrafficAndTraceBetweenRuns) {
  Machine machine(2);
  machine.enable_tracing(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<Dist> payload(4, 1.0);
      comm.send(1, 7, payload);
    } else {
      comm.recv(0, 7);
    }
  });
  EXPECT_EQ(machine.traffic().words_between(0, 1), 4);
  EXPECT_GT(machine.trace().num_events(), 0u);

  // A second, silent run must not inherit the first run's counters.
  machine.run([](Comm&) {});
  EXPECT_EQ(machine.traffic().words_between(0, 1), 0);
  EXPECT_EQ(machine.traffic().messages_between(1, 0), 0);
  EXPECT_EQ(machine.trace().num_events(), 0u);
  EXPECT_EQ(machine.report().total_messages, 0);
}

TEST(Trace, CollectiveSpansAppearPaired) {
  Machine machine(4);
  machine.enable_tracing(true);
  machine.run([](Comm& comm) {
    std::vector<RankId> group{0, 1, 2, 3};
    DistBlock block(2, 2, 1.0);
    group_broadcast(comm, group, 0, block, 5);
  });
  for (const auto& timeline : machine.trace().per_rank) {
    int depth = 0;
    int begins = 0;
    for (const auto& e : timeline) {
      if (e.kind == TraceEventKind::kSpanBegin) {
        EXPECT_EQ(e.label, "bcast");
        ++depth;
        ++begins;
      } else if (e.kind == TraceEventKind::kSpanEnd) {
        --depth;
        EXPECT_GE(depth, 0);
      }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(begins, 1);
  }
}

TEST(TraceExport, ChromeTraceAndReportJsonAreWellFormed) {
  Machine machine(3);
  machine.enable_tracing(true);
  machine.run(golden_exchange);
  const CriticalPathReport lat = machine.critical_path(CostAxis::kLatency);
  const CriticalPathReport bw = machine.critical_path(CostAxis::kBandwidth);

  std::ostringstream trace_out;
  write_chrome_trace(trace_out, machine.trace(), &lat, &bw);
  const std::string trace_json = trace_out.str();
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"capsp\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"critical_latency\""), std::string::npos);
  // Flow arrows: one start and one finish per crossed message.
  EXPECT_NE(trace_json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\":\"f\""), std::string::npos);

  std::ostringstream report_out;
  write_cost_report_json(report_out, machine.report(), &lat, &bw);
  const std::string report_json = report_out.str();
  EXPECT_NE(report_json.find("\"critical_path_latency\""),
            std::string::npos);
  EXPECT_NE(report_json.find("\"by_phase\""), std::string::npos);

  // Structural sanity both parsers rely on: balanced braces/brackets and
  // no trailing garbage (the CI smoke runs a real JSON parser on top).
  for (const std::string& json : {trace_json, report_json}) {
    std::int64_t braces = 0, brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
      const char c = json[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      if (c == '{') ++braces;
      if (c == '}') --braces;
      if (c == '[') ++brackets;
      if (c == ']') --brackets;
      EXPECT_GE(braces, 0);
      EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_string);
  }
}

TEST(TraceExport, JsonEscapingIsSafe) {
  Machine machine(2);
  machine.enable_tracing(true);
  machine.run([](Comm& comm) {
    comm.set_phase("we\"ird\\phase\n");
    if (comm.rank() == 0) {
      const std::vector<Dist> payload(1, 1.0);
      comm.send(1, 1, payload);
    } else {
      comm.recv(0, 1);
    }
  });
  std::ostringstream out;
  write_chrome_trace(out, machine.trace());
  const std::string json = out.str();
  EXPECT_NE(json.find("we\\\"ird\\\\phase\\n"), std::string::npos);
  EXPECT_EQ(json.find("we\"ird"), std::string::npos);
}

}  // namespace
}  // namespace capsp
