// The sampling profiler (docs/profiling.md): ProfScope stack discipline
// and kernel accounting, sampler sessions (folded stacks, self/total
// attribution), the perf_event fallback path (forced via
// CAPSP_PROF_NO_PERF so it runs everywhere, PMU or not), machine-peak
// probing, and the JSON report shape — parsed back with the repo's own
// strict parser rather than string-matched.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include "machine/machine.hpp"
#include "semiring/microkernel.hpp"
#include "util/buildinfo.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/prof.hpp"

namespace capsp {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Spin under the given nested scopes until the live session has taken
/// at least `want` samples (or a deadline passes — the assertions on the
/// caller side then say what was missing).  Sampling is asynchronous, so
/// tests hold the stack open rather than assuming one sleep is enough.
void burn_until_sampled(std::int64_t want, milliseconds deadline) {
  const steady_clock::time_point until = steady_clock::now() + deadline;
  while (steady_clock::now() < until) {
    ProfScope outer("test.prof.outer");
    for (int i = 0; i < 64; ++i) {
      ProfScope inner("test.prof.inner");
      inner.add_ops(100);
      inner.add_bytes(800);
      // Some real work so the single-core host reschedules the sampler.
      volatile double sink = 0;
      for (int j = 0; j < 2000; ++j) sink = sink + j * 0.5;
    }
    if (Profiler::global().status().samples >= want) return;
  }
}

TEST(ProfScope, NoOpAndFreeOfKernelTableWhenDisabled) {
  ASSERT_FALSE(prof_enabled());
  {
    ProfScope scope("test.prof.disabled");
    scope.add_ops(123);
    scope.add_bytes(456);
  }
  // A later session must not see accounting from before it started.
  ASSERT_TRUE(Profiler::global().start());
  const ProfReport report = Profiler::global().stop();
  EXPECT_EQ(report.kernels.count("test.prof.disabled"), 0u);
}

TEST(Profiler, StartStopLifecycleAndBusySignal) {
  EXPECT_FALSE(Profiler::global().running());
  ASSERT_TRUE(Profiler::global().start());
  EXPECT_TRUE(prof_enabled());
  EXPECT_TRUE(Profiler::global().running());
  EXPECT_FALSE(Profiler::global().start());  // busy -> refused, not UB
  const ProfReport report = Profiler::global().stop();
  EXPECT_FALSE(Profiler::global().running());
  EXPECT_FALSE(prof_enabled());
  EXPECT_TRUE(report.enabled);
  EXPECT_GE(report.duration_seconds, 0.0);
  EXPECT_EQ(report.dropped, 0);  // the sampler drains its own ring

  // And a fresh session can start after the old one.
  ASSERT_TRUE(Profiler::global().start());
  Profiler::global().stop();
}

TEST(Profiler, KernelAccountingIsExact) {
  ProfOptions options;
  options.hz = 61;  // accounting is synchronous; sampling rate irrelevant
  ASSERT_TRUE(Profiler::global().start(options));
  for (int i = 0; i < 10; ++i) {
    ProfScope scope("test.prof.kernel");
    scope.add_ops(100);
    scope.add_bytes(800);
  }
  const ProfReport report = Profiler::global().stop();
  const auto it = report.kernels.find("test.prof.kernel");
  ASSERT_NE(it, report.kernels.end());
  EXPECT_EQ(it->second.calls, 10);
  EXPECT_EQ(it->second.ops, 1000);
  EXPECT_EQ(it->second.bytes, 8000);
  EXPECT_GE(it->second.seconds, 0.0);
  EXPECT_DOUBLE_EQ(it->second.intensity(), 1000.0 / 8000.0);
}

TEST(Profiler, FoldedStacksNestAndAttributeSelfVsTotal) {
  ProfOptions options;
  options.hz = 1997;
  ASSERT_TRUE(Profiler::global().start(options));
  burn_until_sampled(5, milliseconds(3000));
  const ProfReport report = Profiler::global().stop();
  ASSERT_GT(report.samples, 0) << "sampler never observed the busy stack";

  bool saw_nested = false;
  for (const FoldedStack& folded : report.folded) {
    EXPECT_FALSE(folded.stack.empty());
    EXPECT_GT(folded.count, 0);
    if (folded.stack == "test.prof.outer;test.prof.inner") saw_nested = true;
  }
  EXPECT_TRUE(saw_nested) << "expected outer;inner in the folded output";

  // Total counts every stack the scope appears on; self only the leaf.
  const auto outer_total = report.total_samples.find("test.prof.outer");
  ASSERT_NE(outer_total, report.total_samples.end());
  const auto inner_total = report.total_samples.find("test.prof.inner");
  ASSERT_NE(inner_total, report.total_samples.end());
  EXPECT_GE(outer_total->second, inner_total->second);
  std::int64_t folded_sum = 0;
  for (const FoldedStack& folded : report.folded) folded_sum += folded.count;
  EXPECT_EQ(folded_sum, report.samples);
}

TEST(Profiler, BlockedReceiveIsSampledAsMachineWait) {
  ProfOptions options;
  options.hz = 1997;
  options.perf_counters = false;
  ASSERT_TRUE(Profiler::global().start(options));
  Machine machine(2);
  machine.run([](Comm& comm) {
    if (comm.rank() == 1) {
      ProfScope region("test.prof.region");
      comm.recv(0, 7);
      return;
    }
    // Rank 1 is the only thread inside a scope, so every sample is of
    // it; hold the message back until the sampler has seen it blocked.
    const steady_clock::time_point until =
        steady_clock::now() + milliseconds(3000);
    while (Profiler::global().status().samples < 20 &&
           steady_clock::now() < until)
      std::this_thread::sleep_for(milliseconds(1));
    comm.send(1, 7, std::vector<Dist>{1.0});
  });
  const ProfReport report = Profiler::global().stop();
  bool saw_wait = false;
  for (const FoldedStack& folded : report.folded)
    if (folded.stack == "test.prof.region;machine.wait") saw_wait = true;
  EXPECT_TRUE(saw_wait) << "blocked samples must not land as region self";
}

TEST(Profiler, WriteFoldedMatchesTheReport) {
  ProfOptions options;
  options.hz = 1997;
  ASSERT_TRUE(Profiler::global().start(options));
  burn_until_sampled(3, milliseconds(3000));
  const ProfReport report = Profiler::global().stop();
  std::ostringstream out;
  report.write_folded(out);
  // One "stack count" line per folded entry, biggest first.
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  std::int64_t last = std::numeric_limits<std::int64_t>::max();
  while (std::getline(in, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::int64_t count = std::stoll(line.substr(space + 1));
    EXPECT_LE(count, last);
    last = count;
    ++lines;
  }
  EXPECT_EQ(lines, report.folded.size());
}

TEST(Profiler, PerfFallbackWhenSyscallUnavailable) {
  // CAPSP_PROF_NO_PERF models a host that denies perf_event_open (CI
  // containers, locked-down kernels): every counter must come back
  // unavailable with an error string, and the rest of the report —
  // sampling, kernels, folded stacks — must be unaffected.
  ::setenv("CAPSP_PROF_NO_PERF", "1", 1);
  ASSERT_TRUE(Profiler::global().start());
  {
    ProfScope scope("test.prof.noperf");
    scope.add_ops(1);
  }
  const ProfReport report = Profiler::global().stop();
  ::unsetenv("CAPSP_PROF_NO_PERF");

  EXPECT_TRUE(report.perf.attempted);
  EXPECT_FALSE(report.perf.any_available);
  ASSERT_FALSE(report.perf.counters.empty());
  for (const PerfCounter& counter : report.perf.counters) {
    EXPECT_FALSE(counter.available);
    EXPECT_FALSE(counter.error.empty());
  }
  EXPECT_EQ(report.effective_ghz(), 0.0);  // no cycles/task-clock pair
  EXPECT_EQ(report.kernels.count("test.prof.noperf"), 1u);
}

TEST(Profiler, DisablingCountersSkipsTheAttempt) {
  ProfOptions options;
  options.perf_counters = false;
  ASSERT_TRUE(Profiler::global().start(options));
  const ProfReport report = Profiler::global().stop();
  EXPECT_FALSE(report.perf.attempted);
  EXPECT_FALSE(report.perf.any_available);
}

TEST(MachinePeak, ProbedOnceAndPositive) {
  const MachinePeak& peak = machine_peak();
  EXPECT_GT(peak.minplus_ops_per_second, 0.0);
  EXPECT_GE(peak.minplus_ops_spread, 0.0);  // best-of-trials spread
  EXPECT_LT(peak.minplus_ops_spread, 1.0);
  EXPECT_GT(peak.stream_bytes_per_second, 0.0);
  // Memoized: the second call returns the same numbers without reprobing.
  const MachinePeak& again = machine_peak();
  EXPECT_DOUBLE_EQ(peak.minplus_ops_per_second, again.minplus_ops_per_second);
}

TEST(BuildInfo, NamesTheKernelTileCopy) {
  const std::string want = kernel_isa_name(kernel_isa());
  EXPECT_EQ(build_info().kernel, want);
  EXPECT_NE(version_string("t").find("kernel: " + want), std::string::npos);
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  write_build_info_fields(json);
  json.end_object();
  const JsonValue doc = parse_json(out.str());
  const JsonValue* kernel = doc.find("provenance")->find("kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->string, want);
}

TEST(ProfReport, JsonRoundTripsThroughTheStrictParser) {
  ProfOptions options;
  options.hz = 1997;
  ASSERT_TRUE(Profiler::global().start(options));
  burn_until_sampled(1, milliseconds(2000));
  const ProfReport report = Profiler::global().stop();

  std::ostringstream out;
  write_prof_report_json(out, report);
  const JsonValue doc = parse_json(out.str());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* profile = doc.find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_TRUE(profile->find("enabled")->boolean);
  EXPECT_DOUBLE_EQ(profile->find("hz")->number, 1997.0);
  EXPECT_GE(profile->find("samples")->number, 1.0);
  ASSERT_NE(profile->find("machine_peak"), nullptr);
  EXPECT_GT(profile->find("machine_peak")->find("minplus_ops_per_second")
                ->number, 0.0);
  ASSERT_NE(profile->find("machine_peak")->find("minplus_ops_spread"),
            nullptr);
  const JsonValue* kernels = profile->find("kernels");
  ASSERT_NE(kernels, nullptr);
  const JsonValue* inner = kernels->find("test.prof.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_GT(inner->find("ops")->number, 0.0);
  EXPECT_GT(inner->find("ops_per_second")->number, 0.0);
  ASSERT_NE(profile->find("folded"), nullptr);
  EXPECT_TRUE(profile->find("folded")->is_array());
  const JsonValue* perf = profile->find("perf");
  ASSERT_NE(perf, nullptr);
  ASSERT_NE(perf->find("counters"), nullptr);
}

TEST(Profiler, DeepRecursionClampsAtMaxDepthWithoutCorruption) {
  ProfOptions options;
  options.hz = 997;
  ASSERT_TRUE(Profiler::global().start(options));
  // Recurse past kMaxDepth: frames beyond the cap are not recorded, but
  // enter/leave stays balanced and nothing crashes.
  struct Recurse {
    static void go(int depth) {
      if (depth == 0) return;
      ProfScope scope("test.prof.deep");
      go(depth - 1);
    }
  };
  const steady_clock::time_point until =
      steady_clock::now() + milliseconds(200);
  while (steady_clock::now() < until) Recurse::go(64);
  const ProfReport report = Profiler::global().stop();
  for (const FoldedStack& folded : report.folded) {
    // No stack can exceed the clamp (kMaxDepth frames of the same name).
    std::size_t frames = 1;
    for (char c : folded.stack) frames += (c == ';') ? 1 : 0;
    EXPECT_LE(frames, static_cast<std::size_t>(prof_detail::kMaxDepth));
  }
  const auto it = report.kernels.find("test.prof.deep");
  ASSERT_NE(it, report.kernels.end());
  EXPECT_GT(it->second.calls, 0);
}

}  // namespace
}  // namespace capsp
