// The metrics registry (docs/metrics.md): counters / gauges / log-scale
// histograms, thread-safety of the sharded locks, RankContextScope sink
// redirection, the per-rank merge at the end of Machine::run, and the
// JSON round-trip through util/json_parse.hpp.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "util/check.hpp"
#include "util/context.hpp"
#include "util/json_parse.hpp"
#include "util/metrics.hpp"

namespace capsp {
namespace {

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  reg.counter_add("a.b.count");
  reg.counter_add("a.b.count", 4);
  reg.gauge_set("a.b.level", 2.5);
  reg.gauge_set("a.b.level", 1.5);
  reg.gauge_max("a.b.peak", 3.0);
  reg.gauge_max("a.b.peak", 2.0);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("a.b.count").kind, MetricKind::kCounter);
  EXPECT_EQ(snap.at("a.b.count").counter, 5);
  EXPECT_EQ(snap.at("a.b.level").gauge, 1.5);  // last write wins
  EXPECT_EQ(snap.at("a.b.peak").gauge, 3.0);   // max wins
}

TEST(Metrics, HistogramPercentileGolden) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_EQ(h.count, 100);
  EXPECT_EQ(h.min, 1.0);
  EXPECT_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Median lands in bucket (32, 64]; its upper bound is the estimate.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 64.0);
  // p95 lands in bucket (64, 128] but is clamped to the exact max.
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 100.0);
}

TEST(Metrics, HistogramSingleValueExact) {
  Histogram h;
  for (int i = 0; i < 7; ++i) h.observe(42.0);
  // Clamping into [min, max] makes single-valued distributions exact.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Metrics, HistogramSubUnitValues) {
  Histogram h;
  h.observe(0.25);
  h.observe(0.5);
  h.observe(1.0);
  // All of these live in bucket 0 (values <= 1); clamped to [min, max].
  EXPECT_EQ(h.count, 3);
  EXPECT_GE(h.percentile(0.5), 0.25);
  EXPECT_LE(h.percentile(0.5), 1.0);
}

TEST(Metrics, HistogramMerge) {
  Histogram a, b;
  for (int v = 1; v <= 50; ++v) a.observe(v);
  for (int v = 51; v <= 100; ++v) b.observe(v);
  a.merge(b);
  EXPECT_EQ(a.count, 100);
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 100.0);
  EXPECT_DOUBLE_EQ(a.mean(), 50.5);
  EXPECT_DOUBLE_EQ(a.percentile(0.5), 64.0);
}

TEST(Metrics, ObserveFeedsHistogram) {
  MetricsRegistry reg;
  reg.observe("x.y.sizes", 3.0);
  reg.observe("x.y.sizes", 5.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.at("x.y.sizes").kind, MetricKind::kHistogram);
  EXPECT_EQ(snap.at("x.y.sizes").histogram.count, 2);
  EXPECT_DOUBLE_EQ(snap.at("x.y.sizes").histogram.mean(), 4.0);
}

TEST(Metrics, KindConflictThrows) {
  MetricsRegistry reg;
  reg.counter_add("same.name");
  EXPECT_THROW(reg.observe("same.name", 1.0), check_error);
  EXPECT_THROW(reg.gauge_set("same.name", 1.0), check_error);
}

TEST(Metrics, MergeFromCombines) {
  MetricsRegistry a, b;
  a.counter_add("c", 2);
  b.counter_add("c", 3);
  a.gauge_max("g", 1.0);
  b.gauge_max("g", 5.0);
  b.observe("h", 7.0);
  a.merge_from(b);
  const MetricsSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.at("c").counter, 5);
  EXPECT_EQ(snap.at("g").gauge, 5.0);
  EXPECT_EQ(snap.at("h").histogram.count, 1);
}

TEST(Metrics, ClearEmpties) {
  MetricsRegistry reg;
  reg.counter_add("c");
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Metrics, ScopedSinkRedirectsAndRestores) {
  MetricsRegistry outer;
  MetricsRegistry inner;
  const RankContextScope outer_context(-1, &outer);
  metrics().counter_add("hit");
  {
    const RankContextScope inner_context(-1, &inner);
    metrics().counter_add("hit", 10);
  }
  metrics().counter_add("hit");
  EXPECT_EQ(outer.snapshot().at("hit").counter, 2);
  EXPECT_EQ(inner.snapshot().at("hit").counter, 10);
}

TEST(Metrics, ThreadSafetyUnderConcurrentUpdates) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter_add("shared.counter");
        reg.counter_add("per.thread." + std::to_string(t));
        reg.observe("shared.histogram", static_cast<double>(i % 64 + 1));
        reg.gauge_max("shared.peak", static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.at("shared.counter").counter, kThreads * kIters);
  EXPECT_EQ(snap.at("shared.histogram").histogram.count, kThreads * kIters);
  EXPECT_EQ(snap.at("shared.peak").gauge, kIters - 1);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(snap.at("per.thread." + std::to_string(t)).counter, kIters);
}

TEST(Metrics, MachineRunMergesPerRankSinks) {
  MetricsRegistry caller;
  const RankContextScope context(-1, &caller);
  Machine machine(4);
  machine.run([](Comm& comm) {
    metrics().counter_add("test.rank.ticks", comm.rank() + 1);
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<Dist>(3, 1.0));
    } else if (comm.rank() == 1) {
      comm.recv(0, 7);
    }
  });
  const MetricsSnapshot snap = caller.snapshot();
  // 1 + 2 + 3 + 4 from the rank bodies, merged deterministically.
  EXPECT_EQ(snap.at("test.rank.ticks").counter, 10);
  // The comm fabric instruments itself: one frame of three words.
  EXPECT_EQ(snap.at("machine.comm.frames").counter, 1);
  EXPECT_EQ(snap.at("machine.comm.words").counter, 3);
  EXPECT_EQ(snap.at("machine.run.count").counter, 1);
  EXPECT_EQ(snap.at("machine.run.ranks").gauge, 4.0);
}

TEST(Metrics, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter_add("a.count", 12);
  reg.gauge_set("a.gauge", 2.5);
  for (int v = 1; v <= 8; ++v) reg.observe("a.hist", v);

  std::ostringstream out;
  write_metrics_json(out, reg);
  const JsonValue doc = parse_json(out.str());
  const JsonValue* m = doc.find("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->find("a.count"), nullptr);
  EXPECT_EQ(m->find("a.count")->find("kind")->string, "counter");
  EXPECT_EQ(m->find("a.count")->find("value")->number, 12.0);
  EXPECT_EQ(m->find("a.gauge")->find("value")->number, 2.5);
  const JsonValue* h = m->find("a.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 8.0);
  EXPECT_EQ(h->find("min")->number, 1.0);
  EXPECT_EQ(h->find("max")->number, 8.0);
  EXPECT_DOUBLE_EQ(h->find("mean")->number, 4.5);
}

}  // namespace
}  // namespace capsp
