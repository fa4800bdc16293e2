// Tests for the tiered serving front-end (serve/tiered): tier routing
// and escalation rules in every mode, degraded sketches, the served gap
// of k-nearest answers, deterministic (distance, vertex id) k-nearest
// tie-breaking across PathOracle / DistanceService / the approx tier, the
// serve.tier.* metrics, the slow-trace count across both tiers, and the
// summary "tier" section.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "approx/sketch.hpp"
#include "baseline/reference.hpp"
#include "core/path_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/nested_dissection.hpp"
#include "serve/service.hpp"
#include "serve/tiered.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

/// Everything a tiered test needs: a grid graph, its exact matrix behind
/// an in-memory snapshot service, and an ND landmark sketch.
struct Fixture {
  Graph graph;
  DistBlock exact;
  std::shared_ptr<SnapshotReader> reader;
  std::unique_ptr<DistanceService> service;
  std::shared_ptr<const LandmarkSketch> sketch;

  explicit Fixture(Vertex n = 64, int nd_height = 3) {
    Rng rng(7);
    graph = make_named_graph("grid", n, rng);
    exact = reference_apsp(graph);
    reader = std::make_shared<SnapshotReader>(exact, 8);
    service = std::make_unique<DistanceService>(reader, graph);
    Rng nd_rng(7);
    const Dissection nd = nested_dissection(graph, nd_height, nd_rng);
    sketch = std::make_shared<const LandmarkSketch>(build_sketch(graph, nd));
  }
};

TEST(TierMode, Parse) {
  TierMode mode = TierMode::kAuto;
  EXPECT_TRUE(parse_tier_mode("approx", &mode));
  EXPECT_EQ(mode, TierMode::kApprox);
  EXPECT_TRUE(parse_tier_mode("exact", &mode));
  EXPECT_EQ(mode, TierMode::kExact);
  EXPECT_TRUE(parse_tier_mode("auto", &mode));
  EXPECT_EQ(mode, TierMode::kAuto);
  EXPECT_FALSE(parse_tier_mode("bogus", &mode));
  EXPECT_FALSE(parse_tier_mode("", &mode));
}

TEST(Tiered, ExactModeIsExactAndNotEscalated) {
  Fixture f;
  TieredOptions options;
  options.mode = TierMode::kExact;
  TieredDistanceService tiered(*f.service, f.sketch, options);
  for (Vertex u = 0; u < 8; ++u) {
    for (Vertex v = 0; v < 8; ++v) {
      const TieredDistanceReply reply = tiered.distance(u, v);
      EXPECT_EQ(reply.error, ServeError::kOk);
      EXPECT_EQ(reply.tier, Tier::kExact);
      EXPECT_FALSE(reply.escalated);  // caller asked; nothing escalated
      EXPECT_EQ(reply.estimate, f.exact.at(u, v));
      EXPECT_EQ(reply.lower_bound, reply.estimate);
      EXPECT_EQ(reply.upper_bound, reply.estimate);
    }
  }
  EXPECT_EQ(tiered.stats().exact, 64);
  EXPECT_EQ(tiered.stats().approx, 0);
  EXPECT_EQ(tiered.stats().escalated, 0);
}

TEST(Tiered, ApproxModeAnswersWithCertifiedInterval) {
  Fixture f;
  TieredOptions options;
  options.mode = TierMode::kApprox;
  options.stretch_budget = 0;  // irrelevant: kApprox never escalates
  TieredDistanceService tiered(*f.service, f.sketch, options);
  const Vertex n = f.graph.num_vertices();
  for (Vertex u = 0; u < n; u += 3) {
    for (Vertex v = 0; v < n; v += 5) {
      const TieredDistanceReply reply = tiered.distance(u, v);
      EXPECT_EQ(reply.error, ServeError::kOk);
      EXPECT_EQ(reply.tier, Tier::kApprox);
      EXPECT_FALSE(reply.escalated);
      EXPECT_EQ(reply.estimate, reply.upper_bound);
      const Dist d = f.exact.at(u, v);
      EXPECT_LE(reply.lower_bound, d + 1e-9);
      EXPECT_GE(reply.upper_bound + 1e-9, d);
    }
  }
  EXPECT_EQ(tiered.stats().exact, 0);
  EXPECT_EQ(tiered.stats().escalated, 0);
}

TEST(Tiered, AutoEscalatesOnGapAndHonorsBudget) {
  Fixture f;
  TieredOptions options;
  options.mode = TierMode::kAuto;
  options.stretch_budget = 0;  // any nonzero gap escalates
  TieredDistanceService tiered(*f.service, f.sketch, options);
  const Vertex n = f.graph.num_vertices();
  std::int64_t escalations = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      const TieredDistanceReply reply = tiered.distance(u, v);
      EXPECT_EQ(reply.error, ServeError::kOk);
      // Every answer is exact: either the interval was already tight
      // (landmark hit, u == v) or the query escalated to the tile path.
      EXPECT_EQ(reply.estimate, f.exact.at(u, v));
      if (reply.escalated) {
        EXPECT_EQ(reply.tier, Tier::kExact);
        ++escalations;
      }
    }
  }
  EXPECT_GT(escalations, 0);
  EXPECT_EQ(tiered.stats().escalated, escalations);
  EXPECT_EQ(tiered.stats().escalated_gap, escalations);
  EXPECT_EQ(tiered.stats().escalated_degraded, 0);

  // An infinite budget accepts every certified interval: no escalations.
  // (Fresh fixture: stats() mirrors the wrapped service's counters, which
  // are cumulative across tiered front-ends on the same service.)
  Fixture g;
  TieredDistanceService lax(
      *g.service, g.sketch,
      TieredOptions{.mode = TierMode::kAuto, .stretch_budget = 1e18});
  std::int64_t approx_answers = 0;
  for (Vertex u = 0; u < n; u += 2) {
    const TieredDistanceReply reply = lax.distance(u, (u + 7) % n);
    EXPECT_EQ(reply.tier, Tier::kApprox);
    ++approx_answers;
  }
  EXPECT_EQ(lax.stats().approx, approx_answers);
}

TEST(Tiered, DegradedSketchEscalatesOrDegrades) {
  Fixture f;
  // Null sketch: the approx tier never existed.
  TieredDistanceService without(*f.service, nullptr, TieredOptions{});
  EXPECT_TRUE(without.sketch_degraded());
  const TieredDistanceReply auto_reply = without.distance(0, 5);
  EXPECT_EQ(auto_reply.error, ServeError::kOk);
  EXPECT_EQ(auto_reply.tier, Tier::kExact);
  EXPECT_TRUE(auto_reply.escalated);
  EXPECT_EQ(auto_reply.estimate, f.exact.at(0, 5));
  EXPECT_EQ(without.stats().escalated_degraded, 1);
  // kApprox mode has nothing to answer with: a structured degraded
  // reply, not a crash and not a silent exact answer.
  TieredDistanceService approx_without(*f.service, nullptr,
                                       {.mode = TierMode::kApprox});
  const TieredDistanceReply approx_reply = approx_without.distance(0, 5);
  EXPECT_EQ(approx_reply.error, ServeError::kDegraded);
  EXPECT_EQ(approx_reply.tier, Tier::kApprox);
  EXPECT_EQ(approx_reply.lower_bound, 0);  // certifies nothing
  EXPECT_EQ(approx_without.stats().approx, 1);

  // A vertex-count mismatch is degraded too.
  Fixture small(36);
  TieredDistanceService mismatched(*f.service, small.sketch, TieredOptions{});
  EXPECT_TRUE(mismatched.sketch_degraded());
}

TEST(Tiered, DisconnectedPairIsExactOnApproxTier) {
  // Two components, landmarks everywhere: the sketch proves
  // disconnection, so auto mode answers inf from the approx tier.
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 1);
  builder.add_edge(1, 2, 1);
  builder.add_edge(3, 4, 1);
  builder.add_edge(4, 5, 1);
  Graph graph = std::move(builder).build();
  const DistBlock exact = reference_apsp(graph);
  auto reader = std::make_shared<SnapshotReader>(exact, 4);
  DistanceService service(reader, graph);
  auto sketch = std::make_shared<const LandmarkSketch>(
      build_sketch(graph, std::vector<Vertex>{0, 3}));
  TieredDistanceService tiered(service, sketch, TieredOptions{});
  const TieredDistanceReply reply = tiered.distance(0, 4);
  EXPECT_EQ(reply.error, ServeError::kOk);
  EXPECT_EQ(reply.tier, Tier::kApprox);
  EXPECT_TRUE(is_inf(reply.estimate));
  EXPECT_TRUE(is_inf(reply.lower_bound));
}

TEST(Tiered, KNearestMatchesExactUnderTightBudget) {
  Fixture f;
  TieredOptions options;
  options.mode = TierMode::kAuto;
  options.stretch_budget = 0;
  TieredDistanceService tiered(*f.service, f.sketch, options);
  for (Vertex u = 0; u < 10; ++u) {
    const TieredKNearestReply got = tiered.k_nearest(u, 5);
    const KNearestReply want = f.service->k_nearest(u, 5);
    ASSERT_EQ(got.error, ServeError::kOk);
    EXPECT_EQ(got.nearest, want.nearest);
  }
}

TEST(Tiered, KNearestApproxSelectsByUpperBound) {
  Fixture f;
  TieredOptions options;
  options.mode = TierMode::kApprox;
  TieredDistanceService tiered(*f.service, f.sketch, options);
  const TieredKNearestReply reply = tiered.k_nearest(3, 6);
  ASSERT_EQ(reply.error, ServeError::kOk);
  EXPECT_EQ(reply.tier, Tier::kApprox);
  ASSERT_EQ(reply.nearest.size(), 6u);
  for (std::size_t i = 0; i < reply.nearest.size(); ++i) {
    EXPECT_NE(reply.nearest[i].vertex, 3);
    // Distances are the certified upper bounds, sorted with the shared
    // (distance, id) tie-break.
    if (i > 0) {
      const NearVertex& a = reply.nearest[i - 1];
      const NearVertex& b = reply.nearest[i];
      EXPECT_TRUE(a.distance < b.distance ||
                  (a.distance == b.distance && a.vertex < b.vertex));
    }
  }
}

TEST(Tiered, KNearestRecordsServedGapInEveryMode) {
  // The same 16 queries served from the sketch in kApprox and in kAuto
  // with an unbounded budget: both record the widest gap they served.
  const auto max_gap_ppm = [](TierMode mode) {
    Fixture f;
    TieredDistanceService tiered(*f.service, f.sketch,
                                 {.mode = mode, .stretch_budget = 1e18});
    for (Vertex u = 0; u < 16; ++u)
      EXPECT_EQ(tiered.k_nearest(u, 6).tier, Tier::kApprox);
    const MetricsSnapshot metrics = f.service->metrics_snapshot();
    const auto it = metrics.find("serve.tier.gap_ppm");
    EXPECT_NE(it, metrics.end());
    if (it == metrics.end()) return 0.0;
    EXPECT_EQ(it->second.histogram.count, 16);
    return it->second.histogram.max;
  };
  const double approx = max_gap_ppm(TierMode::kApprox);
  EXPECT_GT(approx, 0);
  EXPECT_EQ(approx, max_gap_ppm(TierMode::kAuto));
}

TEST(KNearest, DeterministicTieBreakAcrossImplementations) {
  // A tie-heavy star: every spoke is at distance 1 from the hub, and all
  // spoke-spoke distances are 2.  Any nondeterministic selection would
  // be exposed immediately; the contract is (distance, id) ascending.
  constexpr Vertex kSpokes = 9;
  GraphBuilder builder(kSpokes + 1);
  for (Vertex v = 1; v <= kSpokes; ++v) builder.add_edge(0, v, 1.0);
  Graph graph = std::move(builder).build();
  const DistBlock exact = reference_apsp(graph);

  const PathOracle oracle(graph, exact);
  const auto oracle_got = oracle.k_nearest(0, 4);
  ASSERT_EQ(oracle_got.size(), 4u);
  for (Vertex i = 0; i < 4; ++i) {
    EXPECT_EQ(oracle_got[static_cast<std::size_t>(i)].first, 1.0);
    EXPECT_EQ(oracle_got[static_cast<std::size_t>(i)].second, i + 1);
  }
  // From a spoke: the hub first (distance 1), then the other spokes at
  // distance 2 in id order.
  const auto from_spoke = oracle.k_nearest(5, 3);
  ASSERT_EQ(from_spoke.size(), 3u);
  EXPECT_EQ(from_spoke[0], (std::pair<Dist, Vertex>(1.0, 0)));
  EXPECT_EQ(from_spoke[1], (std::pair<Dist, Vertex>(2.0, 1)));
  EXPECT_EQ(from_spoke[2], (std::pair<Dist, Vertex>(2.0, 2)));

  auto reader = std::make_shared<SnapshotReader>(exact, 4);
  DistanceService service(reader, graph);
  const KNearestReply service_got = service.k_nearest(5, 3);
  ASSERT_EQ(service_got.error, ServeError::kOk);
  ASSERT_EQ(service_got.nearest.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(service_got.nearest[i].distance,
              from_spoke[i].first);
    EXPECT_EQ(service_got.nearest[i].vertex, from_spoke[i].second);
  }

  // The approx tier with an all-vertex sketch has exact bounds, so all
  // three implementations must agree bit-for-bit.
  std::vector<Vertex> all;
  for (Vertex v = 0; v <= kSpokes; ++v) all.push_back(v);
  auto sketch = std::make_shared<const LandmarkSketch>(
      build_sketch(graph, std::move(all)));
  TieredDistanceService tiered(service, sketch, {.mode = TierMode::kApprox});
  const TieredKNearestReply tiered_got = tiered.k_nearest(5, 3);
  ASSERT_EQ(tiered_got.nearest.size(), 3u);
  EXPECT_EQ(tiered_got.nearest, service_got.nearest);
}

TEST(Tiered, MetricsMirrorStats) {
  Fixture f;
  TieredOptions options;
  options.mode = TierMode::kAuto;
  options.stretch_budget = 0.1;
  TieredDistanceService tiered(*f.service, f.sketch, options);
  for (Vertex u = 0; u < 16; ++u)
    tiered.distance(u, f.graph.num_vertices() - 1 - u);
  const TieredDistanceService::Stats stats = tiered.stats();
  EXPECT_EQ(stats.approx + stats.escalated, 16);
  const MetricsSnapshot metrics = f.service->metrics_snapshot();
  EXPECT_EQ(counter_value(metrics, "serve.tier.request.approx"), stats.approx);
  EXPECT_EQ(counter_value(metrics, "serve.tier.request.exact"), stats.exact);
  EXPECT_EQ(counter_value(metrics, "serve.tier.escalated"), stats.escalated);
  const auto gauge_it = metrics.find("serve.tier.landmarks");
  ASSERT_NE(gauge_it, metrics.end());
  EXPECT_EQ(gauge_it->second.gauge,
            static_cast<double>(f.sketch->num_landmarks()));
  // Per-tier SLOs saw the same requests.
  EXPECT_EQ(tiered.approx_slo_snapshot().availability.total, stats.approx);
}

TEST(Tiered, SlowTraceCounterCountsEveryTier) {
  Fixture f;
  // A service whose slow log keeps every trace, the approx tier's too.
  ServeOptions options;
  options.slow_trace_ms = 1e-6;
  DistanceService service(f.reader, f.graph, options);
  TieredDistanceService approx(service, f.sketch, {.mode = TierMode::kApprox});
  TieredDistanceService exact(service, f.sketch, {.mode = TierMode::kExact});
  for (Vertex u = 0; u < 20; ++u)
    EXPECT_EQ(approx.distance(u, u + 1).tier, Tier::kApprox);
  for (Vertex u = 0; u < 10; ++u)
    EXPECT_EQ(exact.distance(u, u + 2).tier, Tier::kExact);
  service.stop();  // joins the workers: every exact trace is routed
  EXPECT_EQ(service.trace_log().stats().slow, 30);
  EXPECT_EQ(counter_value(service.metrics_snapshot(), "serve.trace.slow"),
            service.trace_log().stats().slow);
}

TEST(Tiered, SummaryContainsTierSection) {
  Fixture f;
  TieredDistanceService tiered(*f.service, f.sketch, TieredOptions{});
  for (Vertex u = 0; u < 8; ++u) tiered.distance(u, u + 20);
  tiered.k_nearest(0, 3);
  std::ostringstream out;
  f.service->write_summary_json(out);
  const std::string summary = out.str();
  EXPECT_NE(summary.find("\"tier\""), std::string::npos);
  EXPECT_NE(summary.find("\"stretch_budget\""), std::string::npos);
  EXPECT_NE(summary.find("\"escalated\""), std::string::npos);
  EXPECT_NE(summary.find("\"landmarks\""), std::string::npos);
}

TEST(Tiered, SummaryHookClearsOnDestruction) {
  Fixture f;
  {
    TieredDistanceService tiered(*f.service, f.sketch, TieredOptions{});
    tiered.distance(0, 1);
  }
  // The wrapped service outlives the tier; its summary must not call a
  // dangling extension.
  std::ostringstream out;
  f.service->write_summary_json(out);
  EXPECT_EQ(out.str().find("\"stretch_budget\""), std::string::npos);
}

TEST(Tiered, SummaryKeepsASurvivingFrontEndsSection) {
  // Two front ends over one service, one per mode: destroying the newer
  // one must leave the older one's section in the summary.
  Fixture f;
  const auto summary = [&f] {
    std::ostringstream out;
    f.service->write_summary_json(out);
    return out.str();
  };
  TieredDistanceService approx(*f.service, f.sketch,
                               TieredOptions{.mode = TierMode::kApprox});
  {
    TieredDistanceService exact(*f.service, f.sketch,
                                TieredOptions{.mode = TierMode::kExact});
    exact.distance(0, 1);
    EXPECT_NE(summary().find("\"mode\":\"exact\""), std::string::npos);
  }
  approx.distance(0, 1);
  const std::string after = summary();
  EXPECT_NE(after.find("\"tier\""), std::string::npos);
  EXPECT_NE(after.find("\"mode\":\"approx\""), std::string::npos);
}

}  // namespace
}  // namespace capsp
