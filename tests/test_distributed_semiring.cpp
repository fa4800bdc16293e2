// Tests for the semiring-generic distributed scheduler: the identical
// communication-avoiding schedule computing widest paths and transitive
// closure, checked against sequential oracles, plus the invariance of
// the *communication* profile across semirings (the schedule is data-
// oblivious: same graph, same machine ⇒ same messages, whatever the
// algebra).
#include <gtest/gtest.h>

#include "core/closure.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace capsp {
namespace {

WeightOptions capacities() {
  WeightOptions opts;
  opts.min_weight = 1;
  opts.max_weight = 25;
  return opts;
}

class DistributedBottleneck
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistributedBottleneck, MatchesWidestDijkstra) {
  const auto [case_index, height] = GetParam();
  Rng rng(400 + static_cast<std::uint64_t>(case_index));
  Graph graph;
  switch (case_index) {
    case 0: graph = make_grid2d(8, 8, rng, capacities()); break;
    case 1: graph = make_erdos_renyi(60, 4.0, rng, capacities()); break;
    case 2: graph = make_random_tree(60, rng, capacities()); break;
    default:
      graph = make_random_geometric(55, 0.22, rng, capacities());
      break;
  }
  SparseApspOptions options;
  options.height = height;
  const SparseApspResult result = run_sparse_bottleneck(graph, options);
  for (Vertex s = 0; s < graph.num_vertices(); ++s) {
    const auto oracle = widest_path_sssp(graph, s);
    for (Vertex t = 0; t < graph.num_vertices(); ++t) {
      if (s == t) {
        ASSERT_TRUE(is_inf(result.distances.at(s, t)));
      } else {
        ASSERT_EQ(result.distances.at(s, t),
                  oracle[static_cast<std::size_t>(t)])
            << "case " << case_index << " h=" << height << " " << s << "->"
            << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesHeights, DistributedBottleneck,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Values(2, 3)));

TEST(DistributedBottleneck, MatchesSequentialClosure) {
  // The 36x36 grid's leaves (612 and 648 vertices) run SuperFW over their
  // own dissection in R¹; max, min, ∧ and ∨ are exact in any order, so
  // both semirings still equal the sequential closures bit for bit.
  for (const auto& [side, height] : {std::pair{9, 3}, std::pair{36, 2}}) {
    Rng rng(5);
    const Graph graph = make_grid2d(side, side, rng, capacities());
    SparseApspOptions options;
    options.height = height;
    EXPECT_EQ(run_sparse_bottleneck(graph, options).distances,
              bottleneck_apsp(graph))
        << "side " << side;
    EXPECT_EQ(run_sparse_closure(graph, options).distances,
              transitive_closure(graph))
        << "side " << side;
  }
}

TEST(DistributedBottleneck, RejectsNonPositiveCapacities) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, -1.0);
  builder.add_edge(1, 2, 2.0);
  const Graph graph = std::move(builder).build();
  EXPECT_THROW(run_sparse_bottleneck(graph), check_error);
}

TEST(DistributedClosure, MatchesConnectedComponents) {
  Rng rng(6);
  GraphBuilder builder(50);
  for (Vertex i = 0; i < 19; ++i) builder.add_edge(i, i + 1, 3);
  for (Vertex i = 20; i < 44; ++i) builder.add_edge(i, i + 1, 3);
  const Graph graph = std::move(builder).build();
  SparseApspOptions options;
  options.height = 3;
  const SparseApspResult result = run_sparse_closure(graph, options);
  const auto label = connected_components(graph);
  for (Vertex u = 0; u < graph.num_vertices(); ++u)
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      const bool connected =
          label[static_cast<std::size_t>(u)] ==
          label[static_cast<std::size_t>(v)];
      if (u == v) {
        EXPECT_TRUE(is_inf(result.distances.at(u, v)) ||
                    result.distances.at(u, v) == 1);
      } else {
        EXPECT_EQ(result.distances.at(u, v) == 1, connected)
            << u << "," << v;
      }
    }
}

TEST(DistributedSemiring, CommunicationIsAlgebraOblivious) {
  // Same dissection, same machine: the message/word profile must be
  // identical whichever semiring runs — communication depends only on
  // the block structure, which is the deeper reason the paper's analysis
  // carries over to any closed semiring.
  Rng rng(7);
  const Graph graph = make_grid2d(10, 10, rng, capacities());
  Rng nd_rng(8);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  SparseApspOptions options;
  options.collect_distances = false;
  const auto minplus = run_sparse_apsp_semiring(
      graph, nd, SemiringKernels::of<MinPlusSemiring>(), options);
  const auto maxmin = run_sparse_apsp_semiring(
      graph, nd, SemiringKernels::of<MaxMinSemiring>(), options);
  EXPECT_EQ(minplus.costs.critical_latency, maxmin.costs.critical_latency);
  EXPECT_EQ(minplus.costs.critical_bandwidth,
            maxmin.costs.critical_bandwidth);
  EXPECT_EQ(minplus.costs.total_messages, maxmin.costs.total_messages);
  EXPECT_EQ(minplus.costs.total_words, maxmin.costs.total_words);
}

TEST(DistributedSemiring, StrategiesAgreeUnderMaxMin) {
  // The R4 strategy ablation is semiring-generic too.
  Rng rng(9);
  const Graph graph = make_grid2d(8, 8, rng, capacities());
  DistBlock reference;
  for (R4Strategy strategy :
       {R4Strategy::kOneToOne, R4Strategy::kSharedWorkers,
        R4Strategy::kSequential}) {
    SparseApspOptions options;
    options.height = 3;
    options.r4_strategy = strategy;
    const SparseApspResult result = run_sparse_bottleneck(graph, options);
    if (reference.empty()) {
      reference = result.distances;
    } else {
      EXPECT_EQ(result.distances, reference);
    }
  }
}

}  // namespace
}  // namespace capsp
