// Integration tests: every distributed APSP implementation against the
// sequential oracle, across graph families × machine sizes × weight
// distributions.  These are the end-to-end correctness guarantee for the
// whole repository.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "baseline/dc_apsp.hpp"
#include "baseline/fw2d.hpp"
#include "baseline/reference.hpp"
#include "core/sparse_apsp.hpp"
#include "core/superfw.hpp"
#include "graph/generators.hpp"
#include "semiring/graph_matrix.hpp"

namespace capsp {
namespace {

struct GraphCase {
  std::string name;
  std::function<Graph(Rng&)> make;
};

std::vector<GraphCase> graph_cases() {
  return {
      {"grid2d_8x8", [](Rng& rng) { return make_grid2d(8, 8, rng); }},
      {"grid2d_7x9", [](Rng& rng) { return make_grid2d(7, 9, rng); }},
      {"grid3d_4x4x4",
       [](Rng& rng) { return make_grid3d(4, 4, 4, rng); }},
      {"path_60", [](Rng& rng) { return make_path(60, rng); }},
      {"cycle_45", [](Rng& rng) { return make_cycle(45, rng); }},
      {"tree_70", [](Rng& rng) { return make_random_tree(70, rng); }},
      {"erdos_renyi_64",
       [](Rng& rng) { return make_erdos_renyi(64, 4.0, rng); }},
      {"geometric_60",
       [](Rng& rng) { return make_random_geometric(60, 0.2, rng); }},
      {"rmat_64", [](Rng& rng) { return make_rmat(64, 5.0, rng); }},
      {"ladder_48", [](Rng& rng) { return make_ladder(48, rng); }},
      {"small_world_50",
       [](Rng& rng) { return make_small_world(50, 2, 0.2, rng); }},
      {"complete_20", [](Rng& rng) { return make_complete(20, rng); }},
      {"paper_figure1", [](Rng&) { return make_paper_figure1(); }},
      {"disconnected_two_paths",
       [](Rng& rng) {
         GraphBuilder builder(40);
         for (Vertex i = 0; i < 19; ++i) {
           builder.add_edge(i, i + 1, draw_weight(rng, {}));
           builder.add_edge(20 + i, 21 + i, draw_weight(rng, {}));
         }
         return std::move(builder).build();
       }},
      {"star_33",
       [](Rng& rng) {
         GraphBuilder builder(33);
         for (Vertex i = 1; i < 33; ++i)
           builder.add_edge(0, i, draw_weight(rng, {}));
         return std::move(builder).build();
       }},
  };
}

void expect_apsp_eq(const DistBlock& got, const DistBlock& want,
                    const std::string& context) {
  ASSERT_EQ(got.rows(), want.rows()) << context;
  ASSERT_EQ(got.cols(), want.cols()) << context;
  for (std::int64_t r = 0; r < got.rows(); ++r)
    for (std::int64_t c = 0; c < got.cols(); ++c) {
      if (is_inf(want.at(r, c))) {
        ASSERT_TRUE(is_inf(got.at(r, c)))
            << context << " at (" << r << "," << c << "): expected inf, got "
            << got.at(r, c);
      } else {
        ASSERT_NEAR(got.at(r, c), want.at(r, c), 1e-9)
            << context << " at (" << r << "," << c << ")";
      }
    }
}

// ---------------------------------------------------------------------
// 2D-SPARSE-APSP
// ---------------------------------------------------------------------

class SparseApspFamilies
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparseApspFamilies, MatchesOracle) {
  const auto [case_index, height] = GetParam();
  const GraphCase gcase =
      graph_cases()[static_cast<std::size_t>(case_index)];
  Rng rng(1000 + static_cast<std::uint64_t>(case_index));
  const Graph graph = gcase.make(rng);
  const DistBlock want = reference_apsp(graph);
  SparseApspOptions options;
  options.height = height;
  options.seed = 7;
  const SparseApspResult got = run_sparse_apsp(graph, options);
  expect_apsp_eq(got.distances, want,
                 gcase.name + " h=" + std::to_string(height));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesHeights, SparseApspFamilies,
    ::testing::Combine(::testing::Range(0, 15), ::testing::Values(1, 2, 3)));

TEST(SparseApsp, Height4LargeGrid) {
  Rng rng(2);
  const Graph graph = make_grid2d(14, 14, rng);
  const DistBlock want = reference_apsp(graph);
  SparseApspOptions options;
  options.height = 4;  // p = 225 ranks
  const SparseApspResult got = run_sparse_apsp(graph, options);
  expect_apsp_eq(got.distances, want, "grid14 h=4");
  EXPECT_EQ(got.num_ranks, 225);
}

TEST(SparseApsp, RealWeightsNotInteger) {
  // The 36x36 grid's leaves (612 and 648 vertices) run SuperFW over their
  // own dissection, which may round differently from Dijkstra: within
  // 1e-9, like every other solver pair.
  WeightOptions opts;
  opts.integer = false;
  opts.min_weight = 0.1;
  opts.max_weight = 2.0;
  for (const auto& [side, height] : {std::pair{9, 3}, std::pair{36, 2}}) {
    Rng rng(3);
    const Graph graph = make_grid2d(side, side, rng, opts);
    SparseApspOptions options;
    options.height = height;
    const SparseApspResult got = run_sparse_apsp(graph, options);
    expect_apsp_eq(got.distances, reference_apsp(graph),
                   "real weights, side " + std::to_string(side));
  }
}

TEST(SparseApsp, ZeroWeightEdgesAllowed) {
  // A 0-weight edge is an edge: the 36x36 grid's supernodal leaves must
  // not read it as 0̄ when they dissect their pattern.
  for (const auto& [side, max_weight] :
       {std::pair{8, 3.0}, std::pair{36, 10.0}}) {
    Rng rng(4);
    const Graph graph =
        make_grid2d(side, side, rng, WeightOptions{0, max_weight});
    SparseApspOptions options;
    options.height = 2;
    const SparseApspResult got = run_sparse_apsp(graph, options);
    EXPECT_EQ(got.distances, reference_apsp(graph)) << "side " << side;
  }
}

TEST(SparseApsp, ReusesExternalDissection) {
  Rng rng(5);
  const Graph graph = make_grid2d(8, 8, rng);
  Rng nd_rng(6);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  const SparseApspResult got = run_sparse_apsp(graph, nd);
  expect_apsp_eq(got.distances, reference_apsp(graph), "external nd");
  EXPECT_EQ(got.separator_size, nd.top_separator_size());
}

TEST(SparseApsp, SkippingCollectionStillReportsCosts) {
  Rng rng(7);
  const Graph graph = make_grid2d(8, 8, rng);
  SparseApspOptions options;
  options.height = 2;
  options.collect_distances = false;
  const SparseApspResult got = run_sparse_apsp(graph, options);
  EXPECT_TRUE(got.distances.empty());
  EXPECT_GT(got.costs.critical_latency, 0);
  EXPECT_GT(got.max_block_words, 0);
}

TEST(SparseApsp, DeterministicAcrossRuns) {
  Rng rng(8);
  const Graph graph = make_erdos_renyi(50, 4.0, rng);
  SparseApspOptions options;
  options.height = 2;
  const SparseApspResult a = run_sparse_apsp(graph, options);
  const SparseApspResult b = run_sparse_apsp(graph, options);
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.costs.critical_latency, b.costs.critical_latency);
  EXPECT_EQ(a.costs.critical_bandwidth, b.costs.critical_bandwidth);
  EXPECT_EQ(a.costs.total_words, b.costs.total_words);
}

TEST(SparseApsp, TinyGraphsSurviveDeepTrees) {
  // Graphs much smaller than the supernode count: many empty supernodes.
  Rng rng(9);
  for (Vertex n : {2, 3, 5, 8}) {
    const Graph graph = make_path(n, rng);
    SparseApspOptions options;
    options.height = 3;  // 7 supernodes
    const SparseApspResult got = run_sparse_apsp(graph, options);
    expect_apsp_eq(got.distances, reference_apsp(graph),
                   "tiny n=" + std::to_string(n));
  }
}

/// One leaf of a traced solve at the default ND seed: the R¹ ⊗ count its
/// diagonal rank P_kk recorded, and ClassicalFW's on the same block.
struct LeafWork {
  Vertex vertices = 0;
  std::int64_t r1_ops = 0;
  std::int64_t classical_ops = 0;
};

std::vector<LeafWork> leaf_work(const Graph& graph, int height) {
  SparseApspOptions options;
  options.height = height;
  options.collect_distances = false;
  options.trace = true;
  Rng nd_rng(options.seed);
  const Dissection nd = nested_dissection(graph, height, nd_rng);
  const SparseApspResult result = run_sparse_apsp(graph, nd, options);
  const ApspLayout layout(nd);
  const Graph reordered = apply_dissection(graph, nd);
  std::vector<LeafWork> leaves;
  for (Snode k : nd.tree.level_set(1)) {
    const VertexRange r = nd.range_of(k);
    LeafWork leaf{r.size()};
    for (const TraceEvent& e : result.trace.per_rank[static_cast<std::size_t>(
             layout.rank_of(k, k))])
      if (e.kind == TraceEventKind::kCompute && e.phase == "L1/R1")
        leaf.r1_ops += e.ops;
    DistBlock block =
        adjacency_block(reordered, r.begin, r.end, r.begin, r.end);
    leaf.classical_ops = semiring_fw<MinPlusSemiring>(block);
    leaves.push_back(leaf);
  }
  return leaves;
}

TEST(SparseApsp, SupernodalLeavesCutR1Work) {
  // At h = 2 a 36x36 grid has leaves of 612 and 648 vertices behind a
  // 36-vertex separator: both run SuperFW over their own dissection, do
  // less work than ClassicalFW and, on integer weights, give the same
  // bits.
  Rng rng(10);
  const Graph graph = make_grid2d(36, 36, rng);
  SparseApspOptions options;
  options.height = 2;
  EXPECT_EQ(run_sparse_apsp(graph, options).distances,
            reference_apsp(graph));
  for (const LeafWork& leaf : leaf_work(graph, 2)) {
    EXPECT_GE(leaf.vertices, 512);
    EXPECT_LT(leaf.r1_ops, leaf.classical_ops) << leaf.vertices;
  }
}

TEST(SparseApsp, OtherLeavesKeepClassicalFw) {
  // Controls: a 24x24 grid's leaves (288 and 264 vertices) are too small,
  // and the Erdős–Rényi graph's large leaf sits under a parent separator
  // holding 39% of the subtree.  Their R¹ work is ClassicalFW's exactly.
  Rng grid_rng(11), er_rng(7);
  const Graph grid = make_grid2d(24, 24, grid_rng);
  const Graph er = make_named_graph("er", 1200, er_rng);
  Vertex largest = 0;
  for (const Graph* graph : {&grid, &er}) {
    for (const LeafWork& leaf : leaf_work(*graph, 2)) {
      EXPECT_EQ(leaf.r1_ops, leaf.classical_ops) << leaf.vertices;
      if (graph == &er) largest = std::max(largest, leaf.vertices);
    }
  }
  EXPECT_GE(largest, 512);
}

TEST(SparseApsp, SingleVertexGraph) {
  const Graph graph = std::move(GraphBuilder(1)).build();
  SparseApspOptions options;
  options.height = 2;
  const SparseApspResult got = run_sparse_apsp(graph, options);
  ASSERT_EQ(got.distances.rows(), 1);
  EXPECT_EQ(got.distances.at(0, 0), 0);
}

// ---------------------------------------------------------------------
// SuperFW
// ---------------------------------------------------------------------

class SuperFwFamilies : public ::testing::TestWithParam<int> {};

TEST_P(SuperFwFamilies, MatchesOracle) {
  const GraphCase gcase =
      graph_cases()[static_cast<std::size_t>(GetParam())];
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const Graph graph = gcase.make(rng);
  Rng nd_rng(11);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  const SuperFwResult got = superfw_original_order(graph, nd);
  expect_apsp_eq(got.distances, reference_apsp(graph), gcase.name);
}

INSTANTIATE_TEST_SUITE_P(Families, SuperFwFamilies, ::testing::Range(0, 15));

TEST(SuperFw, OpCountBelowDenseFwOnSparseGraph) {
  Rng rng(12);
  const Graph graph = make_grid2d(16, 16, rng);
  Rng nd_rng(13);
  const Dissection nd = nested_dissection(graph, 4, nd_rng);
  const SuperFwResult result = superfw_original_order(graph, nd);
  const auto n = static_cast<std::int64_t>(graph.num_vertices());
  EXPECT_LT(result.ops, n * n * n / 2);
  EXPECT_GT(result.skipped_blocks, 0);
}

TEST(SuperFw, OpReductionGrowsWithDepth) {
  // More ND levels expose more cousin pairs to skip.
  Rng rng(14);
  const Graph graph = make_grid2d(16, 16, rng);
  std::vector<std::int64_t> ops;
  for (int height : {1, 2, 3, 4}) {
    Rng nd_rng(15);
    const Dissection nd = nested_dissection(graph, height, nd_rng);
    ops.push_back(superfw_original_order(graph, nd).ops);
  }
  EXPECT_LT(ops[1], ops[0]);
  EXPECT_LT(ops[2], ops[1]);
  EXPECT_LT(ops[3], ops[2]);
}

// ---------------------------------------------------------------------
// Dense baselines
// ---------------------------------------------------------------------

class DcApspFamilies
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DcApspFamilies, MatchesOracle) {
  const auto [case_index, q] = GetParam();
  const GraphCase gcase =
      graph_cases()[static_cast<std::size_t>(case_index)];
  Rng rng(3000 + static_cast<std::uint64_t>(case_index));
  const Graph graph = gcase.make(rng);
  const DistributedApspResult got = run_dc_apsp(graph, q);
  expect_apsp_eq(got.distances, reference_apsp(graph),
                 gcase.name + " q=" + std::to_string(q));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesGrids, DcApspFamilies,
    ::testing::Combine(::testing::Range(0, 15), ::testing::Values(1, 2, 4)));

TEST(DcApsp, GridQ8) {
  Rng rng(16);
  const Graph graph = make_grid2d(10, 10, rng);
  const DistributedApspResult got = run_dc_apsp(graph, 8);
  expect_apsp_eq(got.distances, reference_apsp(graph), "dc q=8");
}

TEST(DcApsp, NonPowerOfTwoGridRejected) {
  Rng rng(17);
  const Graph graph = make_grid2d(4, 4, rng);
  EXPECT_THROW(run_dc_apsp(graph, 3), check_error);
}

class Fw2dParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Fw2dParam, MatchesOracleAcrossBlockCounts) {
  const auto [q, nb] = GetParam();
  Rng rng(18);
  const Graph graph = make_grid2d(6, 7, rng);
  if (nb < q) GTEST_SKIP();
  const DistributedApspResult got = run_fw2d(graph, q, nb);
  expect_apsp_eq(got.distances, reference_apsp(graph),
                 "fw2d q=" + std::to_string(q) + " nb=" + std::to_string(nb));
}

INSTANTIATE_TEST_SUITE_P(
    GridsTimesBlocks, Fw2dParam,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3, 6, 14, 42)));

TEST(Fw2d, VertexWisePivotingMatchesOracle) {
  // blocks_per_dim == n: the Jenq–Sahni regime.
  Rng rng(19);
  const Graph graph = make_grid2d(5, 5, rng);
  const DistributedApspResult got = run_fw2d(graph, 2, 25);
  expect_apsp_eq(got.distances, reference_apsp(graph), "fw2d vertexwise");
}

TEST(Fw2d, BlockCountBoundsChecked) {
  Rng rng(20);
  const Graph graph = make_grid2d(4, 4, rng);
  EXPECT_THROW(run_fw2d(graph, 4, 2), check_error);    // nb < q
  EXPECT_THROW(run_fw2d(graph, 2, 17), check_error);   // nb > n
}

// ---------------------------------------------------------------------
// Cross-implementation agreement
// ---------------------------------------------------------------------

TEST(AllAlgorithms, AgreeOnTheSameInstance) {
  Rng rng(21);
  const Graph graph = make_random_geometric(49, 0.25, rng);
  const DistBlock want = reference_apsp(graph);

  SparseApspOptions options;
  options.height = 3;
  expect_apsp_eq(run_sparse_apsp(graph, options).distances, want, "sparse");
  expect_apsp_eq(run_dc_apsp(graph, 4).distances, want, "dc");
  expect_apsp_eq(run_fw2d(graph, 2, 7).distances, want, "fw2d");
  Rng nd_rng(22);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  expect_apsp_eq(superfw_original_order(graph, nd).distances, want,
                 "superfw");
}

}  // namespace
}  // namespace capsp
