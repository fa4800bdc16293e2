// Unit tests for SuperFW beyond the oracle comparisons in the
// integration suite: operation accounting, skipped-block census, the
// elimination-order invariant (cousin panels stay empty until their
// common ancestor is eliminated), and behaviour on degenerate inputs.
#include <gtest/gtest.h>

#include "baseline/reference.hpp"
#include "core/superfw.hpp"
#include "graph/generators.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

TEST(SuperFw, HeightOneEqualsClassicalFw) {
  Rng rng(1);
  const Graph graph = make_erdos_renyi(30, 3.0, rng);
  Rng nd_rng(2);
  const Dissection nd = nested_dissection(graph, 1, nd_rng);
  const SuperFwResult result = superfw(apply_dissection(graph, nd), nd);
  DistBlock direct = to_distance_matrix(apply_dissection(graph, nd));
  const std::int64_t direct_ops = semiring_fw<MinPlusSemiring>(direct);
  EXPECT_EQ(result.distances, direct);
  // One supernode: same diagonal FW plus no panels/outer products.
  EXPECT_EQ(result.ops, direct_ops);
  EXPECT_EQ(result.skipped_blocks, 0);
}

TEST(SuperFw, OpsAreCountedNotEstimated) {
  // ops must equal what the kernels report when run on the same schedule;
  // spot-check that a disconnected graph (maximal skipping) performs far
  // fewer operations than its dense counterpart.
  Rng rng(3);
  GraphBuilder builder(32);
  for (Vertex c = 0; c < 4; ++c)
    for (Vertex i = 0; i < 7; ++i)
      builder.add_edge(c * 8 + i, c * 8 + i + 1, 1);
  const Graph graph = std::move(builder).build();  // 4 paths of 8
  Rng nd_rng(4);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  const SuperFwResult result = superfw_original_order(graph, nd);
  DistBlock dense(32, 32, 1.0);
  const std::int64_t dense_ops = semiring_fw<MinPlusSemiring>(dense);
  EXPECT_LT(result.ops, dense_ops / 4);
  EXPECT_EQ(result.distances, reference_apsp(graph));
}

TEST(SuperFw, SkippedBlocksGrowWithTreeDepth) {
  // Each pivot k skips every update touching a cousin of k: N² − (1 + R)²
  // of the N² block updates, R = |A(k) ∪ D(k)|.  Summed over the perfect
  // eTree, whatever the graph.
  Rng rng(5);
  const Graph graph = make_grid2d(12, 12, rng);
  const std::int64_t want[] = {0, 10, 226, 2794};
  for (int height = 1; height <= 4; ++height) {
    Rng nd_rng(6);
    const Dissection nd = nested_dissection(graph, height, nd_rng);
    EXPECT_EQ(superfw(apply_dissection(graph, nd), nd).skipped_blocks,
              want[height - 1])
        << "h=" << height;
  }
}

TEST(SuperFw, CousinPanelsStayEmptyUntilCommonAncestor) {
  // The invariant that justifies skipping (Sec. 4.2): right before
  // supernode k is eliminated, A(i,k) is all-infinite for every cousin i
  // of k.  We verify by running the elimination manually level by level.
  Rng rng(7);
  const Graph graph = make_grid2d(10, 10, rng);
  Rng nd_rng(8);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  const Graph reordered = apply_dissection(graph, nd);
  const EliminationTree& tree = nd.tree;

  // Replay SuperFW but check the invariant before each pivot.
  DistBlock a = to_distance_matrix(reordered);
  for (int l = 1; l <= tree.height(); ++l) {
    for (Snode k : tree.level_set(l)) {
      for (Snode i = 1; i <= tree.num_supernodes(); ++i) {
        if (!tree.is_cousin(i, k)) continue;
        const auto& ri = nd.range_of(i);
        const auto& rk = nd.range_of(k);
        for (Vertex r = ri.begin; r < ri.end; ++r)
          for (Vertex c = rk.begin; c < rk.end; ++c)
            ASSERT_TRUE(is_inf(a.at(r, c)))
                << "A(" << i << "," << k << ") finite before eliminating "
                << k;
      }
    }
    // Eliminate the level (same math as superfw()).
    for (Snode k : tree.level_set(l)) {
      const auto& rk = nd.range_of(k);
      DistBlock akk = a.sub_block(rk.begin, rk.begin, rk.size(), rk.size());
      semiring_fw<MinPlusSemiring>(akk);
      a.set_sub_block(rk.begin, rk.begin, akk);
      std::vector<Snode> related = tree.descendants(k);
      const auto anc = tree.ancestors(k);
      related.insert(related.end(), anc.begin(), anc.end());
      for (Snode i : related) {
        const auto& ri = nd.range_of(i);
        DistBlock aik = a.sub_block(ri.begin, rk.begin, ri.size(), rk.size());
        semiring_accumulate<MinPlusSemiring>(aik, aik, akk);
        a.set_sub_block(ri.begin, rk.begin, aik);
        DistBlock aki = a.sub_block(rk.begin, ri.begin, rk.size(), ri.size());
        semiring_accumulate<MinPlusSemiring>(aki, akk, aki);
        a.set_sub_block(rk.begin, ri.begin, aki);
      }
      for (Snode i : related) {
        const auto& ri = nd.range_of(i);
        const DistBlock aik =
            a.sub_block(ri.begin, rk.begin, ri.size(), rk.size());
        for (Snode j : related) {
          const auto& rj = nd.range_of(j);
          DistBlock aij =
              a.sub_block(ri.begin, rj.begin, ri.size(), rj.size());
          const DistBlock akj =
              a.sub_block(rk.begin, rj.begin, rk.size(), rj.size());
          semiring_accumulate<MinPlusSemiring>(aij, aik, akj);
          a.set_sub_block(ri.begin, rj.begin, aij);
        }
      }
    }
  }
  // And the replay must be a correct APSP.
  DistBlock want = to_distance_matrix(reordered);
  semiring_fw<MinPlusSemiring>(want);
  EXPECT_EQ(a, want);
}

TEST(SuperFw, OriginalOrderUndoesThePermutation) {
  Rng rng(9);
  const Graph graph = make_random_geometric(40, 0.25, rng);
  Rng nd_rng(10);
  const Dissection nd = nested_dissection(graph, 2, nd_rng);
  const SuperFwResult result = superfw_original_order(graph, nd);
  const DistBlock want = reference_apsp(graph);
  for (Vertex u = 0; u < graph.num_vertices(); ++u)
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      if (is_inf(want.at(u, v))) {
        EXPECT_TRUE(is_inf(result.distances.at(u, v)));
      } else {
        EXPECT_NEAR(result.distances.at(u, v), want.at(u, v), 1e-9);
      }
    }
}

TEST(SuperFw, EmptyAndSingletonGraphs) {
  Rng rng(11);
  const Graph single = std::move(GraphBuilder(1)).build();
  Rng nd_rng(12);
  const Dissection nd1 = nested_dissection(single, 2, nd_rng);
  const SuperFwResult r1 = superfw_original_order(single, nd1);
  EXPECT_EQ(r1.distances.at(0, 0), 0);

  const Graph edgeless = std::move(GraphBuilder(6)).build();
  const Dissection nd2 = nested_dissection(edgeless, 2, nd_rng);
  const SuperFwResult r2 = superfw_original_order(edgeless, nd2);
  for (Vertex u = 0; u < 6; ++u)
    for (Vertex v = 0; v < 6; ++v)
      EXPECT_EQ(is_inf(r2.distances.at(u, v)), u != v);
}

}  // namespace
}  // namespace capsp
