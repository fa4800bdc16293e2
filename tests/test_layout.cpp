// Tests for the supernodal block layout (ApspLayout): rank↔block
// bijection, shapes, and the Sec. 5.4.1 block-size classification.
#include <gtest/gtest.h>

#include <set>

#include "core/layout.hpp"
#include "graph/generators.hpp"
#include "machine/machine.hpp"
#include "partition/nested_dissection.hpp"

namespace capsp {
namespace {

Dissection grid_dissection(int height, Vertex side = 12) {
  Rng rng(5);
  const Graph graph = make_grid2d(side, side, rng);
  Rng nd_rng(6);
  return nested_dissection(graph, height, nd_rng);
}

TEST(ApspLayout, RankBlockBijection) {
  for (int height : {1, 2, 3, 4}) {
    const Dissection nd = grid_dissection(height);
    const ApspLayout layout(nd);
    const Snode n_sup = layout.grid_side();
    EXPECT_EQ(n_sup, (1 << height) - 1);
    EXPECT_EQ(layout.num_ranks(), static_cast<int>(n_sup) * n_sup);
    std::set<RankId> seen;
    for (Snode i = 1; i <= n_sup; ++i) {
      for (Snode j = 1; j <= n_sup; ++j) {
        const RankId rank = layout.rank_of(i, j);
        EXPECT_GE(rank, 0);
        EXPECT_LT(rank, layout.num_ranks());
        EXPECT_TRUE(seen.insert(rank).second);
        EXPECT_EQ(layout.block_of(rank), (std::pair<Snode, Snode>{i, j}));
      }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(layout.num_ranks()));
  }
}

TEST(ApspLayout, ShapesMatchRanges) {
  const Dissection nd = grid_dissection(3);
  const ApspLayout layout(nd);
  for (Snode i = 1; i <= layout.grid_side(); ++i) {
    EXPECT_EQ(layout.size_of(i), nd.range_of(i).size());
    for (Snode j = 1; j <= layout.grid_side(); ++j) {
      const auto [rows, cols] = layout.block_shape(i, j);
      EXPECT_EQ(rows, nd.range_of(i).size());
      EXPECT_EQ(cols, nd.range_of(j).size());
    }
  }
}

TEST(ApspLayout, BlockSizeClassesOfSection541) {
  // (1) leaf diagonal blocks O(n²/p); (2) leaf×separator panels
  // O(n|S|/√p); (3) separator×separator blocks O(|S|²).
  const Dissection nd = grid_dissection(3, 16);
  const ApspLayout layout(nd);
  const EliminationTree& tree = layout.tree();
  const double n = 256;
  const double sqrt_p = layout.grid_side();
  Vertex s_max = 0;
  for (Snode s = 1; s <= layout.grid_side(); ++s)
    if (tree.level_of(s) > 1) s_max = std::max(s_max, layout.size_of(s));
  for (Snode i = 1; i <= layout.grid_side(); ++i) {
    for (Snode j = 1; j <= layout.grid_side(); ++j) {
      const auto [rows, cols] = layout.block_shape(i, j);
      const double size = static_cast<double>(rows) * cols;
      const bool i_leaf = tree.level_of(i) == 1;
      const bool j_leaf = tree.level_of(j) == 1;
      if (i_leaf && j_leaf) {
        EXPECT_LE(size, 5 * (2 * n / sqrt_p) * (2 * n / sqrt_p));
      } else if (!i_leaf && !j_leaf) {
        EXPECT_LE(size, static_cast<double>(s_max) * s_max);
      }
    }
  }
}

TEST(ApspLayout, InvalidLabelsRejected) {
  const Dissection nd = grid_dissection(2);
  const ApspLayout layout(nd);
  EXPECT_THROW(layout.rank_of(0, 1), check_error);
  EXPECT_THROW(layout.rank_of(1, 4), check_error);
  EXPECT_THROW(layout.block_of(-1), check_error);
  EXPECT_THROW(layout.block_of(9), check_error);
  EXPECT_THROW(layout.range_of(0), check_error);
}

TEST(Machine, TrafficRecordingMatchesVolumes) {
  Machine machine(3);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<Dist>{1, 2, 3});
      comm.send(2, 0, std::vector<Dist>{4});
    } else {
      comm.recv(0, 0);
      if (comm.rank() == 1) comm.send(2, 1, std::vector<Dist>{5, 6});
      if (comm.rank() == 2) comm.recv(1, 1);
    }
  });
  const TrafficMatrix traffic = machine.traffic();
  ASSERT_EQ(traffic.num_ranks, 3);
  EXPECT_EQ(traffic.words_between(0, 1), 3);
  EXPECT_EQ(traffic.words_between(0, 2), 1);
  EXPECT_EQ(traffic.words_between(1, 2), 2);
  EXPECT_EQ(traffic.words_between(2, 1), 0);
  EXPECT_EQ(traffic.messages_between(0, 1), 1);
  std::int64_t total = 0;
  for (RankId s = 0; s < 3; ++s)
    for (RankId d = 0; d < 3; ++d) total += traffic.words_between(s, d);
  EXPECT_EQ(total, machine.report().total_words);
}

}  // namespace
}  // namespace capsp
