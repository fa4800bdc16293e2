// Tests for the partitioning substrate: bisection balance/cut quality,
// Hopcroft–Karp matching, König separator validity, nested dissection
// structure (permutation validity, supernode ranges, the Fig. 1d
// cousin-block emptiness property), and the writer that maps a solved
// matrix back to the original numbering.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "one_cpu.hpp"
#include "partition/bisect.hpp"
#include "partition/nested_dissection.hpp"
#include "partition/separator.hpp"
#include "semiring/graph_matrix.hpp"
#include "util/check.hpp"

namespace capsp {
namespace {

void expect_balanced(const Bisection& bisection, Vertex n,
                     double tolerance = 0.25) {
  const Vertex s0 = bisection.side_size(0);
  const Vertex s1 = bisection.side_size(1);
  EXPECT_EQ(s0 + s1, n);
  EXPECT_GE(s0, static_cast<Vertex>(n * (0.5 - tolerance)));
  EXPECT_GE(s1, static_cast<Vertex>(n * (0.5 - tolerance)));
}

TEST(Bisect, GridBalancedWithSmallCut) {
  Rng rng(1);
  const Graph graph = make_grid2d(16, 16, rng);
  const Bisection bisection = bisect_graph(graph, rng);
  expect_balanced(bisection, 256);
  EXPECT_EQ(bisection.cut_edges, cut_size(graph, bisection.side));
  // Optimal cut of a 16x16 grid is 16; multilevel should get close.
  EXPECT_LE(bisection.cut_edges, 3 * 16);
}

TEST(Bisect, PathCutIsTiny) {
  Rng rng(2);
  const Graph graph = make_path(200, rng);
  const Bisection bisection = bisect_graph(graph, rng);
  expect_balanced(bisection, 200);
  EXPECT_LE(bisection.cut_edges, 4);
}

TEST(Bisect, EmptyAndSingletonGraphs) {
  Rng rng(3);
  const Graph empty = std::move(GraphBuilder(0)).build();
  EXPECT_TRUE(bisect_graph(empty, rng).side.empty());
  const Graph one = std::move(GraphBuilder(1)).build();
  const Bisection bisection = bisect_graph(one, rng);
  EXPECT_EQ(bisection.side.size(), 1u);
  EXPECT_EQ(bisection.cut_edges, 0);
}

TEST(Bisect, EdgelessGraphStillBalanced) {
  Rng rng(4);
  const Graph graph = std::move(GraphBuilder(64)).build();
  const Bisection bisection = bisect_graph(graph, rng);
  expect_balanced(bisection, 64);
  EXPECT_EQ(bisection.cut_edges, 0);
}

TEST(Bisect, DisconnectedComponentsSplit) {
  Rng rng(5);
  GraphBuilder builder(40);
  for (Vertex i = 0; i < 19; ++i) {
    builder.add_edge(i, i + 1, 1);
    builder.add_edge(20 + i, 21 + i, 1);
  }
  const Graph graph = std::move(builder).build();
  const Bisection bisection = bisect_graph(graph, rng);
  expect_balanced(bisection, 40);
  EXPECT_LE(bisection.cut_edges, 2);
}

TEST(Bisect, DeterministicGivenRngState) {
  Rng a(7), b(7);
  const Graph graph = make_erdos_renyi(120, 4.0, a);
  Rng a2(9), b2(9);
  const Graph graph2 = make_erdos_renyi(120, 4.0, b);
  const Bisection x = bisect_graph(graph, a2);
  const Bisection y = bisect_graph(graph2, b2);
  EXPECT_EQ(x.side, y.side);
  EXPECT_EQ(x.cut_edges, y.cut_edges);
}

TEST(HopcroftKarp, PerfectMatchingOnDisjointEdges) {
  // 3 left, 3 right, edges i-i.
  std::vector<std::vector<Vertex>> adjacency{{0}, {1}, {2}};
  Vertex size = 0;
  const auto match = hopcroft_karp(adjacency, 3, size);
  EXPECT_EQ(size, 3);
  for (Vertex l = 0; l < 3; ++l) EXPECT_EQ(match[static_cast<std::size_t>(l)], l);
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // l0-{r0}, l1-{r0, r1}: greedy l1->r0 would block l0; HK must augment.
  std::vector<std::vector<Vertex>> adjacency{{0}, {0, 1}};
  Vertex size = 0;
  const auto match = hopcroft_karp(adjacency, 2, size);
  EXPECT_EQ(size, 2);
  EXPECT_EQ(match[0], 0);
  EXPECT_EQ(match[1], 1);
}

TEST(HopcroftKarp, StarGraphMatchesOne) {
  std::vector<std::vector<Vertex>> adjacency{{0}, {0}, {0}};
  Vertex size = 0;
  hopcroft_karp(adjacency, 1, size);
  EXPECT_EQ(size, 1);
}

TEST(HopcroftKarp, MatchingIsValid) {
  // Random bipartite graph: returned matching must be consistent.
  Rng rng(11);
  std::vector<std::vector<Vertex>> adjacency(30);
  for (auto& adj : adjacency) {
    std::set<Vertex> targets;
    for (int e = 0; e < 4; ++e)
      targets.insert(static_cast<Vertex>(rng.uniform(25)));
    adj.assign(targets.begin(), targets.end());
  }
  Vertex size = 0;
  const auto match = hopcroft_karp(adjacency, 25, size);
  std::set<Vertex> used;
  Vertex matched = 0;
  for (std::size_t l = 0; l < adjacency.size(); ++l) {
    if (match[l] < 0) continue;
    ++matched;
    EXPECT_TRUE(std::count(adjacency[l].begin(), adjacency[l].end(),
                           match[l]))
        << "matched along a non-edge";
    EXPECT_TRUE(used.insert(match[l]).second) << "right vertex reused";
  }
  EXPECT_EQ(matched, size);
}

void expect_valid_separator(const Graph& graph,
                            const SeparatorPartition& part) {
  // Partition covers every vertex exactly once.
  std::vector<int> seen(static_cast<std::size_t>(graph.num_vertices()), 0);
  for (Vertex v : part.v1) ++seen[static_cast<std::size_t>(v)];
  for (Vertex v : part.v2) ++seen[static_cast<std::size_t>(v)];
  for (Vertex v : part.separator) ++seen[static_cast<std::size_t>(v)];
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    EXPECT_EQ(seen[static_cast<std::size_t>(v)], 1) << "vertex " << v;
  // Separator condition (1): no V1–V2 edge.
  std::set<Vertex> v2(part.v2.begin(), part.v2.end());
  for (Vertex v : part.v1)
    for (const auto& nb : graph.neighbors(v))
      EXPECT_EQ(v2.count(nb.to), 0u)
          << "edge {" << v << "," << nb.to << "} crosses V1-V2";
}

TEST(Separator, ValidOnGrid) {
  Rng rng(12);
  const Graph graph = make_grid2d(12, 12, rng);
  const SeparatorPartition part = find_separator(graph, rng);
  expect_valid_separator(graph, part);
  // Condition (3): small — a 12x12 grid has a 12-vertex column separator.
  EXPECT_LE(part.separator.size(), 26u);
  // Condition (2): balance.
  EXPECT_GT(part.v1.size(), 40u);
  EXPECT_GT(part.v2.size(), 40u);
}

TEST(Separator, SeparatorNoLargerThanCut) {
  // König: vertex cover <= matching <= cut edges.
  Rng rng(13);
  const Graph graph = make_erdos_renyi(100, 3.0, rng);
  const Bisection bisection = bisect_graph(graph, rng);
  const SeparatorPartition part = vertex_separator(graph, bisection);
  expect_valid_separator(graph, part);
  EXPECT_LE(static_cast<std::int64_t>(part.separator.size()),
            bisection.cut_edges);
}

TEST(Separator, PathSeparatorIsOneVertex) {
  Rng rng(14);
  const Graph graph = make_path(101, rng);
  const SeparatorPartition part = find_separator(graph, rng);
  expect_valid_separator(graph, part);
  EXPECT_EQ(part.separator.size(), 1u);
}

TEST(Separator, DisconnectedGraphMayHaveEmptySeparator) {
  Rng rng(15);
  GraphBuilder builder(20);
  for (Vertex i = 0; i < 9; ++i) {
    builder.add_edge(i, i + 1, 1);
    builder.add_edge(10 + i, 11 + i, 1);
  }
  const Graph graph = std::move(builder).build();
  const SeparatorPartition part = find_separator(graph, rng);
  expect_valid_separator(graph, part);
  EXPECT_EQ(part.separator.size(), 0u);
}

TEST(Separator, PaperFigure1) {
  const Graph graph = make_paper_figure1();
  Rng rng(16);
  const SeparatorPartition part = find_separator(graph, rng);
  expect_valid_separator(graph, part);
  // The designed separator is the single hub vertex 6.
  ASSERT_EQ(part.separator.size(), 1u);
  EXPECT_EQ(part.separator[0], 6);
  EXPECT_EQ(part.v1.size(), 3u);
  EXPECT_EQ(part.v2.size(), 3u);
}

void expect_valid_dissection(const Graph& graph, const Dissection& nd) {
  const Vertex n = graph.num_vertices();
  // perm and iperm are mutually inverse permutations.
  std::vector<bool> hit(static_cast<std::size_t>(n), false);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex image = nd.perm[static_cast<std::size_t>(v)];
    ASSERT_GE(image, 0);
    ASSERT_LT(image, n);
    EXPECT_FALSE(hit[static_cast<std::size_t>(image)]);
    hit[static_cast<std::size_t>(image)] = true;
    EXPECT_EQ(nd.iperm[static_cast<std::size_t>(image)], v);
  }
  // Ranges tile [0, n) and every supernode has one.
  std::vector<int> covered(static_cast<std::size_t>(n), 0);
  for (Snode s = 1; s <= nd.tree.num_supernodes(); ++s) {
    const auto& range = nd.range_of(s);
    EXPECT_LE(range.begin, range.end);
    for (Vertex v = range.begin; v < range.end; ++v)
      ++covered[static_cast<std::size_t>(v)];
  }
  for (Vertex v = 0; v < n; ++v)
    EXPECT_EQ(covered[static_cast<std::size_t>(v)], 1);
}

TEST(NestedDissection, HeightOneIsTrivial) {
  Rng rng(17);
  const Graph graph = make_grid2d(4, 4, rng);
  const Dissection nd = nested_dissection(graph, 1, rng);
  expect_valid_dissection(graph, nd);
  EXPECT_EQ(nd.range_of(1).size(), 16);
}

class NestedDissectionParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NestedDissectionParam, StructureValidOnGrid) {
  const auto [side, height] = GetParam();
  Rng rng(18);
  const Graph graph = make_grid2d(side, side, rng);
  const Dissection nd = nested_dissection(graph, height, rng);
  expect_valid_dissection(graph, nd);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, NestedDissectionParam,
    ::testing::Combine(::testing::Values(4, 8, 12),
                       ::testing::Values(1, 2, 3, 4)));

TEST(NestedDissection, SeparatorOrderedAfterSubtrees) {
  // Every separator supernode's range must come after its children's.
  Rng rng(19);
  const Graph graph = make_grid2d(10, 10, rng);
  const Dissection nd = nested_dissection(graph, 3, rng);
  const EliminationTree& tree = nd.tree;
  for (Snode s = 1; s <= tree.num_supernodes(); ++s)
    for (Snode d : tree.descendants(s))
      EXPECT_GE(nd.range_of(s).begin, nd.range_of(d).end)
          << "separator " << s << " not after descendant " << d;
}

TEST(NestedDissection, CousinBlocksAreEmpty) {
  // The Fig. 1d property: after reordering, the adjacency block between
  // cousin supernodes contains no finite entries.
  Rng rng(20);
  for (int height : {2, 3, 4}) {
    const Graph graph = make_grid2d(12, 12, rng);
    const Dissection nd = nested_dissection(graph, height, rng);
    const Graph reordered = apply_dissection(graph, nd);
    const DistBlock a = to_distance_matrix(reordered);
    const EliminationTree& tree = nd.tree;
    for (Snode i = 1; i <= tree.num_supernodes(); ++i) {
      for (Snode j = 1; j <= tree.num_supernodes(); ++j) {
        if (!tree.is_cousin(i, j)) continue;
        const auto& ri = nd.range_of(i);
        const auto& rj = nd.range_of(j);
        for (Vertex r = ri.begin; r < ri.end; ++r)
          for (Vertex c = rj.begin; c < rj.end; ++c)
            EXPECT_TRUE(is_inf(a.at(r, c)))
                << "cousin block (" << i << "," << j << ") has finite entry";
      }
    }
  }
}

TEST(NestedDissection, SupernodeOfInvertsRanges) {
  Rng rng(21);
  const Graph graph = make_grid2d(8, 8, rng);
  const Dissection nd = nested_dissection(graph, 3, rng);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const Snode s = nd.supernode_of(v);
    EXPECT_GE(v, nd.range_of(s).begin);
    EXPECT_LT(v, nd.range_of(s).end);
  }
}

TEST(NestedDissection, GridSeparatorScalesLikeSqrtN) {
  Rng rng(22);
  std::vector<double> sizes, seps;
  for (Vertex side : {8, 16, 32}) {
    const Graph graph = make_grid2d(side, side, rng);
    const Dissection nd = nested_dissection(graph, 2, rng);
    sizes.push_back(static_cast<double>(side) * side);
    seps.push_back(static_cast<double>(nd.top_separator_size()));
  }
  // |S| = Θ(√n): doubling the side should roughly double |S|.
  EXPECT_LT(seps[2] / seps[0], 8.0);
  EXPECT_GT(seps[2] / seps[0], 2.0);
  EXPECT_LE(seps[2], 3 * 32);
}

TEST(NestedDissection, PaperFigure1Reordering) {
  const Graph graph = make_paper_figure1();
  Rng rng(23);
  const Dissection nd = nested_dissection(graph, 2, rng);
  expect_valid_dissection(graph, nd);
  // Supernode 3 (the separator) must be vertex 6, placed last.
  EXPECT_EQ(nd.range_of(3).size(), 1);
  EXPECT_EQ(nd.range_of(3).begin, 6);
  EXPECT_EQ(nd.iperm[6], 6);
  EXPECT_EQ(nd.range_of(1).size(), 3);
  EXPECT_EQ(nd.range_of(2).size(), 3);
}

TEST(NestedDissection, TreeGraphDeepDissection) {
  Rng rng(24);
  const Graph graph = make_random_tree(100, rng);
  const Dissection nd = nested_dissection(graph, 4, rng);
  expect_valid_dissection(graph, nd);
  // Trees have O(1) separators at every level.
  for (Snode s = 1; s <= nd.tree.num_supernodes(); ++s)
    if (nd.tree.level_of(s) > 1) {
      EXPECT_LE(nd.range_of(s).size(), 12);
    }
}

TEST(NestedDissection, HandlesGraphSmallerThanTree) {
  // 7 supernodes requested for a 5-vertex path: some must be empty, and
  // the structure must still be valid.
  Rng rng(25);
  const Graph graph = make_path(5, rng);
  const Dissection nd = nested_dissection(graph, 3, rng);
  expect_valid_dissection(graph, nd);
}

/// Two disjoint side×side grids: the top separator is empty.
Graph two_grids(Vertex side, Rng& rng) {
  const Graph grid = make_grid2d(side, side, rng);
  const Vertex n = grid.num_vertices();
  GraphBuilder builder(2 * n);
  for (Vertex v = 0; v < n; ++v)
    for (const auto& nb : grid.neighbors(v))
      if (v < nb.to) {
        builder.add_edge(v, nb.to, nb.weight);
        builder.add_edge(n + v, n + nb.to, nb.weight);
      }
  return std::move(builder).build();
}

/// An n×n matrix over the reordered vertices whose entries all differ.
DistBlock numbered_matrix(Vertex n) {
  DistBlock m(n, n);
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = 0; b < n; ++b)
      m.at(a, b) = static_cast<Dist>(std::int64_t{a} * n + b);
  return m;
}

/// `m` cut into the blocks of the supernode ranges, every (i, j), empty
/// ones too: the pieces a sparse solve gathers.
std::vector<ReorderedPiece> supernode_blocks(const DistBlock& m,
                                             const Dissection& nd) {
  std::vector<ReorderedPiece> pieces;
  for (Snode i = 1; i <= nd.tree.num_supernodes(); ++i)
    for (Snode j = 1; j <= nd.tree.num_supernodes(); ++j) {
      const VertexRange ri = nd.range_of(i);
      const VertexRange rj = nd.range_of(j);
      pieces.push_back({ri.begin, rj.begin,
                        m.sub_block(ri.begin, rj.begin, ri.size(),
                                    rj.size())});
    }
  return pieces;
}

/// undo_dissection's definition: entry (iperm[a], iperm[b]) of the
/// result is entry (a, b) of `reordered`.
void expect_undone(const DistBlock& got, const DistBlock& reordered,
                   const Dissection& nd) {
  const auto n = static_cast<Vertex>(nd.iperm.size());
  ASSERT_EQ(got.rows(), n);
  ASSERT_EQ(got.cols(), n);
  std::int64_t wrong = 0;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = 0; b < n; ++b)
      wrong += got.at(nd.iperm[static_cast<std::size_t>(a)],
                      nd.iperm[static_cast<std::size_t>(b)]) !=
               reordered.at(a, b);
  EXPECT_EQ(wrong, 0);
}

struct UndoCase {
  const char* name;
  Graph graph;
  int height;
  bool empty_supernode;  ///< the case needs one, so the test checks it
};

std::vector<UndoCase> undo_cases() {
  Rng rng(31);
  std::vector<UndoCase> cases;
  cases.push_back({"empty top separator", two_grids(18, rng), 3, true});
  cases.push_back(
      {"n = 529 on a 7x7 grid", make_grid2d(23, 23, rng), 3, false});
  cases.push_back(
      {"h = 1, one piece", make_erdos_renyi(600, 4.0, rng), 1, false});
  cases.push_back({"n = 1", make_path(1, rng), 1, false});
  cases.push_back({"n = 1 under 3 supernodes", make_path(1, rng), 2, true});
  return cases;
}

TEST(UndoDissection, PiecesLandWhereTheDefinitionPutsThem) {
  for (const UndoCase& c : undo_cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(5);
    const Dissection nd = nested_dissection(c.graph, c.height, rng);
    if (c.empty_supernode) {
      bool any_empty = false;
      for (Snode s = 1; s <= nd.tree.num_supernodes(); ++s)
        any_empty = any_empty || nd.range_of(s).empty();
      ASSERT_TRUE(any_empty);
    }
    const DistBlock reordered = numbered_matrix(c.graph.num_vertices());
    for (const bool pinned : {false, true}) {
      SCOPED_TRACE(pinned ? "one CPU" : "unpinned");
      std::optional<OneCpu> pin;
      if (pinned) pin.emplace();
      expect_undone(undo_dissection(supernode_blocks(reordered, nd), nd),
                    reordered, nd);
      expect_undone(undo_dissection(reordered, nd), reordered, nd);
    }
  }
}

TEST(UndoDissection, PiecesThatDoNotTileThrowOnTheCaller) {
  Rng rng(32);
  const Graph graph = make_grid2d(23, 23, rng);
  const Dissection nd = nested_dissection(graph, 3, rng);
  const DistBlock reordered = numbered_matrix(graph.num_vertices());
  const auto last_band = [&] {
    // The non-empty piece at the largest row, largest column.
    std::vector<ReorderedPiece> pieces = supernode_blocks(reordered, nd);
    std::size_t last = 0;
    for (std::size_t k = 0; k < pieces.size(); ++k)
      if (!pieces[k].block.empty() &&
          std::pair(pieces[k].row0, pieces[k].col0) >=
              std::pair(pieces[last].row0, pieces[last].col0))
        last = k;
    return std::pair(std::move(pieces), last);
  };
  {
    SCOPED_TRACE("a piece missing");
    auto [pieces, last] = last_band();
    pieces.erase(pieces.begin() + static_cast<std::ptrdiff_t>(last));
    EXPECT_THROW(undo_dissection(std::move(pieces), nd), check_error);
  }
  {
    SCOPED_TRACE("the last band missing");
    auto [pieces, last] = last_band();
    const Vertex row0 = pieces[last].row0;
    std::erase_if(pieces,
                  [&](const ReorderedPiece& p) { return p.row0 == row0; });
    EXPECT_THROW(undo_dissection(std::move(pieces), nd), check_error);
  }
  {
    SCOPED_TRACE("a piece twice");
    auto [pieces, last] = last_band();
    pieces.push_back({pieces[last].row0, pieces[last].col0,
                      pieces[last].block});
    EXPECT_THROW(undo_dissection(std::move(pieces), nd), check_error);
  }
  {
    SCOPED_TRACE("a piece one row short");
    auto [pieces, last] = last_band();
    const DistBlock& block = pieces[last].block;
    pieces[last].block = block.sub_block(0, 0, block.rows() - 1, block.cols());
    EXPECT_THROW(undo_dissection(std::move(pieces), nd), check_error);
  }
  {
    SCOPED_TRACE("a piece past the last column");
    auto [pieces, last] = last_band();
    pieces[last].block = DistBlock(pieces[last].block.rows(),
                                   pieces[last].block.cols() + 1);
    EXPECT_THROW(undo_dissection(std::move(pieces), nd), check_error);
  }
  EXPECT_THROW(undo_dissection(DistBlock(3, 3), nd), check_error);
}

}  // namespace
}  // namespace capsp
