// Tests for the closed-semiring generalization: semiring laws, the
// generic kernels against naive references, bottleneck paths against a
// maximizing-Dijkstra oracle, transitive closure against BFS, and the
// key structural claim — the supernodal elimination schedule is
// semiring-generic (Carré), verified by running it over MaxMin.
#include <gtest/gtest.h>

#include "core/closure.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

template <typename S>
void check_semiring_laws(const std::vector<Dist>& values) {
  for (Dist a : values) {
    // Identities.
    EXPECT_EQ(S::plus(a, S::zero()), a);
    EXPECT_EQ(S::plus(S::zero(), a), a);
    EXPECT_EQ(S::times(a, S::one()), a);
    EXPECT_EQ(S::times(S::one(), a), a);
    // 0̄ annihilates ⊗.
    EXPECT_EQ(S::times(a, S::zero()), S::zero());
    EXPECT_EQ(S::times(S::zero(), a), S::zero());
    EXPECT_TRUE(S::is_zero(S::zero()));
    for (Dist b : values) {
      EXPECT_EQ(S::plus(a, b), S::plus(b, a));
      EXPECT_EQ(S::times(a, b), S::times(b, a));  // all three commute
      // improves() is consistent with ⊕.
      if (S::improves(a, b)) {
        EXPECT_EQ(S::plus(a, b), a);
      }
      for (Dist c : values) {
        EXPECT_EQ(S::plus(S::plus(a, b), c), S::plus(a, S::plus(b, c)));
        EXPECT_EQ(S::times(S::times(a, b), c), S::times(a, S::times(b, c)));
        // Distributivity.
        EXPECT_EQ(S::times(a, S::plus(b, c)),
                  S::plus(S::times(a, b), S::times(a, c)));
      }
    }
  }
}

TEST(Semirings, MinPlusLaws) {
  check_semiring_laws<MinPlusSemiring>({0, 1, 2.5, 7, kInf});
}

TEST(Semirings, MaxMinLaws) {
  check_semiring_laws<MaxMinSemiring>({0, 1, 2.5, 7, kInf});
}

TEST(Semirings, BoolLaws) { check_semiring_laws<BoolSemiring>({0, 1}); }

TEST(Semirings, GenericAccumulateSkipsZeroOperands) {
  DistBlock a(4, 4, MaxMinSemiring::zero());  // all 0̄ = no capacity
  DistBlock b(4, 4, 5.0);
  DistBlock c(4, 4, MaxMinSemiring::zero());
  EXPECT_EQ((semiring_accumulate<MaxMinSemiring>(c, a, b)), 0);
  EXPECT_EQ((semiring_accumulate<MaxMinSemiring>(c, b, a)), 0);
}

TEST(Bottleneck, TinyExample) {
  // 0 -2- 1 -5- 2 and 0 -3- 2: widest 0→2 is min(3)=3 direct vs
  // min(2,5)=2 via 1 → 3.
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 2);
  builder.add_edge(1, 2, 5);
  builder.add_edge(0, 2, 3);
  const Graph graph = std::move(builder).build();
  const DistBlock width = bottleneck_apsp(graph);
  EXPECT_EQ(width.at(0, 2), 3);   // direct 3 beats min(2,5) = 2 via 1
  EXPECT_EQ(width.at(0, 1), 3);   // detour 0-2-1 (min(3,5) = 3) beats 2
  EXPECT_EQ(width.at(1, 2), 5);
}

TEST(Bottleneck, PrefersHighCapacityDetour) {
  // Direct low-capacity edge vs a wide detour.
  GraphBuilder builder(3);
  builder.add_edge(0, 2, 1);   // narrow direct pipe
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 10);  // wide detour
  const Graph graph = std::move(builder).build();
  const DistBlock width = bottleneck_apsp(graph);
  EXPECT_EQ(width.at(0, 2), 10);
}

class BottleneckFamilies : public ::testing::TestWithParam<int> {};

TEST_P(BottleneckFamilies, MatchesWidestDijkstra) {
  Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
  WeightOptions opts;
  opts.min_weight = 1;
  opts.max_weight = 20;
  Graph graph;
  switch (GetParam()) {
    case 0: graph = make_grid2d(6, 6, rng, opts); break;
    case 1: graph = make_erdos_renyi(40, 4.0, rng, opts); break;
    case 2: graph = make_random_tree(40, rng, opts); break;
    default: graph = make_random_geometric(36, 0.3, rng, opts); break;
  }
  const DistBlock width = bottleneck_apsp(graph);
  for (Vertex s = 0; s < graph.num_vertices(); ++s) {
    const auto oracle = widest_path_sssp(graph, s);
    for (Vertex t = 0; t < graph.num_vertices(); ++t) {
      if (s == t) {
        EXPECT_TRUE(is_inf(width.at(s, t)));
      } else {
        EXPECT_EQ(width.at(s, t), oracle[static_cast<std::size_t>(t)])
            << s << "->" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, BottleneckFamilies,
                         ::testing::Range(0, 4));

TEST(Bottleneck, SupernodalScheduleIsSemiringGeneric) {
  // Carré's claim, machine-checked: the identical elimination schedule
  // computes bottleneck paths when run over MaxMin.
  for (int height : {2, 3, 4}) {
    Rng rng(17);
    WeightOptions opts;
    opts.min_weight = 1;
    opts.max_weight = 9;
    const Graph graph = make_grid2d(9, 9, rng, opts);
    Rng nd_rng(18);
    const Dissection nd = nested_dissection(graph, height, nd_rng);
    const DistBlock direct = bottleneck_apsp(graph);
    const DistBlock supernodal = bottleneck_apsp_supernodal(graph, nd);
    EXPECT_EQ(supernodal, direct) << "height " << height;
  }
}

TEST(TransitiveClosure, MatchesComponents) {
  Rng rng(19);
  GraphBuilder builder(30);
  for (Vertex i = 0; i < 9; ++i) {
    builder.add_edge(i, i + 1, 1);
    builder.add_edge(10 + i, 11 + i, 1);
  }
  builder.add_edge(25, 26, 1);
  const Graph graph = std::move(builder).build();
  const DistBlock closure = transitive_closure(graph);
  const auto label = connected_components(graph);
  for (Vertex u = 0; u < 30; ++u)
    for (Vertex v = 0; v < 30; ++v)
      EXPECT_EQ(closure.at(u, v) == 1,
                label[static_cast<std::size_t>(u)] ==
                    label[static_cast<std::size_t>(v)])
          << u << "," << v;
}

TEST(TransitiveClosure, ValuesAreBoolean) {
  Rng rng(20);
  const Graph graph = make_erdos_renyi(40, 2.0, rng);
  const DistBlock closure = transitive_closure(graph);
  for (Dist v : closure.data()) EXPECT_TRUE(v == 0 || v == 1);
}

TEST(Bottleneck, RejectsNonPositiveCapacities) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 0.0);
  const Graph graph = std::move(builder).build();
  EXPECT_THROW(bottleneck_apsp(graph), check_error);
}

}  // namespace
}  // namespace capsp
