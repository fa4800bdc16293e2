// Tests for the advanced (SPMD) API that docs/using.md and the
// traffic_heatmap example rely on: driving sparse_apsp_rank and
// dc_apsp_rank on a hand-built machine, plus the Timer utility.
#include <gtest/gtest.h>

#include <thread>

#include "baseline/dc_apsp.hpp"
#include "baseline/reference.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "semiring/graph_matrix.hpp"
#include "util/timer.hpp"

namespace capsp {
namespace {

TEST(SpmdApi, HandBuiltSparseRunMatchesDriver) {
  Rng rng(1);
  const Graph graph = make_grid2d(8, 8, rng);
  Rng nd_rng(2);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  const ApspLayout layout(nd);
  const SparseSchedule schedule(layout);
  const Graph reordered = apply_dissection(graph, nd);

  Machine machine(layout.num_ranks());
  machine.enable_traffic_recording(true);
  // Collect final blocks into a shared table (one writer per slot).
  std::vector<DistBlock> finals(
      static_cast<std::size_t>(layout.num_ranks()));
  machine.run([&](Comm& comm) {
    const auto [i, j] = layout.block_of(comm.rank());
    DistBlock local = adjacency_block(
        reordered, layout.range_of(i).begin, layout.range_of(i).end,
        layout.range_of(j).begin, layout.range_of(j).end);
    sparse_apsp_rank(comm, schedule, local);
    finals[static_cast<std::size_t>(comm.rank())] = std::move(local);
  });

  // Assemble and compare against the oracle (in reordered ids).
  DistBlock assembled(graph.num_vertices(), graph.num_vertices());
  for (RankId r = 0; r < layout.num_ranks(); ++r) {
    const auto [i, j] = layout.block_of(r);
    assembled.set_sub_block(layout.range_of(i).begin,
                            layout.range_of(j).begin,
                            finals[static_cast<std::size_t>(r)]);
  }
  const DistBlock want = reference_apsp(reordered);
  for (Vertex u = 0; u < graph.num_vertices(); ++u)
    for (Vertex v = 0; v < graph.num_vertices(); ++v)
      ASSERT_NEAR(assembled.at(u, v), want.at(u, v), 1e-9);

  // Traffic matrix recorded and consistent with the report.
  const TrafficMatrix& traffic = machine.traffic();
  ASSERT_EQ(traffic.num_ranks, layout.num_ranks());
  std::int64_t total = 0;
  for (RankId s = 0; s < traffic.num_ranks; ++s)
    for (RankId d = 0; d < traffic.num_ranks; ++d)
      total += traffic.words_between(s, d);
  EXPECT_EQ(total, machine.report().total_words);
}

TEST(SpmdApi, SparseTrafficIsSparserThanDense) {
  // The traffic_heatmap example's claim, as a test: the sparse algorithm
  // uses far fewer rank pairs than p².
  Rng rng(3);
  const Graph graph = make_grid2d(10, 10, rng);
  Rng nd_rng(4);
  const Dissection nd = nested_dissection(graph, 3, nd_rng);
  const ApspLayout layout(nd);
  const SparseSchedule schedule(layout);
  const Graph reordered = apply_dissection(graph, nd);
  Machine machine(layout.num_ranks());
  machine.enable_traffic_recording(true);
  machine.run([&](Comm& comm) {
    const auto [i, j] = layout.block_of(comm.rank());
    DistBlock local = adjacency_block(
        reordered, layout.range_of(i).begin, layout.range_of(i).end,
        layout.range_of(j).begin, layout.range_of(j).end);
    sparse_apsp_rank(comm, schedule, local);
  });
  const TrafficMatrix& traffic = machine.traffic();
  int used = 0;
  const int p = layout.num_ranks();
  for (RankId s = 0; s < p; ++s)
    for (RankId d = 0; d < p; ++d) used += traffic.words_between(s, d) > 0;
  EXPECT_LT(used, p * p / 3) << "communication graph not sparse";
}

TEST(SpmdApi, DcRankCallableDirectly) {
  Rng rng(5);
  const Graph graph = make_grid2d(6, 6, rng);
  const DistBlock full = to_distance_matrix(graph);
  std::vector<RankId> ranks{0, 1, 2, 3};
  const GridLayout grid = GridLayout::square(ranks, 2, graph.num_vertices());
  Machine machine(4);
  std::vector<DistBlock> finals(4);
  machine.run([&](Comm& comm) {
    const auto [gr, gc] = grid.coords_of(comm.rank());
    const IndexRect rect = grid.block_rect(gr, gc);
    DistBlock local = full.sub_block(rect.row_begin, rect.col_begin,
                                     rect.rows(), rect.cols());
    Tag tag = 0;
    dc_apsp_rank(comm, grid, local, tag);
    finals[static_cast<std::size_t>(comm.rank())] = std::move(local);
  });
  const DistBlock want = reference_apsp(graph);
  for (RankId r = 0; r < 4; ++r) {
    const auto [gr, gc] = grid.coords_of(r);
    const IndexRect rect = grid.block_rect(gr, gc);
    for (std::int64_t i = 0; i < rect.rows(); ++i)
      for (std::int64_t j = 0; j < rect.cols(); ++j)
        ASSERT_NEAR(finals[static_cast<std::size_t>(r)].at(i, j),
                    want.at(rect.row_begin + i, rect.col_begin + j), 1e-9);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double first = timer.seconds();
  EXPECT_GE(first, 0.015);
  EXPECT_LT(first, 5.0);
  timer.reset();
  EXPECT_LT(timer.seconds(), first);
  EXPECT_GE(timer.millis(), 0.0);
}

}  // namespace
}  // namespace capsp
