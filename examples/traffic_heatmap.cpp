// Who talks to whom: rank-pair traffic heatmaps of 2D-SPARSE-APSP vs
// 2D-DC-APSP on the same graph.
//
// This example uses the *advanced* (SPMD) API — it builds the machine by
// hand, enables traffic recording, builds Algorithm 1's schedule, and
// drives sparse_apsp_rank / dc_apsp_rank directly — and then renders the
// p×p communication matrix.
// The sparse algorithm's heatmap shows the eTree structure: leaf rows
// talk only along their root paths, separator rows fan out, and most
// rank pairs never exchange a word (the communication the algorithm
// *avoids*).  The dense algorithm's heatmap is a uniform grid blanket.
//
//   ./traffic_heatmap [--n 196] [--height 3]
#include <cmath>
#include <iostream>

#include "baseline/dc_apsp.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "semiring/graph_matrix.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"

namespace {

using namespace capsp;

/// Log-scaled ASCII shade for a traffic cell.
char shade(std::int64_t words, std::int64_t peak) {
  if (words == 0) return '.';
  static const char kRamp[] = "123456789#";
  const double level = std::log1p(static_cast<double>(words)) /
                       std::log1p(static_cast<double>(peak));
  const int idx = std::min(9, static_cast<int>(level * 10));
  return kRamp[idx];
}

void print_heatmap(const TrafficMatrix& traffic, const std::string& title) {
  const int p = traffic.num_ranks;
  std::int64_t peak = 1, total = 0, used_pairs = 0;
  for (RankId s = 0; s < p; ++s)
    for (RankId d = 0; d < p; ++d) {
      peak = std::max(peak, traffic.words_between(s, d));
      total += traffic.words_between(s, d);
      used_pairs += traffic.words_between(s, d) > 0;
    }
  std::cout << "\n" << title << "  (" << used_pairs << "/" << p * p
            << " rank pairs used, " << total << " words total)\n";
  for (RankId s = 0; s < p; ++s) {
    std::cout << "  ";
    for (RankId d = 0; d < p; ++d)
      std::cout << shade(traffic.words_between(s, d), peak);
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n_target = static_cast<Vertex>(cli.get_int("n", 196));
  const int height = static_cast<int>(cli.get_int("height", 3));
  cli.check_unused();

  Rng rng(3);
  const auto side =
      static_cast<Vertex>(isqrt(static_cast<std::uint64_t>(n_target)));
  const Graph graph = make_grid2d(side, side, rng);
  std::cout << "graph: " << graph.num_vertices() << "-vertex grid\n";

  // --- sparse algorithm, SPMD API ---
  Rng nd_rng(4);
  const Dissection nd = nested_dissection(graph, height, nd_rng);
  const ApspLayout layout(nd);
  const SparseSchedule schedule(layout);
  const Graph reordered = apply_dissection(graph, nd);
  Machine sparse_machine(layout.num_ranks());
  sparse_machine.enable_traffic_recording(true);
  sparse_machine.run([&](Comm& comm) {
    const auto [i, j] = layout.block_of(comm.rank());
    DistBlock local = adjacency_block(
        reordered, layout.range_of(i).begin, layout.range_of(i).end,
        layout.range_of(j).begin, layout.range_of(j).end);
    sparse_apsp_rank(comm, schedule, local);
  });
  print_heatmap(sparse_machine.traffic(),
                "2D-SPARSE-APSP traffic (p = " +
                    std::to_string(layout.num_ranks()) +
                    "; rank (i-1)·√p+(j-1) owns block A(i,j))");

  // --- dense baseline, SPMD API ---
  const int q = 1 << (height - 1);
  const DistBlock full = to_distance_matrix(graph);
  std::vector<RankId> all(static_cast<std::size_t>(q * q));
  for (int r = 0; r < q * q; ++r) all[static_cast<std::size_t>(r)] = r;
  const GridLayout grid =
      GridLayout::square(all, q, graph.num_vertices());
  Machine dense_machine(q * q);
  dense_machine.enable_traffic_recording(true);
  dense_machine.run([&](Comm& comm) {
    const auto [gr, gc] = grid.coords_of(comm.rank());
    const IndexRect rect = grid.block_rect(gr, gc);
    DistBlock local = full.sub_block(rect.row_begin, rect.col_begin,
                                     rect.rows(), rect.cols());
    Tag tag = 0;
    dc_apsp_rank(comm, grid, local, tag);
  });
  print_heatmap(dense_machine.traffic(),
                "2D-DC-APSP traffic (p = " + std::to_string(q * q) + ")");

  std::cout << "\nlegend: '.' = no traffic, '1'-'#' = log-scaled words.\n"
               "The sparse map is mostly '.', and its nonzeros follow the "
               "eTree's ancestor paths — that sparsity *is* the "
               "communication avoidance.\n";
  return 0;
}
