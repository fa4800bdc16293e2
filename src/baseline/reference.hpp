// Sequential ground-truth APSP solvers.
//
// These are the correctness oracles for every distributed algorithm in the
// repository: Dijkstra-per-source (Johnson's inner loop) for non-negative
// weights and Bellman–Ford-per-source when negative edges are present.
// They are deliberately simple and independent of the block/scheduling
// machinery they validate.
#pragma once

#include "graph/graph.hpp"
#include "semiring/block.hpp"

namespace capsp {

/// All-pairs shortest distances via Dijkstra from every source (binary
/// heap).  Requires non-negative edge weights.  O(n·(m+n)·log n).
DistBlock dijkstra_apsp(const Graph& graph);

/// Single-source distances via Dijkstra.
std::vector<Dist> dijkstra_sssp(const Graph& graph, Vertex source);

/// All-pairs shortest distances via Bellman–Ford from every source;
/// supports negative edges.  CHECK-fails on a negative cycle.
DistBlock bellman_ford_apsp(const Graph& graph);

/// Single-source Bellman–Ford; CHECK-fails on a negative cycle.
std::vector<Dist> bellman_ford_sssp(const Graph& graph, Vertex source);

/// Chooses Dijkstra or Bellman–Ford based on the minimum edge weight.
DistBlock reference_apsp(const Graph& graph);

}  // namespace capsp
