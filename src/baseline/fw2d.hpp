// 2D distributed Floyd–Warshall with a block-cyclic layout.
//
// Generalizes two baselines from the paper's related-work discussion:
//   * blocks_per_dim == q  — pure block layout, one block per rank; the
//     classic communication-efficient dense blocked FW
//     (L = O(√p·log p), B = O(n²·log p/√p));
//   * blocks_per_dim == n  — vertex-wise pivoting à la Jenq & Sahni [14]:
//     no block structure, latency Θ(n·log p);
//   * anything in between demonstrates Sec. 5.1's point that a block-cyclic
//     layout forces the diagonal owner to send Ω(blocks_per_dim/√p)
//     sequential messages.
// The matrix lies on a BlockCyclic layout (dist_matrix.hpp): block
// (bi, bj) of the (blocks_per_dim)² block matrix lives on rank
// (bi mod q, bj mod q) of the q×q grid.  Each step k broadcasts the
// diagonal block, updates the panels, and sends block column and row k
// with BlockCyclic's panel broadcasts over the whole range [0, nb).
#pragma once

#include "baseline/dc_apsp.hpp"
#include "graph/graph.hpp"

namespace capsp {

/// Run block-cyclic 2D FW on a q²-rank machine.  blocks_per_dim must be in
/// [q, n].  Results and cost conventions as run_dc_apsp: L and B end where
/// every rank stops its clock, before the result gather.
DistributedApspResult run_fw2d(const Graph& graph, int q, int blocks_per_dim);

}  // namespace capsp
