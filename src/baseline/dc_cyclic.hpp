// 2D-DC-APSP on a *block-cyclic* layout — the layout reference [24]
// actually uses, and the one the paper's Sec. 5.1 says DC needs "to
// alleviate load-imbalance".
//
// The matrix is split into nb×nb blocks, block (bi, bj) on rank
// (bi mod q, bj mod q).  The Kleene recursion then runs over *block index
// ranges*: every quadrant of every subproblem is still spread over the
// whole q×q grid (as long as its range is at least q blocks wide), so all
// ranks stay busy through the recursion — unlike the pure block layout of
// dc_apsp.cpp, where a depth-d subproblem lives on a 1/4^d fraction of
// the grid.  Multiplies are SUMMA-style per block column: for each inner
// block index, BlockCyclic's (dist_matrix.hpp) column and row panel
// broadcasts over the operands' block ranges, the same broadcasts fw2d
// makes over the whole range.
//
// Together with dc_apsp (block layout) this completes the paper's layout
// story: bench_load_balance measures both.
#pragma once

#include "baseline/dc_apsp.hpp"
#include "graph/graph.hpp"

namespace capsp {

/// Run block-cyclic 2D-DC-APSP on a q²-rank machine.  blocks_per_dim
/// must be a power of two in [q, n] (the recursion halves block ranges).
/// Result/cost conventions as run_dc_apsp: L and B end where every rank
/// stops its clock, before the result gather.
DistributedApspResult run_dc_apsp_cyclic(const Graph& graph, int q,
                                         int blocks_per_dim);

}  // namespace capsp
