// 2D-DC-APSP: the dense divide-and-conquer baseline (Solomonik, Buluç,
// Demmel, IPDPS'13 — reference [24] of the paper).
//
// Kleene recursion over quadrants of the distance matrix:
//   A ← A*              (recurse on the top-left subgrid)
//   B ← A⊗B, C ← C⊗A
//   D ← D ⊕ C⊗B,  D ← D*   (recurse on the bottom-right subgrid)
//   B ← B⊗D, C ← D⊗C
//   A ← A ⊕ B⊗C
// with min-plus SUMMA multiplies on the quadrant subgrids.  The matrix is
// block-laid-out on a q×q grid (q a power of two); quadrant extraction is
// free (each rank's block lies in exactly one quadrant) and only operand
// movement between sibling subgrids communicates.  Measured costs follow
// the published bounds: B = O(n²·log p/√p), L = O(√p·log²p).
#pragma once

#include "baseline/dist_matrix.hpp"
#include "graph/graph.hpp"
#include "machine/machine.hpp"

namespace capsp {

/// Result of a metered distributed APSP run.
struct DistributedApspResult {
  DistBlock distances;  ///< full n×n matrix (gathered to the driver)
  /// Machine::report() as it is: L and B run from each rank's
  /// reset_clock() to its stop_clock(), so they cover the APSP phase
  /// only; the volumes count the result gather too, under "collect".
  CostReport costs;
  /// Scalar ⊗ operations per rank (the Sec. 5.1 load-balance measurement:
  /// with the block layout, DC's recursion idles most ranks during the
  /// quadrant subproblems).
  std::vector<std::int64_t> ops_per_rank;
};

/// SPMD body: every rank of the machine calls this with the full-matrix
/// layout and its local block; on return local blocks hold the closure.
/// `tag` is advanced by the tag space the recursion consumed.
void dc_apsp_rank(Comm& comm, const GridLayout& layout, DistBlock& local,
                  Tag& tag, std::int64_t* ops_out = nullptr);

/// Driver: build a q²-rank machine, distribute graph, run, gather.
/// q must be a power of two with q² <= 4096.
DistributedApspResult run_dc_apsp(const Graph& graph, int q);

}  // namespace capsp
