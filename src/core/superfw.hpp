// SuperFW: the sequential supernodal Floyd–Warshall of Sao et al.
// (PPoPP'20, reference [22]), which the paper's pre-processing stage is
// built on.  Eliminates supernodes bottom-up along the eTree and skips
// every update involving a structurally empty (cousin) block, cutting the
// operation count by ~O(n/|S|) versus ClassicalFW on sparse graphs.
//
// This is simultaneously (a) the shared-memory baseline quoted in the
// paper's related work, (b) the mathematical specification of what the
// distributed algorithm computes (same elimination order, same skipped
// updates), (c) the op-count harness for the computation-reduction
// experiment, and (d) how the distributed solver's R¹ eliminates a large,
// well-separated leaf over the leaf's own dissection (DESIGN.md
// decision 11).
#pragma once

#include <cstdint>
#include <vector>

#include "core/layout.hpp"
#include "graph/graph.hpp"
#include "partition/nested_dissection.hpp"
#include "semiring/block.hpp"
#include "semiring/semirings.hpp"

namespace capsp {

/// What one SuperFW elimination did.
struct SuperFwCounts {
  std::int64_t ops = 0;       ///< scalar ⊗ operations performed
  /// Block updates avoided by sparsity: N² − (1 + |A(k) ∪ D(k)|)² per
  /// pivot k of the N supernodes, the diagonal, panel and outer-product
  /// updates that touch a cousin of k.
  std::int64_t skipped_blocks = 0;
  /// ⊗ operations per elimination level (index l-1 for level l); the
  /// sequential mirror of SparseApspResult::clock_after_level, so the
  /// distributed per-level work can be checked against the same schedule
  /// run sequentially.  Sums to `ops`.
  std::vector<std::int64_t> ops_per_level;
};

struct SuperFwResult : SuperFwCounts {
  DistBlock distances;  ///< APSP of the *reordered* graph
};

/// The supernodal elimination schedule over any closed semiring:
/// eliminates the supernodes of `nd` bottom-up on `a`, the semiring
/// matrix of the reordered graph, in place, through `kernels`.  On return
/// `a` holds the closure.  Every SuperFW in the repository runs this one
/// loop: superfw (min-plus), bottleneck_apsp_supernodal (MaxMin) and the
/// distributed solver's large leaves (sparse_apsp.cpp, any semiring).
SuperFwCounts superfw_eliminate(DistBlock& a, const Dissection& nd,
                                const SemiringKernels& kernels);

/// Run SuperFW on the reordered graph described by `nd`.  `reordered`
/// must be apply_dissection(graph, nd).
SuperFwResult superfw(const Graph& reordered, const Dissection& nd);

/// Convenience overload: reorders internally and maps the result back to
/// the original vertex numbering.
SuperFwResult superfw_original_order(const Graph& graph,
                                     const Dissection& nd);

}  // namespace capsp
