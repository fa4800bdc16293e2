// SuperFW: the sequential supernodal Floyd–Warshall of Sao et al.
// (PPoPP'20, reference [22]), which the paper's pre-processing stage is
// built on.  Eliminates supernodes bottom-up along the eTree and skips
// every update involving a structurally empty (cousin) block, cutting the
// operation count by ~O(n/|S|) versus ClassicalFW on sparse graphs.
//
// This is simultaneously (a) the shared-memory baseline quoted in the
// paper's related work, (b) the mathematical specification of what the
// distributed algorithm computes (same elimination order, same skipped
// updates), and (c) the op-count harness for the computation-reduction
// experiment.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layout.hpp"
#include "graph/graph.hpp"
#include "partition/nested_dissection.hpp"
#include "semiring/block.hpp"

namespace capsp {

struct SuperFwResult {
  DistBlock distances;        ///< APSP of the *reordered* graph
  std::int64_t ops = 0;       ///< scalar ⊗ operations performed
  std::int64_t skipped_blocks = 0;  ///< block updates avoided by sparsity
  /// ⊗ operations per elimination level (index l-1 for level l); the
  /// sequential mirror of SparseApspResult::clock_after_level, so the
  /// distributed per-level work can be checked against the same schedule
  /// run sequentially.  Sums to `ops`.
  std::vector<std::int64_t> ops_per_level;
};

/// The supernodal elimination schedule over semiring S: eliminates the
/// supernodes of `nd` bottom-up on `matrix`, the semiring matrix of the
/// reordered graph, and returns it as the result's `distances`.  Defined
/// for MinPlusSemiring (superfw) and MaxMinSemiring
/// (bottleneck_apsp_supernodal).
template <typename S>
SuperFwResult superfw_semiring(DistBlock matrix, const Dissection& nd);

/// Run SuperFW on the reordered graph described by `nd`.  `reordered`
/// must be apply_dissection(graph, nd).
SuperFwResult superfw(const Graph& reordered, const Dissection& nd);

/// Convenience overload: reorders internally and maps the result back to
/// the original vertex numbering.
SuperFwResult superfw_original_order(const Graph& graph,
                                     const Dissection& nd);

}  // namespace capsp
