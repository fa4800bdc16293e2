// Recursive nested dissection (paper Sec. 4.1 / Fig. 1-2).
//
// Dissects the graph to a fixed number of levels `height`, producing:
//   * a fill-reducing permutation (V1-subtree, V2-subtree, then S — so
//     every separator gets higher indices than everything it separates);
//   * the supernode vertex ranges in the new ordering, indexed by the
//     paper's bottom-up eTree labels;
//   * the elimination tree itself.
// Choosing height = log2(√p + 1) yields N = √p supernodes, the block
// layout of Sec. 5.1.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "partition/bisect.hpp"
#include "semiring/block.hpp"
#include "tree/etree.hpp"
#include "util/rng.hpp"

namespace capsp {

/// Contiguous vertex range [begin, end) in the permuted ordering.
struct VertexRange {
  Vertex begin = 0;
  Vertex end = 0;
  Vertex size() const { return end - begin; }
  bool empty() const { return begin == end; }
  friend bool operator==(const VertexRange&, const VertexRange&) = default;
};

/// Result of the ND pre-processing stage.
struct Dissection {
  EliminationTree tree;               ///< perfect eTree with `height` levels
  std::vector<Vertex> perm;           ///< old id -> new id
  std::vector<Vertex> iperm;          ///< new id -> old id
  std::vector<VertexRange> ranges;    ///< indexed by supernode label; [0] unused

  explicit Dissection(int height) : tree(height) {}

  const VertexRange& range_of(Snode s) const {
    CAPSP_CHECK(tree.valid(s));
    return ranges[static_cast<std::size_t>(s)];
  }

  /// Supernode containing permuted vertex `v`.
  Snode supernode_of(Vertex v) const;

  /// Size of the top-level separator, the paper's |S|.
  Vertex top_separator_size() const {
    return range_of(tree.num_supernodes()).size();
  }
};

/// Run nested dissection with the given eTree height (>= 1).  Height 1
/// returns the trivial dissection (one supernode holding everything).
Dissection nested_dissection(const Graph& graph, int height, Rng& rng,
                             const BisectOptions& options = {});

/// Apply a dissection to its graph: the reordered graph whose adjacency
/// matrix has the block-arrow structure of Fig. 1d.
Graph apply_dissection(const Graph& graph, const Dissection& nd);

/// Inverse of apply_dissection for solver output: map a matrix over the
/// reordered vertices back to the original numbering, so entry (u, v) of
/// the result is entry (perm[u], perm[v]) of `reordered`.
DistBlock undo_dissection(const DistBlock& reordered, const Dissection& nd);

/// undo_dissection for one piece: `piece` holds rows [row0, row0 + rows)
/// × columns [col0, col0 + cols) of a matrix over the reordered vertices;
/// entry (a, b) is written to (iperm[row0 + a], iperm[col0 + b]) of
/// `original`, an n×n matrix in the original numbering.  The sparse
/// solver's result gather writes each rank's block with it.
void undo_dissection_into(DistBlock& original, const Dissection& nd,
                          Vertex row0, Vertex col0, const DistBlock& piece);

}  // namespace capsp
