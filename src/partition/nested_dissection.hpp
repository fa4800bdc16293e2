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

/// One piece of a matrix over the reordered vertices: `block` holds rows
/// [row0, row0 + block.rows()) × columns [col0, col0 + block.cols()).
struct ReorderedPiece {
  Vertex row0 = 0;
  Vertex col0 = 0;
  DistBlock block;
};

/// Inverse of apply_dissection for solver output held in pieces: the n×n
/// matrix in the original numbering whose entry (iperm[a], iperm[b]) is
/// entry (a, b) of the reordered matrix the pieces make up.  Pieces that
/// do not tile that matrix exactly throw check_error before anything is
/// written.  The writers are Fibers::carrier_count threads, the caller
/// among them (DESIGN.md decision 18): each takes runs of rows of one
/// band (the pieces that share rows), so it writes whole original rows,
/// and a band's pieces are freed once all of its rows are written.  Call
/// it outside Machine::run: a rank starts no threads.
DistBlock undo_dissection(std::vector<ReorderedPiece> pieces,
                          const Dissection& nd);

/// The same for one n×n block: entry (u, v) of the result is entry
/// (perm[u], perm[v]) of `reordered`.
DistBlock undo_dissection(DistBlock reordered, const Dissection& nd);

/// undo_dissection for one piece on the calling thread: `piece` holds
/// rows [row0, row0 + rows) × columns [col0, col0 + cols) of a matrix
/// over the reordered vertices; entry (a, b) is written to
/// (iperm[row0 + a], iperm[col0 + b]) of `original`, an n×n matrix in the
/// original numbering.  A supernodal leaf writes its closure back with it
/// inside its rank.
void undo_dissection_into(DistBlock& original, const Dissection& nd,
                          Vertex row0, Vertex col0, const DistBlock& piece);

}  // namespace capsp
