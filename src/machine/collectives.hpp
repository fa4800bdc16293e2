// Group collectives built on point-to-point messages.
//
// The paper's algorithm uses broadcasts and reductions over *irregular*
// processor groups (a supernode's ancestor/descendant rows, a reduce group
// of computing-unit workers), so these collectives take an explicit member
// list rather than a communicator split.  All members (and only members)
// must call the collective with identical `group`, `root`, and `tag`
// arguments.  Internally a binomial tree over the member list is used, so
// each collective costs O(log |group|) messages on the critical path —
// this is where Algorithm 1's O(log p) per-level latency comes from; it is
// measured, not assumed.
#pragma once

#include <span>
#include <vector>

#include "machine/machine.hpp"
#include "semiring/block.hpp"

namespace capsp {

/// Which collective implementation to use.
enum class CollectiveAlgorithm {
  /// Binomial tree: O(log k) messages on the critical path, but the root
  /// retransmits the payload O(log k) times (O(w·log k) words).  This is
  /// the convention the paper's own lemmas count with.
  kBinomialTree,
  /// Pipelined scatter + ring allgather (broadcast) / ring reduce-scatter
  /// + gather (reduction): O(k) messages but only O(w) words per rank —
  /// the long-message algorithms of production MPI implementations.
  /// Trades the paper's log²p latency for a smaller bandwidth constant.
  kPipelined,
};

/// Broadcast from `root` to every rank in `group`: returns, on every
/// member, the rows×cols block `source` holds on the root.  `source` is
/// read on the root only and never changed.  With the binomial tree the
/// root snapshots `source` once into one payload — a `source` that
/// already reads a payload is shared instead — and every tree edge
/// forwards that payload; each member's result reads it in place, the
/// root's included.  The pipelined algorithm assembles private blocks
/// from its chunks.
DistBlock group_broadcast(Comm& comm, std::span<const RankId> group,
                          RankId root, const DistBlock& source,
                          std::int64_t rows, std::int64_t cols, Tag tag,
                          CollectiveAlgorithm algorithm =
                              CollectiveAlgorithm::kBinomialTree);

/// In-place form: `block` is the source on the root (left unchanged) and
/// is replaced by the broadcast block elsewhere, where it must be
/// pre-shaped (rows/cols set).
void group_broadcast(Comm& comm, std::span<const RankId> group, RankId root,
                     DistBlock& block, Tag tag,
                     CollectiveAlgorithm algorithm =
                         CollectiveAlgorithm::kBinomialTree);

/// Elementwise combiner for reductions: c ← c ⊕ other.  Must be
/// associative and commutative (reduction trees reorder operands).
using ReduceCombiner = void (*)(DistBlock&, const DistBlock&);

/// Reduction of every member's `block` to `root` under `combine`.  On
/// root, `block` holds the reduced result afterwards; other members'
/// blocks are unchanged.  NOTE: the pipelined algorithm combines
/// word-ranges, so `combine` must be elementwise (ours are).
void group_reduce(Comm& comm, std::span<const RankId> group, RankId root,
                  DistBlock& block, Tag tag, ReduceCombiner combine,
                  CollectiveAlgorithm algorithm =
                      CollectiveAlgorithm::kBinomialTree);

/// Min-plus reduction (⊕ = elementwise min) — the shortest-path
/// instantiation of group_reduce.
void group_reduce_min(Comm& comm, std::span<const RankId> group, RankId root,
                      DistBlock& block, Tag tag,
                      CollectiveAlgorithm algorithm =
                          CollectiveAlgorithm::kBinomialTree);

/// Gather every member's block to `root`, ordered as `group`.  Returns the
/// blocks on root (empty vector elsewhere).  Blocks may differ in shape;
/// `shapes[i]` gives (rows, cols) of member i's contribution.
std::vector<DistBlock> group_gather(
    Comm& comm, std::span<const RankId> group, RankId root,
    const DistBlock& block,
    std::span<const std::pair<std::int64_t, std::int64_t>> shapes, Tag tag);

/// Scatter from root: member i receives blocks[i] (on root, blocks must
/// have group.size() entries; elsewhere it is ignored).  Returns this
/// member's block.
DistBlock group_scatter(
    Comm& comm, std::span<const RankId> group, RankId root,
    std::span<const DistBlock> blocks,
    std::span<const std::pair<std::int64_t, std::int64_t>> shapes, Tag tag);

}  // namespace capsp
