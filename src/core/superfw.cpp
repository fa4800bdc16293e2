#include "core/superfw.hpp"

#include <algorithm>
#include <utility>

#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace capsp {
namespace {

/// Read/write view helpers on the full reordered matrix.
DistBlock load(const DistBlock& a, const VertexRange& r,
               const VertexRange& c) {
  return a.sub_block(r.begin, c.begin, r.size(), c.size());
}

void store(DistBlock& a, const VertexRange& r, const VertexRange& c,
           const DistBlock& block) {
  a.set_sub_block(r.begin, c.begin, block);
}

}  // namespace

template <typename S>
SuperFwResult superfw_semiring(DistBlock matrix, const Dissection& nd) {
  ProfScope prof("core.superfw");
  const EliminationTree& tree = nd.tree;
  SuperFwResult result;
  result.distances = std::move(matrix);
  DistBlock& a = result.distances;

  result.ops_per_level.assign(static_cast<std::size_t>(tree.height()), 0);
  for (int l = 1; l <= tree.height(); ++l) {
    // One scope per level iteration: sampled stacks attribute time to
    // "level processing" generically; the per-level split stays in the
    // exact ops_per_level metric below.
    ProfScope level_prof("core.superfw.level");
    const std::int64_t ops_before_level = result.ops;
    for (Snode k : tree.level_set(l)) {
      const VertexRange rk = nd.range_of(k);
      // Relatives of k: ancestors + descendants (cousin blocks are
      // structurally empty at this point and skipped — the SuperFW saving).
      std::vector<Snode> related = tree.descendants(k);
      {
        const auto anc = tree.ancestors(k);
        related.insert(related.end(), anc.begin(), anc.end());
      }
      std::sort(related.begin(), related.end());
      const auto n_sup = static_cast<std::int64_t>(tree.num_supernodes());
      result.skipped_blocks +=
          (n_sup - 1 - static_cast<std::int64_t>(related.size())) *
          (2 + n_sup - 1 - static_cast<std::int64_t>(related.size()));

      // Diagonal update.
      DistBlock akk = load(a, rk, rk);
      result.ops += semiring_fw<S>(akk);
      store(a, rk, rk, akk);

      // Panel updates.
      for (Snode i : related) {
        const VertexRange ri = nd.range_of(i);
        DistBlock aik = load(a, ri, rk);
        result.ops += semiring_accumulate<S>(aik, aik, akk);
        store(a, ri, rk, aik);
        DistBlock aki = load(a, rk, ri);
        result.ops += semiring_accumulate<S>(aki, akk, aki);
        store(a, rk, ri, aki);
      }

      // Outer product over relatives × relatives.
      for (Snode i : related) {
        const VertexRange ri = nd.range_of(i);
        const DistBlock aik = load(a, ri, rk);
        for (Snode j : related) {
          const VertexRange rj = nd.range_of(j);
          DistBlock aij = load(a, ri, rj);
          const DistBlock akj = load(a, rk, rj);
          result.ops += semiring_accumulate<S>(aij, aik, akj);
          store(a, ri, rj, aij);
        }
      }
    }
    result.ops_per_level[static_cast<std::size_t>(l - 1)] =
        result.ops - ops_before_level;
    level_prof.add_ops(result.ops - ops_before_level);
    metrics().observe(
        "core.superfw.level_ops",
        static_cast<double>(result.ops_per_level[static_cast<std::size_t>(
            l - 1)]));
  }
  metrics().counter_add("core.superfw.ops", result.ops);
  metrics().counter_add("core.superfw.skipped_blocks", result.skipped_blocks);
  return result;
}

template SuperFwResult superfw_semiring<MinPlusSemiring>(DistBlock,
                                                         const Dissection&);
template SuperFwResult superfw_semiring<MaxMinSemiring>(DistBlock,
                                                        const Dissection&);

SuperFwResult superfw(const Graph& reordered, const Dissection& nd) {
  return superfw_semiring<MinPlusSemiring>(to_distance_matrix(reordered), nd);
}

SuperFwResult superfw_original_order(const Graph& graph,
                                     const Dissection& nd) {
  const Graph reordered = apply_dissection(graph, nd);
  SuperFwResult result = superfw(reordered, nd);
  result.distances = undo_dissection(result.distances, nd);
  return result;
}

}  // namespace capsp
