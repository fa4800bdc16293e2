#include "core/superfw.hpp"

#include <utility>

#include "semiring/graph_matrix.hpp"
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

SuperFwCounts superfw_eliminate(DistBlock& a, const Dissection& nd,
                                const SemiringKernels& kernels) {
  ProfScope prof("core.superfw");
  const EliminationTree& tree = nd.tree;
  const auto n_sup = static_cast<std::int64_t>(tree.num_supernodes());
  SuperFwCounts counts;
  counts.ops_per_level.assign(static_cast<std::size_t>(tree.height()), 0);
  for (int l = 1; l <= tree.height(); ++l) {
    // One scope per level iteration: sampled stacks attribute time to
    // "level processing" generically; the per-level split stays in the
    // exact ops_per_level metric below.
    ProfScope level_prof("core.superfw.level");
    const std::int64_t ops_before_level = counts.ops;
    for (Snode k : tree.level_set(l)) {
      const VertexRange rk = nd.range_of(k);
      // Relatives of k: ancestors + descendants.  Every update touching a
      // cousin block is skipped (structurally empty at this point — the
      // SuperFW saving): all N² updates but the (1 + |related|)² below.
      const std::vector<Snode> related = tree.related_set(k);
      const auto touched = 1 + static_cast<std::int64_t>(related.size());
      counts.skipped_blocks += n_sup * n_sup - touched * touched;

      // Diagonal update.
      DistBlock akk = load(a, rk, rk);
      counts.ops += kernels.fw(akk);
      store(a, rk, rk, akk);

      // Panel updates.
      for (Snode i : related) {
        const VertexRange ri = nd.range_of(i);
        DistBlock aik = load(a, ri, rk);
        counts.ops += kernels.accumulate(aik, aik, akk);
        store(a, ri, rk, aik);
        DistBlock aki = load(a, rk, ri);
        counts.ops += kernels.accumulate(aki, akk, aki);
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
          counts.ops += kernels.accumulate(aij, aik, akj);
          store(a, ri, rj, aij);
        }
      }
    }
    const std::int64_t level_ops = counts.ops - ops_before_level;
    counts.ops_per_level[static_cast<std::size_t>(l - 1)] = level_ops;
    level_prof.add_ops(level_ops);
    metrics().observe("core.superfw.level_ops",
                      static_cast<double>(level_ops));
  }
  metrics().counter_add("core.superfw.ops", counts.ops);
  metrics().counter_add("core.superfw.skipped_blocks", counts.skipped_blocks);
  return counts;
}

SuperFwResult superfw(const Graph& reordered, const Dissection& nd) {
  DistBlock a = to_distance_matrix(reordered);
  // Braced initializers run in order: eliminate, then move the closure.
  return {superfw_eliminate(a, nd, SemiringKernels::of<MinPlusSemiring>()),
          std::move(a)};
}

SuperFwResult superfw_original_order(const Graph& graph,
                                     const Dissection& nd) {
  const Graph reordered = apply_dissection(graph, nd);
  SuperFwResult result = superfw(reordered, nd);
  result.distances = undo_dissection(std::move(result.distances), nd);
  return result;
}

}  // namespace capsp
