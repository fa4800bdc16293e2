#include "partition/nested_dissection.hpp"

#include <algorithm>

#include "partition/separator.hpp"
#include "util/metrics.hpp"

namespace capsp {

Snode Dissection::supernode_of(Vertex v) const {
  for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
    const auto& r = ranges[static_cast<std::size_t>(s)];
    if (v >= r.begin && v < r.end) return s;
  }
  CAPSP_CHECK_MSG(false, "vertex " << v << " not in any supernode");
  return -1;
}

namespace {

/// Recursively dissect `vertices` (original ids, inducing a subgraph of
/// `graph`), assigning the member vertices of each supernode.  `level` is
/// the eTree level of the current node, `index` its position in the level.
void dissect_recursive(const Graph& graph, std::vector<Vertex> vertices,
                       int level, Snode index, const EliminationTree& tree,
                       Rng& rng, const BisectOptions& options,
                       std::vector<std::vector<Vertex>>& members) {
  const Snode label = tree.node_at(level, index);
  if (level == 1) {
    members[static_cast<std::size_t>(label)] = std::move(vertices);
    return;
  }
  const Graph sub = graph.induced_subgraph(vertices);
  const SeparatorPartition part = find_separator(sub, rng, options);
  metrics().observe("partition.nd.separator_size",
                    static_cast<double>(part.separator.size()));
  // Balance of the split in [0, 1]; 1 is a perfect halving.
  const double larger =
      static_cast<double>(std::max(part.v1.size(), part.v2.size()));
  metrics().observe("partition.nd.balance",
                    larger > 0 ? static_cast<double>(std::min(part.v1.size(),
                                                              part.v2.size())) /
                                     larger
                               : 1.0);

  auto to_original = [&vertices](const std::vector<Vertex>& local) {
    std::vector<Vertex> out;
    out.reserve(local.size());
    for (Vertex v : local) out.push_back(vertices[static_cast<std::size_t>(v)]);
    return out;
  };
  std::vector<Vertex> v1 = to_original(part.v1);
  std::vector<Vertex> v2 = to_original(part.v2);
  members[static_cast<std::size_t>(label)] = to_original(part.separator);

  dissect_recursive(graph, std::move(v1), level - 1, 2 * index, tree, rng,
                    options, members);
  dissect_recursive(graph, std::move(v2), level - 1, 2 * index + 1, tree, rng,
                    options, members);
}

}  // namespace

Dissection nested_dissection(const Graph& graph, int height, Rng& rng,
                             const BisectOptions& options) {
  CAPSP_CHECK(height >= 1);
  Dissection nd(height);
  const Snode num_supernodes = nd.tree.num_supernodes();
  std::vector<std::vector<Vertex>> members(
      static_cast<std::size_t>(num_supernodes) + 1);

  std::vector<Vertex> all(static_cast<std::size_t>(graph.num_vertices()));
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    all[static_cast<std::size_t>(v)] = v;
  dissect_recursive(graph, std::move(all), height, 0, nd.tree, rng, options,
                    members);

  // Lay supernodes out contiguously.  Order within the permutation follows
  // the recursion (left subtree, right subtree, separator), realized here
  // by sorting supernodes so that every descendant precedes its ancestor
  // and, among unrelated nodes, the left subtree comes first.  A post-order
  // walk provides exactly that order.
  std::vector<Snode> post_order;
  post_order.reserve(static_cast<std::size_t>(num_supernodes));
  {
    // Iterative post-order over the perfect tree (root label = N).
    std::vector<std::pair<Snode, bool>> stack{{num_supernodes, false}};
    while (!stack.empty()) {
      auto [s, expanded] = stack.back();
      stack.pop_back();
      if (expanded || nd.tree.level_of(s) == 1) {
        post_order.push_back(s);
        continue;
      }
      stack.push_back({s, true});
      const auto [left, right] = nd.tree.children(s);
      stack.push_back({right, false});
      stack.push_back({left, false});
    }
  }

  nd.ranges.assign(static_cast<std::size_t>(num_supernodes) + 1, {});
  nd.perm.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  nd.iperm.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  Vertex next = 0;
  for (Snode s : post_order) {
    auto& range = nd.ranges[static_cast<std::size_t>(s)];
    range.begin = next;
    for (Vertex original : members[static_cast<std::size_t>(s)]) {
      nd.perm[static_cast<std::size_t>(original)] = next;
      nd.iperm[static_cast<std::size_t>(next)] = original;
      ++next;
    }
    range.end = next;
  }
  CAPSP_CHECK(next == graph.num_vertices());
  return nd;
}

Graph apply_dissection(const Graph& graph, const Dissection& nd) {
  return graph.permuted(nd.perm);
}

DistBlock undo_dissection(const DistBlock& reordered, const Dissection& nd) {
  const auto n = static_cast<Vertex>(nd.perm.size());
  CAPSP_CHECK(reordered.rows() == n && reordered.cols() == n);
  DistBlock original(n, n);
  undo_dissection_into(original, nd, 0, 0, reordered);
  return original;
}

void undo_dissection_into(DistBlock& original, const Dissection& nd,
                          Vertex row0, Vertex col0, const DistBlock& piece) {
  const auto n = static_cast<std::int64_t>(nd.iperm.size());
  CAPSP_CHECK(original.rows() == n && original.cols() == n);
  CAPSP_CHECK(row0 >= 0 && col0 >= 0);
  CAPSP_CHECK(row0 + piece.rows() <= n && col0 + piece.cols() <= n);
  const Vertex* out_cols = nd.iperm.data() + col0;
  for (std::int64_t a = 0; a < piece.rows(); ++a) {
    Dist* out = original.row(nd.iperm[static_cast<std::size_t>(row0 + a)]);
    const Dist* in = piece.row(a);
    for (std::int64_t b = 0; b < piece.cols(); ++b) out[out_cols[b]] = in[b];
  }
}

}  // namespace capsp
