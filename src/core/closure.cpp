#include "core/closure.hpp"

#include <queue>
#include <utility>

#include "core/superfw.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

/// Build the semiring "adjacency" matrix: 1̄ on the diagonal, edge values
/// elsewhere, 0̄ for non-edges.
template <typename S>
DistBlock semiring_matrix(const Graph& graph,
                          Dist (*edge_value)(Weight)) {
  const Vertex n = graph.num_vertices();
  DistBlock a(n, n, S::zero());
  for (Vertex v = 0; v < n; ++v) {
    a.at(v, v) = S::one();
    for (const auto& nb : graph.neighbors(v))
      a.at(v, nb.to) = S::plus(a.at(v, nb.to), edge_value(nb.weight));
  }
  return a;
}

/// MaxMin edge value: the weight read as a capacity.
Dist capacity(Weight w) {
  CAPSP_CHECK_MSG(w > 0, "bottleneck capacities must be positive");
  return static_cast<Dist>(w);
}

}  // namespace

DistBlock bottleneck_apsp(const Graph& graph) {
  DistBlock a = semiring_matrix<MaxMinSemiring>(graph, &capacity);
  semiring_fw<MaxMinSemiring>(a);
  return a;
}

DistBlock transitive_closure(const Graph& graph) {
  DistBlock a = semiring_matrix<BoolSemiring>(
      graph, +[](Weight) { return Dist{1}; });
  semiring_fw<BoolSemiring>(a);
  return a;
}

DistBlock bottleneck_apsp_supernodal(const Graph& graph,
                                     const Dissection& nd) {
  const Graph reordered = apply_dissection(graph, nd);
  DistBlock a = semiring_matrix<MaxMinSemiring>(reordered, &capacity);
  superfw_eliminate(a, nd, SemiringKernels::of<MaxMinSemiring>());
  return undo_dissection(std::move(a), nd);
}

std::vector<Dist> widest_path_sssp(const Graph& graph, Vertex source) {
  const Vertex n = graph.num_vertices();
  std::vector<Dist> width(static_cast<std::size_t>(n), 0);
  width[static_cast<std::size_t>(source)] = kInf;
  using Entry = std::pair<Dist, Vertex>;
  std::priority_queue<Entry> heap;  // max-heap on width
  heap.push({kInf, source});
  while (!heap.empty()) {
    const auto [w, v] = heap.top();
    heap.pop();
    if (w < width[static_cast<std::size_t>(v)]) continue;
    for (const auto& nb : graph.neighbors(v)) {
      const Dist through = std::min(w, static_cast<Dist>(nb.weight));
      if (through > width[static_cast<std::size_t>(nb.to)]) {
        width[static_cast<std::size_t>(nb.to)] = through;
        heap.push({through, nb.to});
      }
    }
  }
  return width;
}

}  // namespace capsp
