// Experiment SFW — the SuperFW computation-reduction claim quoted in
// Sec. 2: eTree-guided elimination reduces the operation count versus
// ClassicalFW by ~O(n/|S|) on small-separator graphs.  We measure scalar
// ⊗ operations for both on growing grids and on an expander control.
#include "bench_common.hpp"
#include "core/superfw.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"

namespace capsp::bench {
namespace {

void run(const Family& family, int height) {
  std::cout << "\nfamily: " << family.name << " (h=" << height << ")\n";
  TextTable table({"n", "|S|", "FW ops", "SuperFW ops", "reduction",
                   "n/|S|"});
  for (Vertex n_target : {256, 576, 1024}) {
    Rng rng(21);
    const Graph graph = family.make(n_target, rng);
    Rng nd_rng(22);
    const Dissection nd = nested_dissection(graph, height, nd_rng);
    DistBlock dense = to_distance_matrix(graph);
    const std::int64_t fw_ops = semiring_fw<MinPlusSemiring>(dense);
    const SuperFwResult sfw = superfw(apply_dissection(graph, nd), nd);
    const double n = graph.num_vertices();
    const double s = std::max<Vertex>(nd.top_separator_size(), 1);
    table.add_row(
        {TextTable::num(graph.num_vertices()),
         TextTable::num(static_cast<std::int64_t>(nd.top_separator_size())),
         TextTable::num(fw_ops), TextTable::num(sfw.ops),
         TextTable::num(static_cast<double>(fw_ops) /
                            static_cast<double>(sfw.ops),
                        3),
         TextTable::num(n / s, 3)});
    BenchJson::get("superfw_ops").add(
        {{"family", family.name},
         {"n", graph.num_vertices()},
         {"separator", static_cast<std::int64_t>(nd.top_separator_size())},
         {"fw_ops", fw_ops},
         {"superfw_ops", sfw.ops},
         {"skipped_blocks", sfw.skipped_blocks}});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace capsp::bench

int main() {
  using namespace capsp::bench;
  print_header("SuperFW operation reduction vs ClassicalFW",
               "Sec. 2 / reference [22]: reduction factor ~O(n/|S|)");
  run({"grid2d", make_grid_family}, 4);
  run({"tree", make_tree_family}, 4);
  run({"erdos_renyi", make_er_family}, 4);
  std::cout <<
      "\nreading: the reduction factor grows with n/|S| on grid/tree "
      "families and stays near 1 on the expander control (|S| = Θ(n)).\n";
  return 0;
}
