// Experiment L5.8/5.9 — per-region bandwidth decomposition (Lemmas
// 5.8/5.9): the busiest rank's words moved in each (level, region) phase.
// The paper's analysis predicts:
//   level 1, R²:  O(n²/p · log p)      (leaf diagonal blocks dominate)
//   level 1, R⁴:  O(n|S|/√p·log p + |S|²·log p)
//   level l>1:    O(n|S|/√p·log p + |S|²·log p) per region
// so the level-1 R² row should dominate for small-|S| graphs, and upper
// levels should shrink to separator-sized traffic.
#include <cmath>

#include "bench_common.hpp"
#include "core/regions.hpp"
#include "core/sparse_apsp.hpp"

namespace capsp::bench {
namespace {

void run(Vertex n_target, int height) {
  Rng rng(13);
  const Graph graph = make_grid_family(n_target, rng);
  SparseApspOptions options;
  options.height = height;
  options.collect_distances = false;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  const double n = graph.num_vertices();
  const double p = result.num_ranks;
  const double s = std::max<double>(result.separator_size, 1);
  const double log2p = std::log2(p);

  std::cout << "\ngrid n=" << graph.num_vertices() << ", h=" << height
            << ", p=" << result.num_ranks << ", |S|=" << result.separator_size
            << "\n";
  TextTable table({"phase", "max-rank words", "max-rank msgs", "model",
                   "words/model"});
  for (int l = 1; l <= height; ++l) {
    for (int region = 2; region <= 4; ++region) {
      const std::string phase = region_phase(l, region);
      if (!result.costs.phase_max_rank.count(phase)) continue;
      const auto volume = result.costs.phase_max_rank.at(phase);
      const double model =
          (l == 1 && region == 2)
              ? n * n / p * log2p
              : (n * s / std::sqrt(p) + s * s) * log2p;
      table.add_row({phase, TextTable::num(volume.words),
                     TextTable::num(volume.messages),
                     TextTable::num(model, 5),
                     TextTable::num(volume.words / model, 3)});
      BenchJson::get("bandwidth_regions")
          .add({{"h", height},
                {"phase", phase},
                {"max_rank_words", volume.words},
                {"max_rank_messages", volume.messages},
                {"model", model}});
    }
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace capsp::bench

int main() {
  capsp::bench::print_header(
      "Per-region bandwidth decomposition of 2D-SPARSE-APSP",
      "Lemmas 5.8 and 5.9");
  capsp::bench::run(784, 3);
  capsp::bench::run(784, 4);
  std::cout << "\nreading: the words/model column must stay O(1) per row — "
               "each region's measured traffic obeys its lemma's bound.\n";
  return 0;
}
