#include "partition/nested_dissection.hpp"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <utility>

#include "machine/fibers.hpp"
#include "partition/separator.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

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

namespace {

/// Rows [first, last) of `piece`, which sits at (row0, col0) of the
/// reordered matrix, written to their places in the n-column `original`.
/// The one un-permute loop; its callers check the shapes.
void write_rows(Dist* original, std::int64_t n, const Dissection& nd,
                Vertex row0, Vertex col0, const DistBlock& piece,
                std::int64_t first, std::int64_t last) {
  const Vertex* out_cols = nd.iperm.data() + col0;
  for (std::int64_t a = first; a < last; ++a) {
    Dist* out =
        original + nd.iperm[static_cast<std::size_t>(row0 + a)] * n;
    const Dist* in = piece.row(a);
    for (std::int64_t b = 0; b < piece.cols(); ++b) out[out_cols[b]] = in[b];
  }
}

/// A writer's unit of work covers about this many words (512 KiB): a
/// 4096² matrix is 256 units, and a matrix of up to 256² is one unit,
/// which the caller writes alone.
constexpr std::int64_t kUnitWords = std::int64_t{1} << 16;

}  // namespace

DistBlock undo_dissection(std::vector<ReorderedPiece> pieces,
                          const Dissection& nd) {
  const auto n = static_cast<std::int64_t>(nd.iperm.size());
  std::erase_if(pieces,
                [](const ReorderedPiece& p) { return p.block.empty(); });
  std::ranges::sort(pieces, [](const ReorderedPiece& x,
                               const ReorderedPiece& y) {
    return std::pair(x.row0, x.col0) < std::pair(y.row0, y.col0);
  });
  // Bands in row order, each a run of pieces in column order; together
  // they must cover every row and, band by band, every column once.
  struct Band {
    std::size_t first = 0, last = 0;  ///< its pieces
  };
  std::vector<Band> bands;
  std::int64_t next_row = 0;
  for (std::size_t k = 0; k < pieces.size();) {
    const ReorderedPiece& head = pieces[k];
    CAPSP_CHECK_MSG(head.row0 == next_row,
                    "pieces cover reordered rows up to " << next_row
                        << ", next piece starts at row " << head.row0);
    Band band{k, k};
    std::int64_t next_col = 0;
    for (; band.last < pieces.size() && pieces[band.last].row0 == head.row0;
         ++band.last) {
      const ReorderedPiece& piece = pieces[band.last];
      CAPSP_CHECK_MSG(
          piece.col0 == next_col && piece.block.rows() == head.block.rows(),
          "piece at (" << piece.row0 << "," << piece.col0 << ") of "
                       << piece.block.rows() << "x" << piece.block.cols()
                       << " breaks the band of " << head.block.rows()
                       << " rows at column " << next_col);
      next_col += piece.block.cols();
    }
    CAPSP_CHECK_MSG(next_col == n, "band at row " << head.row0 << " covers "
                                                  << next_col << " of " << n
                                                  << " columns");
    bands.push_back(band);
    next_row += head.block.rows();
    k = band.last;
  }
  CAPSP_CHECK_MSG(next_row == n,
                  "pieces cover " << next_row << " of " << n << " rows");

  struct Unit {
    std::size_t band;
    std::int64_t first, last;  ///< rows of the band's pieces
  };
  std::vector<Unit> units;
  std::vector<std::atomic<std::int64_t>> units_left(bands.size());
  const std::int64_t unit_rows =
      n > 0 ? std::max<std::int64_t>(1, kUnitWords / n) : 1;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const std::int64_t rows = pieces[bands[b].first].block.rows();
    for (std::int64_t first = 0; first < rows; first += unit_rows) {
      units.push_back({b, first, std::min(rows, first + unit_rows)});
      ++units_left[b];
    }
  }

  DistBlock original = DistBlock::for_overwrite(n, n);
  Dist* const out = original.data().data();
  std::atomic<std::size_t> next_unit{0};
  const auto write = [&] {
    ProfScope prof("partition.unpermute");
    std::int64_t words = 0;
    for (std::size_t u; (u = next_unit.fetch_add(1)) < units.size();) {
      const Unit& unit = units[u];
      const Band& band = bands[unit.band];
      for (std::size_t k = band.first; k < band.last; ++k)
        write_rows(out, n, nd, pieces[k].row0, pieces[k].col0,
                   pieces[k].block, unit.first, unit.last);
      words += (unit.last - unit.first) * n;
      // The band's last unit frees its pieces: nobody reads them again.
      if (units_left[unit.band].fetch_sub(1) == 1)
        for (std::size_t k = band.first; k < band.last; ++k)
          pieces[k].block = DistBlock();
    }
    prof.add_bytes(2 * words * static_cast<std::int64_t>(sizeof(Dist)));
  };
  {
    std::vector<std::jthread> writers;  // joined as the block ends
    const int threads = Fibers::carrier_count(static_cast<int>(units.size()));
    for (int t = 1; t < threads; ++t) {
      try {
        writers.emplace_back(write);
      } catch (const std::system_error&) {
        break;  // the writers already started take every unit
      }
    }
    write();
  }
  return original;
}

DistBlock undo_dissection(DistBlock reordered, const Dissection& nd) {
  std::vector<ReorderedPiece> pieces;
  pieces.push_back({0, 0, std::move(reordered)});
  return undo_dissection(std::move(pieces), nd);
}

void undo_dissection_into(DistBlock& original, const Dissection& nd,
                          Vertex row0, Vertex col0, const DistBlock& piece) {
  const auto n = static_cast<std::int64_t>(nd.iperm.size());
  CAPSP_CHECK(original.rows() == n && original.cols() == n);
  CAPSP_CHECK(row0 >= 0 && col0 >= 0);
  CAPSP_CHECK(row0 + piece.rows() <= n && col0 + piece.cols() <= n);
  write_rows(original.data().data(), n, nd, row0, col0, piece, 0,
             piece.rows());
}

}  // namespace capsp
