#include "baseline/dc_apsp.hpp"

#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/bits.hpp"

namespace capsp {
namespace {

/// Layout with `ranks` hosting the window/splits of `shape` (used to park a
/// quadrant on a sibling subgrid before a SUMMA).
GridLayout relocate(const GridLayout& shape, const GridLayout& ranks) {
  return GridLayout(ranks.ranks(), shape.grid_rows(), shape.grid_cols(),
                    shape.row_offsets(), shape.col_offsets());
}

/// result ← x ⊗ y on `grid`, where x/y already live on grid's ranks with
/// layouts lx/ly; the product replaces `out_local` under layout lc.
std::int64_t summa_fresh(Comm& comm, const GridLayout& lx,
                         const DistBlock& x, const GridLayout& ly,
                         const DistBlock& y, const GridLayout& lc,
                         DistBlock& out_local, Tag& tag) {
  DistBlock fresh = lc.make_local(comm.rank());
  const std::int64_t ops =
      summa_minplus(comm, lx, x, ly, y, lc, fresh, tag);
  tag += summa_tag_span(lc);
  if (lc.contains(comm.rank())) out_local = std::move(fresh);
  return ops;
}

}  // namespace

void dc_apsp_rank(Comm& comm, const GridLayout& layout, DistBlock& local,
                  Tag& tag, std::int64_t* ops_out) {
  std::int64_t ops = 0;
  const int q = layout.grid_rows();
  CAPSP_CHECK(q == layout.grid_cols());
  if (q == 1) {
    if (layout.ranks().front() == comm.rank())
      ops += semiring_fw<MinPlusSemiring>(local);
    if (ops_out != nullptr) *ops_out += ops;
    return;
  }
  CAPSP_CHECK_MSG(q % 2 == 0, "grid side " << q << " must be a power of two");
  const int h = q / 2;
  const GridLayout la = layout.subgrid(0, h, 0, h);
  const GridLayout lb = layout.subgrid(0, h, h, q);
  const GridLayout lc = layout.subgrid(h, q, 0, h);
  const GridLayout ld = layout.subgrid(h, q, h, q);

  auto move = [&](const GridLayout& src, const GridLayout& dst_ranks) {
    const GridLayout dst = relocate(src, dst_ranks);
    DistBlock out = redistribute(comm, src, local, dst, tag);
    tag += redistribute_tag_span(src, dst);
    return std::pair<GridLayout, DistBlock>(dst, std::move(out));
  };

  // A ← A*
  dc_apsp_rank(comm, la, local, tag, &ops);

  // B ← A⊗B and C ← C⊗A (independent subgrids; scheduled sequentially in
  // program order but their messages overlap in the cost model's max()).
  {
    auto [a_on_b, a_on_b_local] = move(la, lb);
    ops += summa_fresh(comm, a_on_b, a_on_b_local, lb, local, lb, local,
                       tag);
  }
  {
    auto [a_on_c, a_on_c_local] = move(la, lc);
    ops += summa_fresh(comm, lc, local, a_on_c, a_on_c_local, lc, local,
                       tag);
  }

  // D ← D ⊕ C⊗B
  {
    auto [c_on_d, c_on_d_local] = move(lc, ld);
    auto [b_on_d, b_on_d_local] = move(lb, ld);
    ops += summa_minplus(comm, c_on_d, c_on_d_local, b_on_d, b_on_d_local,
                         ld, local, tag);
    tag += summa_tag_span(ld);
  }

  // D ← D*
  dc_apsp_rank(comm, ld, local, tag, &ops);

  // B ← B⊗D and C ← D⊗C
  {
    auto [d_on_b, d_on_b_local] = move(ld, lb);
    ops += summa_fresh(comm, lb, local, d_on_b, d_on_b_local, lb, local,
                       tag);
  }
  {
    auto [d_on_c, d_on_c_local] = move(ld, lc);
    ops += summa_fresh(comm, d_on_c, d_on_c_local, lc, local, lc, local,
                       tag);
  }

  // A ← A ⊕ B⊗C
  {
    auto [b_on_a, b_on_a_local] = move(lb, la);
    auto [c_on_a, c_on_a_local] = move(lc, la);
    ops += summa_minplus(comm, b_on_a, b_on_a_local, c_on_a, c_on_a_local,
                         la, local, tag);
    tag += summa_tag_span(la);
  }
  if (ops_out != nullptr) *ops_out += ops;
}

DistributedApspResult run_dc_apsp(const Graph& graph, int q) {
  CAPSP_CHECK_MSG(is_power_of_two(static_cast<std::uint64_t>(q)),
                  "q=" << q << " must be a power of two");
  const int p = q * q;
  Machine machine(p);
  const DistBlock full = to_distance_matrix(graph);
  DistributedApspResult result;

  std::vector<RankId> all(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) all[static_cast<std::size_t>(r)] = r;
  const GridLayout layout =
      GridLayout::square(all, q, graph.num_vertices());

  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);
  machine.run([&](Comm& comm) {
    comm.set_phase("setup");
    DistBlock local = scatter_matrix(comm, layout, full, 0, /*tag=*/0);
    comm.reset_clock();
    comm.set_phase("apsp");
    Tag tag = 1 << 20;
    dc_apsp_rank(comm, layout, local, tag,
                 &result.ops_per_rank[static_cast<std::size_t>(
                     comm.rank())]);
    comm.stop_clock();
    comm.set_phase("collect");
    DistBlock gathered =
        gather_matrix(comm, layout, local, 0, tag + 1);
    if (comm.rank() == 0) result.distances = std::move(gathered);
  });
  result.costs = machine.report();
  return result;
}

}  // namespace capsp
