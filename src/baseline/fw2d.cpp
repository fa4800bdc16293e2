#include "baseline/fw2d.hpp"

#include <map>

#include "machine/collectives.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

/// Per-rank view of the block-cyclic layout.
struct CyclicLayout {
  int q = 0;                          // grid side
  int nb = 0;                         // blocks per dimension
  std::vector<std::int64_t> offsets;  // nb+1 global boundaries

  std::int64_t block_size(int b) const {
    return offsets[static_cast<std::size_t>(b) + 1] -
           offsets[static_cast<std::size_t>(b)];
  }
  RankId owner(int bi, int bj) const { return (bi % q) * q + (bj % q); }
  std::pair<int, int> grid_coords(RankId r) const { return {r / q, r % q}; }
  RankId rank_at(int gr, int gc) const { return gr * q + gc; }
};

/// Pack `blocks` (in order) into one payload; unpack reverses it.
std::vector<Dist> pack(const std::vector<const DistBlock*>& blocks) {
  std::vector<Dist> out;
  for (const auto* b : blocks) out.insert(out.end(), b->data().begin(),
                                          b->data().end());
  return out;
}

}  // namespace

DistributedApspResult run_fw2d(const Graph& graph, int q,
                               int blocks_per_dim) {
  const std::int64_t n = graph.num_vertices();
  CAPSP_CHECK(q >= 1);
  CAPSP_CHECK_MSG(blocks_per_dim >= q && blocks_per_dim <= std::max<std::int64_t>(n, 1),
                  "blocks_per_dim=" << blocks_per_dim << " outside [" << q
                                    << "," << n << "]");
  const int p = q * q;
  const int nb = blocks_per_dim;
  Machine machine(p);
  const DistBlock full = to_distance_matrix(graph);

  CyclicLayout layout;
  layout.q = q;
  layout.nb = nb;
  layout.offsets.resize(static_cast<std::size_t>(nb) + 1);
  for (int b = 0; b <= nb; ++b)
    layout.offsets[static_cast<std::size_t>(b)] = n * b / nb;

  DistributedApspResult result;
  std::vector<CostClock> apsp_clocks(static_cast<std::size_t>(p));
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);

  machine.run([&](Comm& comm) {
    std::int64_t& my_ops =
        result.ops_per_rank[static_cast<std::size_t>(comm.rank())];
    const auto [gr, gc] = layout.grid_coords(comm.rank());
    comm.set_phase("setup");

    // Local blocks, keyed by global block coordinates (cyclic assignment).
    // Setup reads the shared adjacency matrix directly (const, race-free)
    // rather than messaging: data layout is the input condition, and only
    // algorithm communication should be metered.
    std::map<std::pair<int, int>, DistBlock> mine;
    for (int bi = gr; bi < nb; bi += q)
      for (int bj = gc; bj < nb; bj += q)
        mine[{bi, bj}] = full.sub_block(
            layout.offsets[static_cast<std::size_t>(bi)],
            layout.offsets[static_cast<std::size_t>(bj)],
            layout.block_size(bi), layout.block_size(bj));

    comm.reset_clock();
    comm.set_phase("apsp");
    Tag tag = 0;

    std::vector<RankId> my_row_group, my_col_group;
    for (int j = 0; j < q; ++j) my_row_group.push_back(layout.rank_at(gr, j));
    for (int i = 0; i < q; ++i) my_col_group.push_back(layout.rank_at(i, gc));

    for (int k = 0; k < nb; ++k) {
      const int kr = k % q, kc = k % q;
      const std::int64_t bk = layout.block_size(k);

      // (1) Diagonal update on the owner, then broadcast A(k,k) along the
      // owner's grid row and column.
      DistBlock akk(bk, bk);
      if (gr == kr && gc == kc) {
        my_ops += semiring_fw<MinPlusSemiring>(mine.at({k, k}));
        akk = mine.at({k, k});
      }
      if (gr == kr) {
        group_broadcast(comm, my_row_group, layout.rank_at(kr, kc), akk,
                        tag);
      }
      ++tag;
      if (gc == kc) {
        group_broadcast(comm, my_col_group, layout.rank_at(kr, kc), akk,
                        tag);
      }
      ++tag;

      // (2) Panel updates: column-k blocks on grid column kc, row-k blocks
      // on grid row kr.
      if (gc == kc) {
        for (int bi = gr; bi < nb; bi += q) {
          if (bi == k) continue;
          auto& aik = mine.at({bi, k});
          my_ops += semiring_accumulate<MinPlusSemiring>(aik, aik, akk);
        }
      }
      if (gr == kr) {
        for (int bj = gc; bj < nb; bj += q) {
          if (bj == k) continue;
          auto& akj = mine.at({k, bj});
          my_ops += semiring_accumulate<MinPlusSemiring>(akj, akk, akj);
        }
      }

      // (3) Panel broadcasts: each column-kc rank ships its stacked
      // column-k blocks along its grid row; each row-kr rank ships its
      // stacked row-k blocks down its grid column.
      std::vector<int> col_panel_ids, row_panel_ids;
      for (int bi = gr; bi < nb; bi += q) col_panel_ids.push_back(bi);
      for (int bj = gc; bj < nb; bj += q) row_panel_ids.push_back(bj);

      std::int64_t col_words = 0;
      for (int bi : col_panel_ids) col_words += layout.block_size(bi) * bk;
      DistBlock col_panel(col_words, 1);
      if (gc == kc) {
        std::vector<const DistBlock*> blocks;
        for (int bi : col_panel_ids) blocks.push_back(&mine.at({bi, k}));
        auto packed = pack(blocks);
        std::copy(packed.begin(), packed.end(), col_panel.data().begin());
      }
      group_broadcast(comm, my_row_group, layout.rank_at(gr, kc), col_panel,
                      tag);
      ++tag;

      std::int64_t row_words = 0;
      for (int bj : row_panel_ids) row_words += bk * layout.block_size(bj);
      DistBlock row_panel(row_words, 1);
      if (gr == kr) {
        std::vector<const DistBlock*> blocks;
        for (int bj : row_panel_ids) blocks.push_back(&mine.at({k, bj}));
        auto packed = pack(blocks);
        std::copy(packed.begin(), packed.end(), row_panel.data().begin());
      }
      group_broadcast(comm, my_col_group, layout.rank_at(kr, gc), row_panel,
                      tag);
      ++tag;

      // (4) Min-plus outer product on every local block.
      std::int64_t col_cursor = 0;
      std::map<int, DistBlock> aik_by_bi;
      for (int bi : col_panel_ids) {
        const std::int64_t rows = layout.block_size(bi);
        DistBlock aik(rows, bk);
        std::copy(col_panel.data().begin() + col_cursor,
                  col_panel.data().begin() + col_cursor + rows * bk,
                  aik.data().begin());
        col_cursor += rows * bk;
        aik_by_bi.emplace(bi, std::move(aik));
      }
      std::int64_t row_cursor = 0;
      std::map<int, DistBlock> akj_by_bj;
      for (int bj : row_panel_ids) {
        const std::int64_t cols = layout.block_size(bj);
        DistBlock akj(bk, cols);
        std::copy(row_panel.data().begin() + row_cursor,
                  row_panel.data().begin() + row_cursor + bk * cols,
                  akj.data().begin());
        row_cursor += bk * cols;
        akj_by_bj.emplace(bj, std::move(akj));
      }
      for (auto& [key, block] : mine) {
        const auto [bi, bj] = key;
        if (bi == k || bj == k) continue;
        my_ops += semiring_accumulate<MinPlusSemiring>(
            block, aik_by_bi.at(bi), akj_by_bj.at(bj));
      }
    }

    apsp_clocks[static_cast<std::size_t>(comm.rank())] = comm.clock();
    comm.set_phase("collect");
    // Collect to rank 0 by direct sends (verification only).
    if (comm.rank() != 0) {
      for (const auto& [key, block] : mine) {
        const auto [bi, bj] = key;
        comm.send_block(0, tag + bi * nb + bj, block);
      }
    } else {
      result.distances = DistBlock(n, n);
      for (int bi = 0; bi < nb; ++bi) {
        for (int bj = 0; bj < nb; ++bj) {
          const RankId owner = layout.owner(bi, bj);
          const DistBlock piece =
              owner == 0 ? mine.at({bi, bj})
                         : comm.recv_block(owner, tag + bi * nb + bj,
                                           layout.block_size(bi),
                                           layout.block_size(bj));
          result.distances.set_sub_block(
              layout.offsets[static_cast<std::size_t>(bi)],
              layout.offsets[static_cast<std::size_t>(bj)], piece);
        }
      }
    }
  });

  result.costs = machine.report();
  result.costs.critical_latency = 0;
  result.costs.critical_bandwidth = 0;
  for (const auto& clock : apsp_clocks) {
    result.costs.critical_latency =
        std::max(result.costs.critical_latency, clock.latency);
    result.costs.critical_bandwidth =
        std::max(result.costs.critical_bandwidth, clock.words);
  }
  return result;
}

}  // namespace capsp
