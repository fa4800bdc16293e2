#include "baseline/fw2d.hpp"

#include "machine/collectives.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"

namespace capsp {

DistributedApspResult run_fw2d(const Graph& graph, int q,
                               int blocks_per_dim) {
  const BlockCyclic layout(q, blocks_per_dim, graph.num_vertices());
  const int p = q * q;
  const int nb = blocks_per_dim;
  Machine machine(p);
  const DistBlock full = to_distance_matrix(graph);

  DistributedApspResult result;
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);

  machine.run([&](Comm& comm) {
    std::int64_t& my_ops =
        result.ops_per_rank[static_cast<std::size_t>(comm.rank())];
    const int gr = comm.rank() / q, gc = comm.rank() % q;
    comm.set_phase("setup");
    BlockCyclic::Blocks mine = layout.local_blocks(comm.rank(), full);

    comm.reset_clock();
    comm.set_phase("apsp");
    Tag tag = 0;

    std::vector<RankId> my_row_group, my_col_group;
    for (int j = 0; j < q; ++j) my_row_group.push_back(gr * q + j);
    for (int i = 0; i < q; ++i) my_col_group.push_back(i * q + gc);

    for (int k = 0; k < nb; ++k) {
      const int kq = k % q;
      const std::int64_t bk = layout.block_size(k);
      const RankId diagonal = layout.owner(k, k);

      // (1) Diagonal update on the owner, then broadcast A(k,k) along the
      // owner's grid row and column.
      DistBlock akk;
      if (comm.rank() == diagonal) {
        my_ops += semiring_fw<MinPlusSemiring>(mine.at({k, k}));
        akk = mine.at({k, k});
      }
      if (gr == kq)
        akk = group_broadcast(comm, my_row_group, diagonal, akk, bk, bk, tag);
      ++tag;
      if (gc == kq)
        akk = group_broadcast(comm, my_col_group, diagonal, akk, bk, bk, tag);
      ++tag;

      // (2) Panel updates: column-k blocks on grid column k mod q, row-k
      // blocks on grid row k mod q.
      if (gc == kq) {
        for (int bi = gr; bi < nb; bi += q) {
          if (bi == k) continue;
          auto& aik = mine.at({bi, k});
          my_ops += semiring_accumulate<MinPlusSemiring>(aik, aik, akk);
        }
      }
      if (gr == kq) {
        for (int bj = gc; bj < nb; bj += q) {
          if (bj == k) continue;
          auto& akj = mine.at({k, bj});
          my_ops += semiring_accumulate<MinPlusSemiring>(akj, akk, akj);
        }
      }

      // (3) Panel broadcasts of block column k along every grid row and
      // block row k down every grid column, then (4) the min-plus outer
      // product on every local block.
      const BlockCyclic::Panel aik_by_bi =
          layout.broadcast_column_panel(comm, mine, k, {0, nb}, tag++);
      const BlockCyclic::Panel akj_by_bj =
          layout.broadcast_row_panel(comm, mine, k, {0, nb}, tag++);
      for (auto& [key, block] : mine) {
        const auto [bi, bj] = key;
        if (bi == k || bj == k) continue;
        my_ops += semiring_accumulate<MinPlusSemiring>(
            block, aik_by_bi.at(bi), akj_by_bj.at(bj));
      }
    }

    comm.stop_clock();
    comm.set_phase("collect");
    DistBlock gathered = layout.gather(comm, std::move(mine), tag);
    if (comm.rank() == 0) result.distances = std::move(gathered);
  });

  result.costs = machine.report();
  return result;
}

}  // namespace capsp
