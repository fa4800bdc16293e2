#include "baseline/dc_cyclic.hpp"

#include <map>

#include "machine/collectives.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/bits.hpp"

namespace capsp {
namespace {

/// Per-rank state of the cyclic computation: the layout geometry and this
/// rank's blocks, keyed by global block coordinates.
struct CyclicState {
  int q = 0;
  int nb = 0;
  std::vector<std::int64_t> offsets;  // nb+1 global row/col boundaries
  std::map<std::pair<int, int>, DistBlock> mine;
  std::int64_t ops = 0;

  std::int64_t block_size(int b) const {
    return offsets[static_cast<std::size_t>(b) + 1] -
           offsets[static_cast<std::size_t>(b)];
  }
  RankId owner(int bi, int bj) const { return (bi % q) * q + (bj % q); }
};

/// Broadcast, along each grid row, the sender's stacked blocks
/// A(bi, t) for bi in [row_lo, row_hi) with bi ≡ grid row (mod q); every
/// rank of the row receives and unpacks them.  Returns the unpacked
/// blocks keyed by bi.  One tag per call.
std::map<int, DistBlock> bcast_column_panel(Comm& comm, CyclicState& s,
                                            int t, int row_lo, int row_hi,
                                            Tag tag) {
  const int q = s.q;
  const RankId me = comm.rank();
  const int gr = me / q, gc = me % q;
  const int tc = t % q;

  std::vector<int> ids;
  for (int bi = row_lo; bi < row_hi; ++bi)
    if (bi % q == gr) ids.push_back(bi);
  // Every member of the row group computes the same ids; skip the
  // collective entirely when this grid row holds no blocks of the range.
  if (ids.empty()) return {};

  std::int64_t words = 0;
  for (int bi : ids) words += s.block_size(bi) * s.block_size(t);
  DistBlock panel(words, 1);
  if (gc == tc) {
    std::int64_t cursor = 0;
    for (int bi : ids) {
      const auto& block = s.mine.at({bi, t});
      std::copy(block.data().begin(), block.data().end(),
                panel.data().begin() + cursor);
      cursor += block.size();
    }
  }
  std::vector<RankId> row_group;
  for (int j = 0; j < q; ++j) row_group.push_back(gr * q + j);
  group_broadcast(comm, row_group, gr * q + tc, panel, tag);

  std::map<int, DistBlock> out;
  std::int64_t cursor = 0;
  for (int bi : ids) {
    DistBlock block(s.block_size(bi), s.block_size(t));
    std::copy(panel.data().begin() + cursor,
              panel.data().begin() + cursor + block.size(),
              block.data().begin());
    cursor += block.size();
    out.emplace(bi, std::move(block));
  }
  return out;
}

/// Same for row panels B(t, bj), broadcast down each grid column.
std::map<int, DistBlock> bcast_row_panel(Comm& comm, CyclicState& s, int t,
                                         int col_lo, int col_hi, Tag tag) {
  const int q = s.q;
  const RankId me = comm.rank();
  const int gr = me / q, gc = me % q;
  const int tr = t % q;

  std::vector<int> ids;
  for (int bj = col_lo; bj < col_hi; ++bj)
    if (bj % q == gc) ids.push_back(bj);
  // Same skip as the column panels: consistent within the column group.
  if (ids.empty()) return {};

  std::int64_t words = 0;
  for (int bj : ids) words += s.block_size(t) * s.block_size(bj);
  DistBlock panel(words, 1);
  if (gr == tr) {
    std::int64_t cursor = 0;
    for (int bj : ids) {
      const auto& block = s.mine.at({t, bj});
      std::copy(block.data().begin(), block.data().end(),
                panel.data().begin() + cursor);
      cursor += block.size();
    }
  }
  std::vector<RankId> col_group;
  for (int i = 0; i < q; ++i) col_group.push_back(i * q + gc);
  group_broadcast(comm, col_group, tr * q + gc, panel, tag);

  std::map<int, DistBlock> out;
  std::int64_t cursor = 0;
  for (int bj : ids) {
    DistBlock block(s.block_size(t), s.block_size(bj));
    std::copy(panel.data().begin() + cursor,
              panel.data().begin() + cursor + block.size(),
              block.data().begin());
    cursor += block.size();
    out.emplace(bj, std::move(block));
  }
  return out;
}

/// C[rows × cols] op= A[rows × inner] ⊗ B[inner × cols], SUMMA over the
/// cyclic layout.  When `replace` is true, C is recomputed from scratch
/// (C ← A⊗B); otherwise accumulated (C ⊕= A⊗B).  Ranges are block-index
/// half-open intervals; all three operands live in s.mine.
void cyclic_multiply(Comm& comm, CyclicState& s, std::pair<int, int> rows,
                     std::pair<int, int> cols, std::pair<int, int> inner,
                     bool replace, Tag& tag) {
  const int q = s.q;
  const RankId me = comm.rank();
  const int gr = me / q, gc = me % q;

  // Fresh accumulation targets when replacing.
  std::map<std::pair<int, int>, DistBlock> fresh;
  if (replace) {
    for (int bi = rows.first; bi < rows.second; ++bi) {
      if (bi % q != gr) continue;
      for (int bj = cols.first; bj < cols.second; ++bj) {
        if (bj % q != gc) continue;
        fresh.emplace(std::pair<int, int>{bi, bj},
                      DistBlock(s.block_size(bi), s.block_size(bj)));
      }
    }
  }

  for (int t = inner.first; t < inner.second; ++t) {
    const auto a_by_bi =
        bcast_column_panel(comm, s, t, rows.first, rows.second, tag++);
    const auto b_by_bj =
        bcast_row_panel(comm, s, t, cols.first, cols.second, tag++);
    for (const auto& [bi, aik] : a_by_bi) {
      for (const auto& [bj, btj] : b_by_bj) {
        DistBlock& target =
            replace ? fresh.at({bi, bj}) : s.mine.at({bi, bj});
        s.ops += semiring_accumulate<MinPlusSemiring>(target, aik, btj);
      }
    }
  }

  if (replace)
    for (auto& [key, block] : fresh) s.mine.at(key) = std::move(block);
}

/// Kleene recursion over the block range [lo, hi).
void dc_cyclic_recurse(Comm& comm, CyclicState& s, int lo, int hi,
                       Tag& tag) {
  if (hi - lo == 1) {
    const RankId owner = s.owner(lo, lo);
    if (comm.rank() == owner)
      s.ops += semiring_fw<MinPlusSemiring>(s.mine.at({lo, lo}));
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  const std::pair<int, int> top{lo, mid}, bottom{mid, hi};

  dc_cyclic_recurse(comm, s, lo, mid, tag);                  // A ← A*
  cyclic_multiply(comm, s, top, bottom, top, true, tag);     // B ← A⊗B
  cyclic_multiply(comm, s, bottom, top, top, true, tag);     // C ← C⊗A
  cyclic_multiply(comm, s, bottom, bottom, top, false, tag); // D ⊕= C⊗B
  dc_cyclic_recurse(comm, s, mid, hi, tag);                  // D ← D*
  cyclic_multiply(comm, s, top, bottom, bottom, true, tag);  // B ← B⊗D
  cyclic_multiply(comm, s, bottom, top, bottom, true, tag);  // C ← D⊗C
  cyclic_multiply(comm, s, top, top, bottom, false, tag);    // A ⊕= B⊗C
}

}  // namespace

DistributedApspResult run_dc_apsp_cyclic(const Graph& graph, int q,
                                         int blocks_per_dim) {
  const std::int64_t n = graph.num_vertices();
  CAPSP_CHECK(q >= 1);
  CAPSP_CHECK_MSG(is_power_of_two(static_cast<std::uint64_t>(blocks_per_dim)),
                  "blocks_per_dim=" << blocks_per_dim
                                    << " must be a power of two");
  CAPSP_CHECK_MSG(blocks_per_dim >= q &&
                      blocks_per_dim <= std::max<std::int64_t>(n, 1),
                  "blocks_per_dim=" << blocks_per_dim << " outside [" << q
                                    << "," << n << "]");
  const int p = q * q;
  const int nb = blocks_per_dim;
  Machine machine(p);
  const DistBlock full = to_distance_matrix(graph);

  DistributedApspResult result;
  std::vector<CostClock> apsp_clocks(static_cast<std::size_t>(p));
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);

  machine.run([&](Comm& comm) {
    CyclicState s;
    s.q = q;
    s.nb = nb;
    s.offsets.resize(static_cast<std::size_t>(nb) + 1);
    for (int b = 0; b <= nb; ++b)
      s.offsets[static_cast<std::size_t>(b)] = n * b / nb;

    comm.set_phase("setup");
    const int gr = comm.rank() / q, gc = comm.rank() % q;
    for (int bi = gr; bi < nb; bi += q)
      for (int bj = gc; bj < nb; bj += q)
        s.mine[{bi, bj}] = full.sub_block(
            s.offsets[static_cast<std::size_t>(bi)],
            s.offsets[static_cast<std::size_t>(bj)], s.block_size(bi),
            s.block_size(bj));

    comm.reset_clock();
    comm.set_phase("apsp");
    Tag tag = 0;
    dc_cyclic_recurse(comm, s, 0, nb, tag);
    result.ops_per_rank[static_cast<std::size_t>(comm.rank())] = s.ops;
    apsp_clocks[static_cast<std::size_t>(comm.rank())] = comm.clock();

    comm.set_phase("collect");
    if (comm.rank() != 0) {
      for (const auto& [key, block] : s.mine) {
        const auto [bi, bj] = key;
        comm.send_block(0, tag + bi * nb + bj, block);
      }
    } else {
      result.distances = DistBlock(n, n);
      for (int bi = 0; bi < nb; ++bi) {
        for (int bj = 0; bj < nb; ++bj) {
          const RankId owner = s.owner(bi, bj);
          const DistBlock piece =
              owner == 0 ? s.mine.at({bi, bj})
                         : comm.recv_block(owner, tag + bi * nb + bj,
                                           s.block_size(bi),
                                           s.block_size(bj));
          result.distances.set_sub_block(
              s.offsets[static_cast<std::size_t>(bi)],
              s.offsets[static_cast<std::size_t>(bj)], piece);
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
