#include "baseline/dc_cyclic.hpp"

#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/bits.hpp"

namespace capsp {
namespace {

/// One rank's part of the cyclic computation: the layout, this rank's
/// blocks and the scalar ⊗ operations it has performed.
struct CyclicRank {
  const BlockCyclic& layout;
  BlockCyclic::Blocks mine;
  std::int64_t ops = 0;
};

/// C[rows × cols] op= A[rows × inner] ⊗ B[inner × cols], SUMMA over the
/// cyclic layout.  When `replace` is true, C is recomputed from scratch
/// (C ← A⊗B); otherwise accumulated (C ⊕= A⊗B).  Ranges are block-index
/// half-open intervals; all three operands live in s.mine.
void cyclic_multiply(Comm& comm, CyclicRank& s, BlockCyclic::Range rows,
                     BlockCyclic::Range cols, BlockCyclic::Range inner,
                     bool replace, Tag& tag) {
  // Fresh accumulation targets when replacing: this rank's blocks of C.
  const auto in = [](BlockCyclic::Range range, int b) {
    return range.first <= b && b < range.second;
  };
  BlockCyclic::Blocks fresh;
  if (replace)
    for (const auto& [key, block] : s.mine)
      if (in(rows, key.first) && in(cols, key.second))
        fresh.emplace(key, DistBlock(block.rows(), block.cols()));

  for (int t = inner.first; t < inner.second; ++t) {
    const BlockCyclic::Panel a_by_bi =
        s.layout.broadcast_column_panel(comm, s.mine, t, rows, tag++);
    const BlockCyclic::Panel b_by_bj =
        s.layout.broadcast_row_panel(comm, s.mine, t, cols, tag++);
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
void dc_cyclic_recurse(Comm& comm, CyclicRank& s, int lo, int hi,
                       Tag& tag) {
  if (hi - lo == 1) {
    if (comm.rank() == s.layout.owner(lo, lo))
      s.ops += semiring_fw<MinPlusSemiring>(s.mine.at({lo, lo}));
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  const BlockCyclic::Range top{lo, mid}, bottom{mid, hi};

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
  CAPSP_CHECK_MSG(is_power_of_two(static_cast<std::uint64_t>(blocks_per_dim)),
                  "blocks_per_dim=" << blocks_per_dim
                                    << " must be a power of two");
  const BlockCyclic layout(q, blocks_per_dim, graph.num_vertices());
  const int p = q * q;
  Machine machine(p);
  const DistBlock full = to_distance_matrix(graph);

  DistributedApspResult result;
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);

  machine.run([&](Comm& comm) {
    comm.set_phase("setup");
    CyclicRank s{layout, layout.local_blocks(comm.rank(), full)};

    comm.reset_clock();
    comm.set_phase("apsp");
    Tag tag = 0;
    dc_cyclic_recurse(comm, s, 0, blocks_per_dim, tag);
    result.ops_per_rank[static_cast<std::size_t>(comm.rank())] = s.ops;

    comm.stop_clock();
    comm.set_phase("collect");
    DistBlock gathered = layout.gather(comm, std::move(s.mine), tag);
    if (comm.rank() == 0) result.distances = std::move(gathered);
  });

  result.costs = machine.report();
  return result;
}

}  // namespace capsp
