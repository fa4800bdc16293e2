#include "baseline/dist_matrix.hpp"

#include <algorithm>

#include "semiring/semirings.hpp"

namespace capsp {
namespace {

std::vector<std::int64_t> even_offsets(std::int64_t begin, std::int64_t end,
                                       int parts) {
  CAPSP_CHECK(parts >= 1 && end >= begin);
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(parts) + 1);
  const std::int64_t span = end - begin;
  for (int i = 0; i <= parts; ++i)
    offsets[static_cast<std::size_t>(i)] = begin + span * i / parts;
  return offsets;
}

}  // namespace

GridLayout::GridLayout(std::vector<RankId> ranks, int grid_rows,
                       int grid_cols, std::vector<std::int64_t> row_offsets,
                       std::vector<std::int64_t> col_offsets)
    : ranks_(std::move(ranks)),
      grid_rows_(grid_rows),
      grid_cols_(grid_cols),
      row_offsets_(std::move(row_offsets)),
      col_offsets_(std::move(col_offsets)) {
  CAPSP_CHECK(grid_rows_ >= 1 && grid_cols_ >= 1);
  CAPSP_CHECK(ranks_.size() ==
              static_cast<std::size_t>(grid_rows_) *
                  static_cast<std::size_t>(grid_cols_));
  CAPSP_CHECK(row_offsets_.size() == static_cast<std::size_t>(grid_rows_) + 1);
  CAPSP_CHECK(col_offsets_.size() == static_cast<std::size_t>(grid_cols_) + 1);
  for (std::size_t i = 1; i < row_offsets_.size(); ++i)
    CAPSP_CHECK(row_offsets_[i - 1] <= row_offsets_[i]);
  for (std::size_t i = 1; i < col_offsets_.size(); ++i)
    CAPSP_CHECK(col_offsets_[i - 1] <= col_offsets_[i]);
  // Ranks must be distinct (each owns exactly one block).
  auto sorted = ranks_;
  std::sort(sorted.begin(), sorted.end());
  CAPSP_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

GridLayout GridLayout::square(std::vector<RankId> ranks, int q,
                              std::int64_t n) {
  return GridLayout(std::move(ranks), q, q, even_offsets(0, n, q),
                    even_offsets(0, n, q));
}

GridLayout GridLayout::windowed(std::vector<RankId> ranks, int grid_rows,
                                int grid_cols, const IndexRect& rect) {
  return GridLayout(std::move(ranks), grid_rows, grid_cols,
                    even_offsets(rect.row_begin, rect.row_end, grid_rows),
                    even_offsets(rect.col_begin, rect.col_end, grid_cols));
}

std::pair<int, int> GridLayout::coords_of(RankId rank) const {
  for (int gr = 0; gr < grid_rows_; ++gr)
    for (int gc = 0; gc < grid_cols_; ++gc)
      if (rank_at(gr, gc) == rank) return {gr, gc};
  return {-1, -1};
}

DistBlock GridLayout::make_local(RankId rank) const {
  const auto [gr, gc] = coords_of(rank);
  if (gr < 0) return {};
  const IndexRect rect = block_rect(gr, gc);
  return DistBlock(rect.rows(), rect.cols());
}

GridLayout GridLayout::subgrid(int gr0, int gr1, int gc0, int gc1) const {
  CAPSP_CHECK(0 <= gr0 && gr0 < gr1 && gr1 <= grid_rows_);
  CAPSP_CHECK(0 <= gc0 && gc0 < gc1 && gc1 <= grid_cols_);
  std::vector<RankId> sub_ranks;
  for (int gr = gr0; gr < gr1; ++gr)
    for (int gc = gc0; gc < gc1; ++gc) sub_ranks.push_back(rank_at(gr, gc));
  std::vector<std::int64_t> row_off(row_offsets_.begin() + gr0,
                                    row_offsets_.begin() + gr1 + 1);
  std::vector<std::int64_t> col_off(col_offsets_.begin() + gc0,
                                    col_offsets_.begin() + gc1 + 1);
  return GridLayout(std::move(sub_ranks), gr1 - gr0, gc1 - gc0,
                    std::move(row_off), std::move(col_off));
}

BlockCyclic::BlockCyclic(int q, int nb, std::int64_t n) : q_(q), nb_(nb) {
  CAPSP_CHECK(q >= 1);
  CAPSP_CHECK_MSG(nb >= q && nb <= std::max<std::int64_t>(n, 1),
                  "blocks_per_dim=" << nb << " outside [" << q << "," << n
                                    << "]");
  offsets_.resize(static_cast<std::size_t>(nb) + 1);
  for (int b = 0; b <= nb; ++b)
    offsets_[static_cast<std::size_t>(b)] = n * b / nb;
}

BlockCyclic::Blocks BlockCyclic::local_blocks(RankId rank,
                                              const DistBlock& full) const {
  Blocks mine;
  for (int bi = rank / q_; bi < nb_; bi += q_)
    for (int bj = rank % q_; bj < nb_; bj += q_)
      mine[{bi, bj}] = full.sub_block(offset(bi), offset(bj), block_size(bi),
                                      block_size(bj));
  return mine;
}

BlockCyclic::Panel BlockCyclic::broadcast_panel(Comm& comm,
                                                const Blocks& mine, int t,
                                                Range range, Tag tag,
                                                bool column) const {
  // A column panel travels along this rank's grid row, a row panel down
  // its grid column; `line` is the grid coordinate the group shares, and
  // the panel holds the range's blocks congruent to it.
  const int line = column ? comm.rank() / q_ : comm.rank() % q_;
  std::vector<int> ids;
  for (int b = range.first; b < range.second; ++b)
    if (b % q_ == line) ids.push_back(b);
  // Every member computes the same ids, so a group whose line holds no
  // block of the range skips the collective as a whole.
  if (ids.empty()) return {};

  const auto key = [&](int b) {
    return column ? std::pair{b, t} : std::pair{t, b};
  };
  const auto rank_on_line = [&](int m) {
    return column ? line * q_ + m : m * q_ + line;
  };
  std::vector<RankId> group;
  for (int m = 0; m < q_; ++m) group.push_back(rank_on_line(m));
  const RankId root = rank_on_line(t % q_);

  std::int64_t words = 0;
  for (int b : ids) words += block_size(b) * block_size(t);
  DistBlock stacked;
  if (comm.rank() == root) {
    std::vector<Dist> data;
    data.reserve(static_cast<std::size_t>(words));
    for (int b : ids) {
      const auto block = mine.at(key(b)).data();
      data.insert(data.end(), block.begin(), block.end());
    }
    stacked = DistBlock(words, 1, Payload(std::move(data)));
  }
  const DistBlock panel =
      group_broadcast(comm, group, root, stacked, words, 1, tag);

  Panel out;
  std::int64_t cursor = 0;
  for (int b : ids) {
    const auto [bi, bj] = key(b);
    const std::int64_t size = block_size(bi) * block_size(bj);
    out.emplace(b, DistBlock(block_size(bi), block_size(bj),
                             Payload::copy_of(panel.data().subspan(
                                 static_cast<std::size_t>(cursor),
                                 static_cast<std::size_t>(size)))));
    cursor += size;
  }
  return out;
}

DistBlock BlockCyclic::gather(Comm& comm, Blocks mine, Tag tag) const {
  const auto block_tag = [&](int bi, int bj) { return tag + bi * nb_ + bj; };
  if (comm.rank() != 0) {
    for (auto& [key, block] : mine)
      comm.send_block(0, block_tag(key.first, key.second), std::move(block));
    return {};
  }
  const std::int64_t n = offsets_.back();
  DistBlock full(n, n);
  for (int bi = 0; bi < nb_; ++bi) {
    for (int bj = 0; bj < nb_; ++bj) {
      const RankId from = owner(bi, bj);
      full.set_sub_block(
          offset(bi), offset(bj),
          from == 0 ? std::move(mine.at({bi, bj}))
                    : comm.recv_block(from, block_tag(bi, bj),
                                      block_size(bi), block_size(bj)));
    }
  }
  return full;
}

Tag redistribute_tag_span(const GridLayout& src, const GridLayout& dst) {
  return static_cast<Tag>(src.ranks().size()) *
         static_cast<Tag>(dst.ranks().size());
}

DistBlock redistribute(Comm& comm, const GridLayout& src,
                       const DistBlock& src_local, const GridLayout& dst,
                       Tag tag) {
  const IndexRect window = src.window();
  CAPSP_CHECK_MSG(window.row_begin == dst.window().row_begin &&
                      window.row_end == dst.window().row_end &&
                      window.col_begin == dst.window().col_begin &&
                      window.col_end == dst.window().col_end,
                  "redistribute windows differ");

  const auto [sgr, sgc] = src.coords_of(comm.rank());
  const auto [dgr, dgc] = dst.coords_of(comm.rank());
  DistBlock dst_local = dst.make_local(comm.rank());

  auto piece_tag = [&](int s_index, int d_index) {
    return tag + static_cast<Tag>(s_index) *
                     static_cast<Tag>(dst.ranks().size()) +
           static_cast<Tag>(d_index);
  };

  // Phase 1: this rank as a source — ship every intersection of my source
  // block with a destination block (deterministic destination order).
  if (sgr >= 0) {
    const IndexRect mine = src.block_rect(sgr, sgc);
    const int s_index = sgr * src.grid_cols() + sgc;
    for (int gr = 0; gr < dst.grid_rows(); ++gr) {
      for (int gc = 0; gc < dst.grid_cols(); ++gc) {
        const IndexRect piece = mine.intersect(dst.block_rect(gr, gc));
        if (piece.empty()) continue;
        const RankId target = dst.rank_at(gr, gc);
        const DistBlock payload = src_local.sub_block(
            piece.row_begin - mine.row_begin, piece.col_begin - mine.col_begin,
            piece.rows(), piece.cols());
        if (target == comm.rank()) {
          dst_local.set_sub_block(
              piece.row_begin - dst.block_rect(gr, gc).row_begin,
              piece.col_begin - dst.block_rect(gr, gc).col_begin, payload);
        } else {
          comm.send_block(target, piece_tag(s_index, gr * dst.grid_cols() + gc),
                          payload);
        }
      }
    }
  }

  // Phase 2: this rank as a destination — collect every intersection of my
  // destination block with a source block.
  if (dgr >= 0) {
    const IndexRect mine = dst.block_rect(dgr, dgc);
    const int d_index = dgr * dst.grid_cols() + dgc;
    for (int gr = 0; gr < src.grid_rows(); ++gr) {
      for (int gc = 0; gc < src.grid_cols(); ++gc) {
        const IndexRect piece = mine.intersect(src.block_rect(gr, gc));
        if (piece.empty()) continue;
        const RankId source = src.rank_at(gr, gc);
        if (source == comm.rank()) continue;  // handled in phase 1
        const DistBlock payload =
            comm.recv_block(source, piece_tag(gr * src.grid_cols() + gc,
                                              d_index),
                            piece.rows(), piece.cols());
        dst_local.set_sub_block(piece.row_begin - mine.row_begin,
                                piece.col_begin - mine.col_begin, payload);
      }
    }
  }
  return dst_local;
}

Tag summa_tag_span(const GridLayout& layout) {
  // Row broadcasts use even tags indexed by (t, grid_row); column
  // broadcasts odd tags indexed by (t, grid_col).  Bound both.
  const Tag inner = layout.grid_cols();
  const Tag extent = std::max(layout.grid_rows(), layout.grid_cols());
  return 2 * inner * extent + 2;
}

std::int64_t summa_minplus(Comm& comm, const GridLayout& a_layout,
                           const DistBlock& a_local,
                           const GridLayout& b_layout,
                           const DistBlock& b_local,
                           const GridLayout& c_layout, DistBlock& c_local,
                           Tag tag) {
  CAPSP_CHECK(a_layout.ranks() == b_layout.ranks() &&
              b_layout.ranks() == c_layout.ranks());
  CAPSP_CHECK(a_layout.grid_rows() == c_layout.grid_rows() &&
              a_layout.grid_cols() == b_layout.grid_rows() &&
              b_layout.grid_cols() == c_layout.grid_cols());
  // Splits must agree so panels line up blockwise (offsets may live in
  // different windows; only the *sizes* must match).
  auto sizes_match = [](const std::vector<std::int64_t>& x,
                        const std::vector<std::int64_t>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 1; i < x.size(); ++i)
      if (x[i] - x[i - 1] != y[i] - y[i - 1]) return false;
    return true;
  };
  CAPSP_CHECK(sizes_match(a_layout.col_offsets(), b_layout.row_offsets()));
  CAPSP_CHECK(sizes_match(a_layout.row_offsets(), c_layout.row_offsets()));
  CAPSP_CHECK(sizes_match(b_layout.col_offsets(), c_layout.col_offsets()));

  const auto [gr, gc] = c_layout.coords_of(comm.rank());
  if (gr < 0) return 0;

  std::int64_t ops = 0;
  const int inner = a_layout.grid_cols();
  for (int t = 0; t < inner; ++t) {
    // Broadcast A(gr, t) along grid row gr.
    std::vector<RankId> row_group;
    for (int j = 0; j < c_layout.grid_cols(); ++j)
      row_group.push_back(c_layout.rank_at(gr, j));
    const IndexRect a_rect = a_layout.block_rect(gr, t);
    const DistBlock a_panel = group_broadcast(
        comm, row_group, a_layout.rank_at(gr, t), a_local, a_rect.rows(),
        a_rect.cols(), tag + 2 * (t * c_layout.grid_rows() + gr));

    // Broadcast B(t, gc) along grid column gc.
    std::vector<RankId> col_group;
    for (int i = 0; i < c_layout.grid_rows(); ++i)
      col_group.push_back(c_layout.rank_at(i, gc));
    const IndexRect b_rect = b_layout.block_rect(t, gc);
    const DistBlock b_panel = group_broadcast(
        comm, col_group, b_layout.rank_at(t, gc), b_local, b_rect.rows(),
        b_rect.cols(), tag + 2 * (t * c_layout.grid_cols() + gc) + 1);

    ops += semiring_accumulate<MinPlusSemiring>(c_local, a_panel, b_panel);
  }
  return ops;
}

DistBlock gather_matrix(Comm& comm, const GridLayout& layout,
                        const DistBlock& local, RankId root, Tag tag) {
  const auto [gr, gc] = layout.coords_of(comm.rank());
  const bool member = gr >= 0;
  if (comm.rank() != root) {
    if (member && !local.empty())
      comm.send_block(root, tag + gr * layout.grid_cols() + gc, local);
    return {};
  }
  DistBlock full(layout.rows(), layout.cols());
  const IndexRect window = layout.window();
  for (int i = 0; i < layout.grid_rows(); ++i) {
    for (int j = 0; j < layout.grid_cols(); ++j) {
      const IndexRect rect = layout.block_rect(i, j);
      if (rect.empty()) continue;
      const RankId owner = layout.rank_at(i, j);
      const DistBlock piece =
          owner == root
              ? local
              : comm.recv_block(owner, tag + i * layout.grid_cols() + j,
                                rect.rows(), rect.cols());
      full.set_sub_block(rect.row_begin - window.row_begin,
                         rect.col_begin - window.col_begin, piece);
    }
  }
  return full;
}

DistBlock scatter_matrix(Comm& comm, const GridLayout& layout,
                         const DistBlock& full, RankId root, Tag tag) {
  const auto [gr, gc] = layout.coords_of(comm.rank());
  const IndexRect window = layout.window();
  if (comm.rank() == root) {
    CAPSP_CHECK(full.rows() == layout.rows() && full.cols() == layout.cols());
    DistBlock mine;
    for (int i = 0; i < layout.grid_rows(); ++i) {
      for (int j = 0; j < layout.grid_cols(); ++j) {
        const IndexRect rect = layout.block_rect(i, j);
        const DistBlock piece = full.sub_block(
            rect.row_begin - window.row_begin,
            rect.col_begin - window.col_begin, rect.rows(), rect.cols());
        if (layout.rank_at(i, j) == root) {
          mine = piece;
        } else if (!rect.empty()) {
          comm.send_block(layout.rank_at(i, j),
                          tag + i * layout.grid_cols() + j, piece);
        }
      }
    }
    return mine;
  }
  if (gr < 0) return {};
  const IndexRect rect = layout.block_rect(gr, gc);
  if (rect.empty()) return DistBlock(rect.rows(), rect.cols());
  return comm.recv_block(root, tag + gr * layout.grid_cols() + gc,
                         rect.rows(), rect.cols());
}

}  // namespace capsp
