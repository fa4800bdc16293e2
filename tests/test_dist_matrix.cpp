// Tests for the distributed-matrix substrate: layouts, windowed subgrids,
// redistribution, SUMMA min-plus, gather/scatter.
#include <gtest/gtest.h>

#include <numeric>

#include "baseline/dist_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

std::vector<RankId> iota_ranks(int count, RankId first = 0) {
  std::vector<RankId> ranks(static_cast<std::size_t>(count));
  std::iota(ranks.begin(), ranks.end(), first);
  return ranks;
}

DistBlock random_matrix(std::int64_t n, Rng& rng) {
  DistBlock m(n, n);
  for (std::int64_t r = 0; r < n; ++r)
    for (std::int64_t c = 0; c < n; ++c)
      if (!rng.bernoulli(0.3)) m.at(r, c) = rng.uniform_real(0, 9);
  return m;
}

TEST(GridLayout, SquareEvenSplit) {
  const GridLayout layout = GridLayout::square(iota_ranks(4), 2, 10);
  EXPECT_EQ(layout.rows(), 10);
  EXPECT_EQ(layout.cols(), 10);
  EXPECT_EQ(layout.rank_at(0, 1), 1);
  EXPECT_EQ(layout.rank_at(1, 0), 2);
  const auto rect = layout.block_rect(1, 1);
  EXPECT_EQ(rect.row_begin, 5);
  EXPECT_EQ(rect.row_end, 10);
  EXPECT_EQ(layout.coords_of(3), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(layout.coords_of(99), (std::pair<int, int>{-1, -1}));
}

TEST(GridLayout, UnevenSplitCoversEverything) {
  const GridLayout layout = GridLayout::square(iota_ranks(9), 3, 10);
  std::int64_t total = 0;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      const auto rect = layout.block_rect(i, j);
      total += rect.rows() * rect.cols();
    }
  EXPECT_EQ(total, 100);
}

TEST(GridLayout, SubgridKeepsWindow) {
  const GridLayout layout = GridLayout::square(iota_ranks(16), 4, 16);
  const GridLayout sub = layout.subgrid(2, 4, 0, 2);
  EXPECT_EQ(sub.grid_rows(), 2);
  EXPECT_EQ(sub.window().row_begin, 8);
  EXPECT_EQ(sub.window().col_end, 8);
  EXPECT_EQ(sub.rank_at(0, 0), layout.rank_at(2, 0));
}

TEST(GridLayout, DuplicateRanksRejected) {
  EXPECT_THROW(GridLayout::square({0, 1, 1, 2}, 2, 4), check_error);
}

TEST(GridLayout, MakeLocalShape) {
  const GridLayout layout = GridLayout::square(iota_ranks(4), 2, 7);
  const DistBlock b0 = layout.make_local(0);
  EXPECT_EQ(b0.rows(), 3);  // 7*1/2 = 3
  const DistBlock b3 = layout.make_local(3);
  EXPECT_EQ(b3.rows(), 4);
  EXPECT_TRUE(layout.make_local(42).empty());
}

TEST(DistMatrix, ScatterGatherRoundTrip) {
  Rng rng(1);
  const DistBlock full = random_matrix(9, rng);
  Machine machine(4);
  const GridLayout layout = GridLayout::square(iota_ranks(4), 2, 9);
  DistBlock result;
  machine.run([&](Comm& comm) {
    const DistBlock local = scatter_matrix(comm, layout, full, 0, 0);
    EXPECT_EQ(local.rows(), layout.block_rect(comm.rank() / 2,
                                              comm.rank() % 2)
                                .rows());
    const DistBlock gathered = gather_matrix(comm, layout, local, 3, 100);
    if (comm.rank() == 3) result = gathered;
  });
  EXPECT_EQ(result, full);
}

TEST(DistMatrix, RedistributeBetweenGridShapes) {
  Rng rng(2);
  const DistBlock full = random_matrix(8, rng);
  Machine machine(6);
  const GridLayout src = GridLayout::square(iota_ranks(4), 2, 8);
  // Destination: 1x2 grid on different ranks with uneven columns.
  const GridLayout dst({4, 5}, 1, 2, {0, 8}, {0, 3, 8});
  DistBlock got4, got5;
  machine.run([&](Comm& comm) {
    DistBlock local = scatter_matrix(comm, src, full, 0, 0);
    const DistBlock moved = redistribute(comm, src, local, dst, 50);
    if (comm.rank() == 4) got4 = moved;
    if (comm.rank() == 5) got5 = moved;
  });
  EXPECT_EQ(got4, full.sub_block(0, 0, 8, 3));
  EXPECT_EQ(got5, full.sub_block(0, 3, 8, 5));
}

TEST(DistMatrix, RedistributeIdentityLayoutIsFree) {
  Rng rng(3);
  const DistBlock full = random_matrix(6, rng);
  Machine machine(4);
  const GridLayout layout = GridLayout::square(iota_ranks(4), 2, 6);
  machine.run([&](Comm& comm) {
    DistBlock local = scatter_matrix(comm, layout, full, 0, 0);
    comm.reset_clock();
    comm.set_phase("move");
    const DistBlock moved = redistribute(comm, layout, local, layout, 50);
    EXPECT_EQ(moved, local);
  });
  // Zero messages: the phase either never appears or has a zero count.
  const auto& totals = machine.report().phase_total;
  EXPECT_TRUE(totals.count("move") == 0 || totals.at("move").messages == 0);
}

TEST(DistMatrix, RedistributeWindowedQuadrant) {
  // Move the bottom-right quadrant of a parent layout onto a fresh grid.
  Rng rng(4);
  const DistBlock full = random_matrix(8, rng);
  Machine machine(4);
  const GridLayout parent = GridLayout::square(iota_ranks(4), 2, 8);
  const GridLayout quadrant = parent.subgrid(1, 2, 1, 2);  // rank 3 only
  const GridLayout target({0}, 1, 1, {4, 8}, {4, 8});
  DistBlock got;
  machine.run([&](Comm& comm) {
    DistBlock local = scatter_matrix(comm, parent, full, 0, 0);
    const DistBlock moved =
        redistribute(comm, quadrant, local, target, 60);
    if (comm.rank() == 0) got = moved;
  });
  EXPECT_EQ(got, full.sub_block(4, 4, 4, 4));
}

class SummaParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SummaParam, MatchesLocalMinplus) {
  const auto [q, n] = GetParam();
  Rng rng(10 + static_cast<std::uint64_t>(q * 100 + n));
  const DistBlock a = random_matrix(n, rng);
  const DistBlock b = random_matrix(n, rng);
  DistBlock want(n, n);
  semiring_accumulate<MinPlusSemiring>(want, a, b);

  Machine machine(q * q);
  const GridLayout layout = GridLayout::square(iota_ranks(q * q), q, n);
  DistBlock got;
  machine.run([&](Comm& comm) {
    DistBlock la = scatter_matrix(comm, layout, a, 0, 0);
    DistBlock lb = scatter_matrix(comm, layout, b, 0, 1000);
    DistBlock lc = layout.make_local(comm.rank());
    summa_minplus(comm, layout, la, layout, lb, layout, lc, 2000);
    const DistBlock gathered = gather_matrix(comm, layout, lc, 0, 90000);
    if (comm.rank() == 0) got = gathered;
  });
  ASSERT_EQ(got.rows(), n);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      if (is_inf(want.at(i, j))) {
        EXPECT_TRUE(is_inf(got.at(i, j))) << "q=" << q << " n=" << n;
      } else {
        EXPECT_NEAR(got.at(i, j), want.at(i, j), 1e-9)
            << "q=" << q << " n=" << n;
      }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SummaParam,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(5, 8, 12)));

TEST(DistMatrix, SummaAccumulatesIntoExistingC) {
  Rng rng(20);
  const int n = 6;
  const DistBlock a = random_matrix(n, rng);
  const DistBlock b = random_matrix(n, rng);
  const DistBlock c0 = random_matrix(n, rng);
  DistBlock want = c0;
  semiring_accumulate<MinPlusSemiring>(want, a, b);

  Machine machine(4);
  const GridLayout layout = GridLayout::square(iota_ranks(4), 2, n);
  DistBlock got;
  machine.run([&](Comm& comm) {
    DistBlock la = scatter_matrix(comm, layout, a, 0, 0);
    DistBlock lb = scatter_matrix(comm, layout, b, 0, 1000);
    DistBlock lc = scatter_matrix(comm, layout, c0, 0, 2000);
    summa_minplus(comm, layout, la, layout, lb, layout, lc, 3000);
    const DistBlock gathered = gather_matrix(comm, layout, lc, 0, 90000);
    if (comm.rank() == 0) got = gathered;
  });
  EXPECT_EQ(got, want);
}

TEST(DistMatrix, SummaRejectsMismatchedGrids) {
  Machine machine(4);
  EXPECT_THROW(machine.run([&](Comm& comm) {
    const GridLayout la = GridLayout::square(iota_ranks(4), 2, 8);
    const GridLayout lb = GridLayout::square({3, 2, 1, 0}, 2, 8);
    DistBlock a = la.make_local(comm.rank());
    DistBlock b = lb.make_local(comm.rank());
    DistBlock c = la.make_local(comm.rank());
    summa_minplus(comm, la, a, lb, b, la, c, 0);
  }),
               check_error);
}

}  // namespace
}  // namespace capsp
