// Randomized tests of the distributed-matrix substrate: arbitrary grid
// shapes, windows, and redistribution chains, always checked against the
// gathered ground truth.  The DC baseline's correctness rides on these
// primitives, so they get their own fuzz pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baseline/dist_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

DistBlock random_matrix(std::int64_t rows, std::int64_t cols, Rng& rng) {
  DistBlock m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      if (!rng.bernoulli(0.25)) m.at(r, c) = rng.uniform_real(0, 50);
  return m;
}

/// A random layout of the given window over a random subgrid of ranks
/// drawn from [0, p), with random (monotone) split points.
GridLayout random_layout(const IndexRect& window, int p, Rng& rng) {
  const int grid_rows =
      static_cast<int>(1 + rng.uniform(std::min(3, p)));
  const int grid_cols = static_cast<int>(
      1 + rng.uniform(static_cast<std::uint64_t>(
              std::min(3, p / grid_rows))));
  // Choose distinct ranks.
  std::vector<RankId> pool(static_cast<std::size_t>(p));
  std::iota(pool.begin(), pool.end(), 0);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.uniform(i)]);
  pool.resize(static_cast<std::size_t>(grid_rows * grid_cols));

  auto random_offsets = [&](std::int64_t begin, std::int64_t end,
                            int parts) {
    std::vector<std::int64_t> offsets{begin};
    for (int i = 1; i < parts; ++i)
      offsets.push_back(
          begin + static_cast<std::int64_t>(rng.uniform(
                      static_cast<std::uint64_t>(end - begin + 1))));
    offsets.push_back(end);
    std::sort(offsets.begin(), offsets.end());
    return offsets;
  };
  return GridLayout(std::move(pool), grid_rows, grid_cols,
                    random_offsets(window.row_begin, window.row_end,
                                   grid_rows),
                    random_offsets(window.col_begin, window.col_end,
                                   grid_cols));
}

TEST(DistMatrixFuzz, RedistributeChainsPreserveContent) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(2200 + seed);
    const int p = static_cast<int>(6 + rng.uniform(7));
    const IndexRect window{0,
                           static_cast<std::int64_t>(4 + rng.uniform(13)),
                           0,
                           static_cast<std::int64_t>(4 + rng.uniform(13))};
    const DistBlock truth = random_matrix(window.rows(), window.cols(), rng);

    const GridLayout l0 = random_layout(window, p, rng);
    const GridLayout l1 = random_layout(window, p, rng);
    const GridLayout l2 = random_layout(window, p, rng);

    Machine machine(p);
    DistBlock gathered;
    machine.run([&](Comm& comm) {
      DistBlock local = scatter_matrix(comm, l0, truth, l0.ranks().front(),
                                       /*tag=*/0);
      DistBlock moved1 = redistribute(comm, l0, local, l1, 10000);
      DistBlock moved2 = redistribute(comm, l1, moved1, l2, 20000);
      const DistBlock full =
          gather_matrix(comm, l2, moved2, l2.ranks().front(), 30000);
      if (comm.rank() == l2.ranks().front()) gathered = full;
    });
    ASSERT_EQ(gathered, truth) << "seed " << seed;
  }
}

TEST(DistMatrixFuzz, ScatterGatherArbitraryRootsAndShapes) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(2600 + seed);
    const int p = static_cast<int>(4 + rng.uniform(6));
    const IndexRect window{0,
                           static_cast<std::int64_t>(3 + rng.uniform(10)),
                           0,
                           static_cast<std::int64_t>(3 + rng.uniform(10))};
    const GridLayout layout = random_layout(window, p, rng);
    const RankId scatter_root =
        layout.ranks()[rng.uniform(layout.ranks().size())];
    const RankId gather_root =
        layout.ranks()[rng.uniform(layout.ranks().size())];
    const DistBlock truth = random_matrix(window.rows(), window.cols(), rng);

    Machine machine(p);
    DistBlock gathered;
    machine.run([&](Comm& comm) {
      DistBlock local =
          scatter_matrix(comm, layout, truth, scatter_root, 0);
      const DistBlock full =
          gather_matrix(comm, layout, local, gather_root, 5000);
      if (comm.rank() == gather_root) gathered = full;
    });
    ASSERT_EQ(gathered, truth) << "seed " << seed;
  }
}

TEST(DistMatrixFuzz, SummaOnRandomSquareGridsMatchesLocal) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(3000 + seed);
    const int q = static_cast<int>(1 + rng.uniform(4));
    const int p = q * q;
    const auto n = static_cast<std::int64_t>(q + rng.uniform(12));
    const DistBlock a = random_matrix(n, n, rng);
    const DistBlock b = random_matrix(n, n, rng);
    DistBlock want(n, n);
    semiring_accumulate<MinPlusSemiring>(want, a, b);

    std::vector<RankId> ranks(static_cast<std::size_t>(p));
    std::iota(ranks.begin(), ranks.end(), 0);
    const GridLayout layout = GridLayout::square(ranks, q, n);
    Machine machine(p);
    DistBlock got;
    machine.run([&](Comm& comm) {
      DistBlock la = scatter_matrix(comm, layout, a, 0, 0);
      DistBlock lb = scatter_matrix(comm, layout, b, 0, 1000);
      DistBlock lc = layout.make_local(comm.rank());
      summa_minplus(comm, layout, la, layout, lb, layout, lc, 2000);
      const DistBlock full = gather_matrix(comm, layout, lc, 0, 90000);
      if (comm.rank() == 0) got = full;
    });
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        if (is_inf(want.at(i, j))) {
          ASSERT_TRUE(is_inf(got.at(i, j))) << "seed " << seed;
        } else {
          ASSERT_NEAR(got.at(i, j), want.at(i, j), 1e-9) << "seed " << seed;
        }
      }
  }
}

}  // namespace
}  // namespace capsp
