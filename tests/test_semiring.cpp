// Unit + property tests for the semiring module: tropical scalar algebra,
// DistBlock storage, the semiring kernel family (including the empty-block
// skipping that the sparse algorithm's cost model relies on).
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "baseline/reference.hpp"
#include "graph/generators.hpp"
#include "semiring/block.hpp"
#include "semiring/dist.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

DistBlock random_block(std::int64_t rows, std::int64_t cols, Rng& rng,
                       double inf_fraction = 0.2) {
  DistBlock block(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      if (!rng.bernoulli(inf_fraction))
        block.at(r, c) = rng.uniform_real(0, 10);
  return block;
}

/// Reference C ← C ⊕ A ⊗ B over S: the cubic loop with no 0̄ skipping
/// and no tiling.
template <typename S>
void naive_accumulate(DistBlock& c, const DistBlock& a, const DistBlock& b) {
  for (std::int64_t i = 0; i < a.rows(); ++i)
    for (std::int64_t j = 0; j < b.cols(); ++j)
      for (std::int64_t k = 0; k < a.cols(); ++k)
        c.at(i, j) = S::plus(c.at(i, j), S::times(a.at(i, k), b.at(k, j)));
}

/// Reference Floyd–Warshall over S, with no 0̄ skipping.
template <typename S>
void naive_fw(DistBlock& a) {
  for (std::int64_t k = 0; k < a.rows(); ++k)
    for (std::int64_t i = 0; i < a.rows(); ++i)
      for (std::int64_t j = 0; j < a.cols(); ++j)
        a.at(i, j) = S::plus(a.at(i, j), S::times(a.at(i, k), a.at(k, j)));
}

DistBlock naive_minplus(const DistBlock& a, const DistBlock& b) {
  DistBlock c(a.rows(), b.cols());
  naive_accumulate<MinPlusSemiring>(c, a, b);
  return c;
}

TEST(Dist, TropicalAlgebra) {
  EXPECT_EQ(tropical_min(3.0, 5.0), 3.0);
  EXPECT_EQ(tropical_min(kInf, 5.0), 5.0);
  EXPECT_EQ(tropical_mul(2.0, 3.0), 5.0);
  EXPECT_EQ(tropical_mul(kInf, 3.0), kInf);
  EXPECT_EQ(tropical_mul(kInf, kInf), kInf);
  EXPECT_TRUE(is_inf(kInf));
  EXPECT_FALSE(is_inf(0.0));
}

TEST(Dist, InfIsAdditiveIdentityAndMultiplicativeAbsorber) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const Dist x = rng.uniform_real(-50, 50);
    EXPECT_EQ(tropical_min(x, kInf), x);
    EXPECT_EQ(tropical_mul(x, kInf), kInf);
  }
}

TEST(Dist, NegativeValuesWellBehaved) {
  EXPECT_EQ(tropical_min(-2.0, 1.0), -2.0);
  EXPECT_EQ(tropical_mul(-2.0, 3.0), 1.0);
  EXPECT_EQ(tropical_mul(-2.0, kInf), kInf);
}

TEST(Block, ConstructionAndAccess) {
  DistBlock block(2, 3);
  EXPECT_EQ(block.rows(), 2);
  EXPECT_EQ(block.cols(), 3);
  EXPECT_EQ(block.size(), 6);
  EXPECT_TRUE(block.all_infinite());
  block.at(1, 2) = 4.5;
  EXPECT_EQ(block.at(1, 2), 4.5);
  EXPECT_FALSE(block.all_infinite());
}

TEST(Block, ZeroSizedIsLegal) {
  DistBlock block(0, 5);
  EXPECT_TRUE(block.empty());
  EXPECT_TRUE(block.all_infinite());
  DistBlock other(0, 5);
  semiring_elementwise_plus<MinPlusSemiring>(block, other);  // no-op, no crash
}

TEST(Block, OutOfBoundsRejected) {
  DistBlock block(2, 2);
  EXPECT_THROW(block.at(2, 0), check_error);
  EXPECT_THROW(block.at(0, -1), check_error);
}

TEST(Block, ZeroDiagonal) {
  DistBlock block(3, 3);
  block.zero_diagonal();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(block.at(i, i), 0);
  EXPECT_TRUE(is_inf(block.at(0, 1)));
}

TEST(Block, TransposeInvolution) {
  Rng rng(2);
  const DistBlock block = random_block(3, 5, rng);
  const DistBlock twice = block.transposed().transposed();
  EXPECT_EQ(block, twice);
  EXPECT_EQ(block.transposed().at(4, 2), block.at(2, 4));
}

TEST(Block, SubBlockRoundTrip) {
  Rng rng(3);
  DistBlock block = random_block(6, 6, rng);
  const DistBlock piece = block.sub_block(1, 2, 3, 4);
  EXPECT_EQ(piece.rows(), 3);
  EXPECT_EQ(piece.cols(), 4);
  EXPECT_EQ(piece.at(0, 0), block.at(1, 2));
  DistBlock copy = block;
  copy.set_sub_block(1, 2, piece);
  EXPECT_EQ(copy, block);
}

TEST(Block, SubBlockBoundsChecked) {
  DistBlock block(3, 3);
  EXPECT_THROW(block.sub_block(2, 2, 2, 2), check_error);
}

TEST(Kernels, ClassicalFwTinyTriangle) {
  DistBlock a(3, 3);
  a.zero_diagonal();
  a.at(0, 1) = a.at(1, 0) = 1;
  a.at(1, 2) = a.at(2, 1) = 2;
  a.at(0, 2) = a.at(2, 0) = 10;
  semiring_fw<MinPlusSemiring>(a);
  EXPECT_EQ(a.at(0, 2), 3);  // through vertex 1
  EXPECT_EQ(a.at(2, 0), 3);
}

TEST(Kernels, ClassicalFwMatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const Graph graph = make_erdos_renyi(24, 3.0, rng);
    DistBlock a = to_distance_matrix(graph);
    semiring_fw<MinPlusSemiring>(a);
    const DistBlock want = dijkstra_apsp(graph);
    for (std::int64_t i = 0; i < a.rows(); ++i)
      for (std::int64_t j = 0; j < a.cols(); ++j)
        EXPECT_NEAR(a.at(i, j), want.at(i, j), 1e-9);
  }
}

TEST(Kernels, ClassicalFwHandlesNegativeEdgesDirected) {
  // Negative weights are legal as long as no cycle is negative.  NOTE: in
  // an *undirected* graph any negative edge forms a negative 2-cycle, so
  // meaningful negative-weight instances are directed (asymmetric blocks);
  // the kernels operate on general square blocks and handle them.
  DistBlock a(3, 3);
  a.zero_diagonal();
  a.at(0, 1) = -2;
  a.at(1, 0) = 10;  // asymmetric back edge keeps the cycle positive
  a.at(1, 2) = 3;
  a.at(2, 1) = 10;
  a.at(0, 2) = 5;
  a.at(2, 0) = 10;
  semiring_fw<MinPlusSemiring>(a);
  EXPECT_EQ(a.at(0, 2), 1);  // -2 + 3 beats the direct 5
  EXPECT_EQ(a.at(0, 1), -2);
  EXPECT_EQ(a.at(2, 0), 10);
}

TEST(Kernels, ClassicalFwOpCount) {
  // Dense all-finite block: every (k, i) row pass runs n ops.
  DistBlock a(8, 8, 1.0);
  EXPECT_EQ(semiring_fw<MinPlusSemiring>(a), 8 * 8 * 8);
  // All-infinite off-diagonal rows are skipped.
  DistBlock b(8, 8);
  b.zero_diagonal();
  // Only i == k rows contribute.
  EXPECT_EQ(semiring_fw<MinPlusSemiring>(b), 8 * 8);
}

TEST(Kernels, MinplusShapeMismatchRejected) {
  DistBlock a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(semiring_accumulate<MinPlusSemiring>(c, a, b), check_error);
}

TEST(Kernels, MinplusEmptyOperandIsFreeAndNoOp) {
  Rng rng(5);
  const DistBlock a(6, 6);  // all infinite
  const DistBlock b = random_block(6, 6, rng, 0.0);
  DistBlock c = random_block(6, 6, rng);
  const DistBlock before = c;
  // Zero ops: sparsity skipping.
  EXPECT_EQ(semiring_accumulate<MinPlusSemiring>(c, a, b), 0);
  EXPECT_EQ(c, before);
}

TEST(Kernels, MinplusIdentityBlock) {
  // The min-plus identity: 0 on the diagonal, inf elsewhere.
  Rng rng(6);
  const DistBlock x = random_block(5, 5, rng);
  DistBlock identity(5, 5);
  identity.zero_diagonal();
  DistBlock c(5, 5);
  semiring_accumulate<MinPlusSemiring>(c, identity, x);
  EXPECT_EQ(c, x);
  DistBlock d(5, 5);
  semiring_accumulate<MinPlusSemiring>(d, x, identity);
  EXPECT_EQ(d, x);
}

TEST(Kernels, MinplusAssociativity) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const DistBlock a = random_block(4, 4, rng);
    const DistBlock b = random_block(4, 4, rng);
    const DistBlock c = random_block(4, 4, rng);
    const DistBlock left = naive_minplus(naive_minplus(a, b), c);
    const DistBlock right = naive_minplus(a, naive_minplus(b, c));
    for (std::int64_t i = 0; i < 4; ++i)
      for (std::int64_t j = 0; j < 4; ++j)
        EXPECT_NEAR(left.at(i, j), right.at(i, j), 1e-9);
  }
}

TEST(Kernels, MinplusMonotone) {
  // Accumulation can only lower entries.
  Rng rng(8);
  const DistBlock a = random_block(6, 6, rng);
  const DistBlock b = random_block(6, 6, rng);
  DistBlock c = random_block(6, 6, rng);
  const DistBlock before = c;
  semiring_accumulate<MinPlusSemiring>(c, a, b);
  for (std::int64_t i = 0; i < 6; ++i)
    for (std::int64_t j = 0; j < 6; ++j)
      EXPECT_LE(c.at(i, j), before.at(i, j));
}

class BlockedFwParam : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BlockedFwParam, MatchesClassicalFw) {
  const std::int64_t tile = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(tile));
  const Graph graph = make_erdos_renyi(30, 4.0, rng);
  DistBlock blocked = to_distance_matrix(graph);
  DistBlock classical = blocked;
  semiring_blocked_fw<MinPlusSemiring>(blocked, tile);
  semiring_fw<MinPlusSemiring>(classical);
  for (std::int64_t i = 0; i < blocked.rows(); ++i)
    for (std::int64_t j = 0; j < blocked.cols(); ++j)
      EXPECT_NEAR(blocked.at(i, j), classical.at(i, j), 1e-9)
          << "tile=" << tile;
}

INSTANTIATE_TEST_SUITE_P(Tiles, BlockedFwParam,
                         ::testing::Values<std::int64_t>(1, 2, 3, 5, 7, 8,
                                                         16, 30, 64));

TEST(Kernels, BlockedFwSkipsEmptyBlockRows) {
  // Two disconnected cliques: cross blocks stay empty, ops stay below the
  // dense count.
  Rng rng(9);
  GraphBuilder builder(16);
  for (Vertex i = 0; i < 8; ++i)
    for (Vertex j = i + 1; j < 8; ++j) {
      builder.add_edge(i, j, 1);
      builder.add_edge(i + 8, j + 8, 1);
    }
  const Graph graph = std::move(builder).build();
  DistBlock a = to_distance_matrix(graph);
  const std::int64_t ops = semiring_blocked_fw<MinPlusSemiring>(a, 8);
  DistBlock dense(16, 16, 1.0);
  const std::int64_t dense_ops = semiring_blocked_fw<MinPlusSemiring>(dense, 8);
  EXPECT_LT(ops, dense_ops / 2);
}

TEST(Kernels, ElementwiseMin) {
  DistBlock a(2, 2, 5.0), b(2, 2, 3.0);
  b.at(0, 0) = 9.0;
  semiring_elementwise_plus<MinPlusSemiring>(a, b);
  EXPECT_EQ(a.at(0, 0), 5.0);
  EXPECT_EQ(a.at(1, 1), 3.0);
}

// The kernel family, bit for bit: every kernel over every semiring
// against the naive loops above.  Entries are 0̄, 1̄ or small integers, so
// every ⊕/⊗ order yields the same bits and whole blocks compare with
// EXPECT_EQ.  This is the guard a reordered or vectorized kernel must
// pass.

template <typename S>
DistBlock random_semiring_block(std::int64_t rows, std::int64_t cols,
                                Rng& rng) {
  DistBlock block(rows, cols);
  for (Dist& v : block.data()) {
    // Mostly 0̄, so Bool closures stay sparse enough for a missed update
    // to show.
    const std::uint64_t r = rng.uniform(10);
    if (r < 6) {
      v = S::zero();
    } else if (r == 6 || std::is_same_v<S, BoolSemiring>) {
      v = S::one();
    } else {
      v = static_cast<Dist>(1 + rng.uniform(9));
    }
  }
  return block;
}

template <typename S>
class KernelFamily : public ::testing::Test {};
using AllSemirings =
    ::testing::Types<MinPlusSemiring, MaxMinSemiring, BoolSemiring>;
TYPED_TEST_SUITE(KernelFamily, AllSemirings);

TYPED_TEST(KernelFamily, FwMatchesNaive) {
  using S = TypeParam;
  Rng rng(11);
  for (std::int64_t n : {0, 1, 2, 3, 5, 7, 9, 10, 13, 33}) {
    DistBlock a = random_semiring_block<S>(n, n, rng);
    DistBlock want = a;
    naive_fw<S>(want);
    semiring_fw<S>(a);
    EXPECT_EQ(a, want) << "n=" << n;
  }
}

TYPED_TEST(KernelFamily, AccumulateMatchesNaive) {
  using S = TypeParam;
  Rng rng(12);
  struct Shape {
    std::int64_t m, k, n;
  };
  std::vector<Shape> shapes{Shape{7, 5, 9}, Shape{6, 6, 6}, Shape{1, 1, 1},
                            Shape{0, 4, 3}, Shape{3, 0, 4}, Shape{3, 4, 0},
                            Shape{4, 0, 0}};
  // Row and column counts around the 4-row tile and the vector widths.
  for (std::int64_t m : {1, 3, 5, 9})
    for (std::int64_t n : {1, 3, 7, 13, 33}) shapes.push_back({m, 6, n});
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 5; ++trial) {
      const DistBlock a = random_semiring_block<S>(shape.m, shape.k, rng);
      const DistBlock b = random_semiring_block<S>(shape.k, shape.n, rng);
      DistBlock c = random_semiring_block<S>(shape.m, shape.n, rng);
      DistBlock want = c;
      naive_accumulate<S>(want, a, b);
      semiring_accumulate<S>(c, a, b);
      EXPECT_EQ(c, want) << shape.m << "x" << shape.k << "x" << shape.n
                         << " trial " << trial;
    }
  }
}

TYPED_TEST(KernelFamily, BlockedFwMatchesNaive) {
  using S = TypeParam;
  Rng rng(13);
  for (std::int64_t tile : {1, 3, 8}) {
    for (std::int64_t n : {0, 1, 10, 17, 33}) {
      DistBlock a = random_semiring_block<S>(n, n, rng);
      DistBlock want = a;
      naive_fw<S>(want);
      semiring_blocked_fw<S>(a, tile);
      EXPECT_EQ(a, want) << "tile=" << tile << " n=" << n;
    }
  }
}

TYPED_TEST(KernelFamily, ElementwisePlusMatchesNaive) {
  using S = TypeParam;
  Rng rng(14);
  for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{4, 6},
                                   {0, 5}, {5, 0}}) {
    DistBlock c = random_semiring_block<S>(rows, cols, rng);
    const DistBlock other = random_semiring_block<S>(rows, cols, rng);
    DistBlock want = c;
    for (std::int64_t i = 0; i < rows; ++i)
      for (std::int64_t j = 0; j < cols; ++j)
        want.at(i, j) = S::plus(want.at(i, j), other.at(i, j));
    semiring_elementwise_plus<S>(c, other);
    EXPECT_EQ(c, want) << rows << "x" << cols;
  }
}

// The tiled kernels against verbatim copies of the plain scalar loops they
// replaced, on each compiled tile copy (skipped where the CPU lacks it):
// non-integer weights (so a reordered relaxation would change bits), ±0,
// 0̄ and 1̄ entries, row and column counts around the tile and vector
// widths, the aliased panel-update forms, a negative diagonal, and a
// semiring with no `lanes` member.  Blocks compare bit for bit.

/// MinPlus without `lanes`: the kernels' scalar path for user semirings.
struct PlainMinPlus {
  static constexpr Dist zero() { return kInf; }
  static constexpr Dist one() { return 0; }
  static constexpr Dist plus(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a + b; }
  static constexpr bool is_zero(Dist a) { return a == kInf; }
};

/// The plain loops' store rule: does `cand` strictly beat `cur`?
template <typename S>
bool improves(Dist cand, Dist cur) {
  if constexpr (std::is_same_v<S, MaxMinSemiring> ||
                std::is_same_v<S, BoolSemiring>)
    return cand > cur;
  else
    return cand < cur;
}

bool same_bits(const DistBlock& a, const DistBlock& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() || std::memcmp(a.data().data(), b.data().data(),
                                   a.data().size_bytes()) == 0);
}

/// The plain i-k-j multiply-accumulate.  Operands may alias c: entries
/// are read as the loop reaches them.
template <typename S>
std::int64_t scalar_accumulate(DistBlock& c, const DistBlock& a,
                               const DistBlock& b) {
  const std::int64_t m = a.rows(), kk = a.cols(), nn = b.cols();
  std::int64_t ops = 0;
  if (m == 0 || nn == 0) return 0;
  if (semiring_all_zero<S>(b)) return 0;
  for (std::int64_t i = 0; i < m; ++i) {
    Dist* ci = c.row(i);
    const Dist* ai = a.row(i);
    for (std::int64_t k = 0; k < kk; ++k) {
      const Dist aik = ai[k];
      if (S::is_zero(aik)) continue;
      const Dist* bk = b.row(k);
      for (std::int64_t j = 0; j < nn; ++j) {
        const Dist cand = S::times(aik, bk[j]);
        if (improves<S>(cand, ci[j])) ci[j] = cand;
      }
      ops += nn;
    }
  }
  return ops;
}

/// The plain k-i-j Floyd–Warshall.
template <typename S>
std::int64_t scalar_fw(DistBlock& a) {
  const std::int64_t n = a.rows();
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Dist* rk = a.row(k);
    for (std::int64_t i = 0; i < n; ++i) {
      const Dist aik = a.at(i, k);
      if (S::is_zero(aik)) continue;
      Dist* ri = a.row(i);
      for (std::int64_t j = 0; j < n; ++j) {
        const Dist cand = S::times(aik, rk[j]);
        if (improves<S>(cand, ri[j])) ri[j] = cand;
      }
      ops += n;
    }
  }
  return ops;
}

/// BlockedFW on tile copies, over the plain loops.
template <typename S>
std::int64_t scalar_blocked_fw(DistBlock& a, std::int64_t tile) {
  const std::int64_t n = a.rows(), nb = (n + tile - 1) / tile;
  auto load = [&](std::int64_t bi, std::int64_t bj) {
    return a.sub_block(bi * tile, bj * tile, std::min(tile, n - bi * tile),
                       std::min(tile, n - bj * tile));
  };
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < nb; ++k) {
    DistBlock akk = load(k, k);
    ops += scalar_fw<S>(akk);
    a.set_sub_block(k * tile, k * tile, akk);
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      DistBlock aik = load(i, k);
      ops += scalar_accumulate<S>(aik, aik, akk);
      a.set_sub_block(i * tile, k * tile, aik);
      DistBlock aki = load(k, i);
      ops += scalar_accumulate<S>(aki, akk, aki);
      a.set_sub_block(k * tile, i * tile, aki);
    }
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      const DistBlock aik = load(i, k);
      if (semiring_all_zero<S>(aik)) continue;
      for (std::int64_t j = 0; j < nb; ++j) {
        if (j == k) continue;
        DistBlock aij = load(i, j);
        ops += scalar_accumulate<S>(aij, aik, load(k, j));
        a.set_sub_block(i * tile, j * tile, aij);
      }
    }
  }
  return ops;
}

/// ~30% 0̄, some ±0 and 1̄ (+inf under MaxMin), the rest non-integer
/// weights; Bool gets 0/1.
template <typename S>
DistBlock real_block(std::int64_t rows, std::int64_t cols, Rng& rng) {
  DistBlock block(rows, cols);
  for (Dist& v : block.data()) {
    const std::uint64_t r = rng.uniform(10);
    if (r < 3) {
      v = S::zero();
    } else if (std::is_same_v<S, BoolSemiring> || r == 3) {
      v = S::one();
    } else if (r == 4) {
      v = rng.bernoulli(0.5) ? 0.0 : -0.0;
    } else {
      v = rng.uniform_real(0.1, 10);
    }
  }
  return block;
}

template <typename S>
DistBlock real_square(std::int64_t n, Rng& rng) {
  DistBlock a = real_block<S>(n, n, rng);
  for (std::int64_t i = 0; i < n; ++i) a.at(i, i) = S::one();
  return a;
}

/// One semiring on one compiled tile copy.
template <typename S, KernelIsa I>
struct OnIsa {
  using Semiring = S;
  static constexpr KernelIsa isa = I;
};

template <typename T>
class KernelBits : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernel_isa_supported(T::isa))
      GTEST_SKIP() << "CPU cannot run the " << kernel_isa_name(T::isa)
                   << " tile";
  }
};
using BitsCases = ::testing::Types<
    OnIsa<MinPlusSemiring, KernelIsa::kPortable>,
    OnIsa<MaxMinSemiring, KernelIsa::kPortable>,
    OnIsa<BoolSemiring, KernelIsa::kPortable>,
    OnIsa<PlainMinPlus, KernelIsa::kPortable>,
    OnIsa<MinPlusSemiring, KernelIsa::kAvx2>,
    OnIsa<MaxMinSemiring, KernelIsa::kAvx2>,
    OnIsa<BoolSemiring, KernelIsa::kAvx2>,
    OnIsa<PlainMinPlus, KernelIsa::kAvx2>>;
TYPED_TEST_SUITE(KernelBits, BitsCases);

TYPED_TEST(KernelBits, FwMatchesScalarLoop) {
  using S = typename TypeParam::Semiring;
  Rng rng(21);
  for (std::int64_t n : {0, 1, 3, 5, 9, 13, 33, 70}) {
    DistBlock want = real_square<S>(n, rng);
    DistBlock got = want;
    const std::int64_t want_ops = scalar_fw<S>(want);
    EXPECT_EQ(detail::fw_counted<S>(detail::view_of(got), TypeParam::isa),
              want_ops);
    EXPECT_TRUE(same_bits(got, want)) << "n=" << n;
  }
}

TYPED_TEST(KernelBits, AccumulateMatchesScalarLoop) {
  using S = typename TypeParam::Semiring;
  Rng rng(22);
  auto check = [&](std::int64_t m, std::int64_t k, std::int64_t n) {
    const DistBlock a = real_block<S>(m, k, rng);
    const DistBlock b = real_block<S>(k, n, rng);
    DistBlock want = real_block<S>(m, n, rng);
    DistBlock got = want;
    const std::int64_t want_ops = scalar_accumulate<S>(want, a, b);
    EXPECT_EQ(detail::accumulate_counted<S>(detail::view_of(got),
                                            detail::view_of(a),
                                            detail::view_of(b), TypeParam::isa),
              want_ops);
    EXPECT_TRUE(same_bits(got, want)) << m << "x" << k << "x" << n;
  };
  for (std::int64_t m : {1, 3, 5, 9})
    for (std::int64_t n : {1, 3, 7, 13, 33})
      for (std::int64_t k : {1, 37}) check(m, k, n);
  check(37, 70, 45);
  check(0, 4, 3);
  check(3, 0, 4);
}

TYPED_TEST(KernelBits, AliasedPanelUpdatesMatchScalarLoop) {
  using S = typename TypeParam::Semiring;
  Rng rng(23);
  for (const auto& [m, n] : {std::pair<std::int64_t, std::int64_t>{37, 45},
                             {6, 70}, {70, 9}, {1, 33}, {5, 7}, {9, 13},
                             {3, 1}}) {
    const DistBlock square = real_square<S>(n, rng);
    const DistBlock left = real_square<S>(m, rng);
    const DistBlock panel = real_block<S>(m, n, rng);
    // accumulate(x, x, akk), the A_ik panel update, and
    // accumulate(x, akk, x), A_ki's.
    DistBlock want_ik = panel, want_ki = panel;
    scalar_accumulate<S>(want_ik, want_ik, square);
    scalar_accumulate<S>(want_ki, left, want_ki);
    DistBlock ik = panel, ki = panel;
    const detail::BlockView vik = detail::view_of(ik);
    const detail::BlockView vki = detail::view_of(ki);
    detail::accumulate_counted<S>(vik, detail::as_const(vik),
                                  detail::view_of(square), TypeParam::isa);
    detail::accumulate_counted<S>(vki, detail::view_of(left),
                                  detail::as_const(vki), TypeParam::isa);
    EXPECT_TRUE(same_bits(ik, want_ik)) << m << "x" << n;
    EXPECT_TRUE(same_bits(ki, want_ki)) << m << "x" << n;
  }
}

TYPED_TEST(KernelBits, BlockedFwMatchesScalarTileCopies) {
  using S = typename TypeParam::Semiring;
  Rng rng(24);
  for (std::int64_t tile : {1, 7, 16}) {
    DistBlock want = real_square<S>(45, rng);
    DistBlock got = want;
    const std::int64_t want_ops = scalar_blocked_fw<S>(want, tile);
    EXPECT_EQ(detail::blocked_fw_counted<S>(detail::view_of(got), tile,
                                            TypeParam::isa),
              want_ops);
    EXPECT_TRUE(same_bits(got, want)) << "tile=" << tile;
  }
}

template <typename T>
class NegativeDiagonal : public KernelBits<T> {};
using MinPlusCases =
    ::testing::Types<OnIsa<MinPlusSemiring, KernelIsa::kPortable>,
                     OnIsa<MinPlusSemiring, KernelIsa::kAvx2>,
                     OnIsa<PlainMinPlus, KernelIsa::kPortable>>;
TYPED_TEST_SUITE(NegativeDiagonal, MinPlusCases);

TYPED_TEST(NegativeDiagonal, FwKeepsScalarOrder) {
  // A negative diagonal makes a pivot row change under its own step, so
  // rows before and after it see different pivot rows; the kernel must
  // still reproduce the k-i-j loop exactly, including the pivots of the
  // same pass before and after it.
  using S = typename TypeParam::Semiring;
  Rng rng(25);
  for (std::int64_t n : {6, 40, 75}) {
    DistBlock want = real_square<S>(n, rng);
    for (std::int64_t i = 0; i + 1 < n; i += 3) want.at(i + 1, i) = -30.5;
    for (std::int64_t i = 2; i < n; i += 11) want.at(i, i) = -0.25;
    DistBlock got = want;
    const std::int64_t want_ops = scalar_fw<S>(want);
    EXPECT_EQ(detail::fw_counted<S>(detail::view_of(got), TypeParam::isa),
              want_ops);
    EXPECT_TRUE(same_bits(got, want)) << "n=" << n;
  }
}

TEST(GraphMatrix, AdjacencyMatrixBasics) {
  Rng rng(10);
  const Graph graph = make_path(4, rng, WeightOptions::unit());
  const DistBlock a = to_distance_matrix(graph);
  EXPECT_EQ(a.at(0, 0), 0);
  EXPECT_EQ(a.at(0, 1), 1);
  EXPECT_TRUE(is_inf(a.at(0, 2)));
  EXPECT_EQ(a.at(2, 1), 1);
}

TEST(GraphMatrix, RectangularWindow) {
  Rng rng(10);
  const Graph graph = make_path(6, rng, WeightOptions::unit());
  const DistBlock block = adjacency_block(graph, 1, 4, 3, 6);
  EXPECT_EQ(block.rows(), 3);
  EXPECT_EQ(block.cols(), 3);
  EXPECT_EQ(block.at(2, 0), 0);      // vertex 3 diagonal
  EXPECT_EQ(block.at(1, 0), 1);      // edge {2,3}
  EXPECT_TRUE(is_inf(block.at(0, 2)));
}

TEST(AdoptedBlocks, KernelsMatchAnOwnedCopyAndSpareTheOtherHolder) {
  // A block that reads a received payload turns private at its first
  // write.  The kernels take C's view first, so an A or B that is C
  // itself is still seen as C: the in-place results are those of an
  // owned block, and the payload's other holder keeps the original.
  using S = MinPlusSemiring;
  Rng rng(31);
  for (const std::int64_t n : {5, 37, 70}) {
    const DistBlock original = real_square<S>(n, rng);
    const DistBlock other = real_square<S>(n, rng);
    const auto check = [&](const char* what, auto kernel) {
      const Payload shared = Payload::copy_of(original.data());
      const DistBlock holder(n, n, shared);
      DistBlock adopted(n, n, shared);
      DistBlock owned = original;
      const std::int64_t want_ops = kernel(owned);
      EXPECT_EQ(kernel(adopted), want_ops) << what << " n=" << n;
      EXPECT_FALSE(adopted.is_shared()) << what;
      EXPECT_TRUE(same_bits(adopted, owned)) << what << " n=" << n;
      EXPECT_TRUE(same_bits(holder, original)) << what << " n=" << n;
      EXPECT_EQ(holder.data().data(), shared.data()) << what;
    };
    check("accumulate(c, c, b)", [&](DistBlock& c) {
      return semiring_accumulate<S>(c, c, other);
    });
    check("accumulate(c, a, c)", [&](DistBlock& c) {
      return semiring_accumulate<S>(c, other, c);
    });
    check("fw(c)", [](DistBlock& c) { return semiring_fw<S>(c); });
  }
}

TEST(Block, EqualityComparesContentsWhereverTheyLive) {
  DistBlock owned(2, 2, 1.0);
  const DistBlock shared(2, 2, Payload::copy_of(owned.data()));
  EXPECT_TRUE(shared.is_shared());
  EXPECT_EQ(owned, shared);
  owned.at(0, 1) = 2.0;
  EXPECT_NE(owned, shared);
  EXPECT_NE(DistBlock(1, 4, 1.0), shared);  // same words, other shape
}

}  // namespace
}  // namespace capsp
