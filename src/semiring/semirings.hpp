// The Sec. 3.3 kernels (ClassicalFW, the multiply-accumulate, BlockedFW
// and the reduce combiner), written once over a closed semiring (Carré
// 1971, the paper's reference [8]): the Floyd–Warshall/elimination
// machinery is not specific to min-plus — any closed semiring
// (⊕, ⊗, 0̄, 1̄) yields a path problem:
//
//   MinPlus   ⊕=min ⊗=+    0̄=+inf 1̄=0     shortest distances
//   MaxMin    ⊕=max ⊗=min  0̄=0    1̄=+inf  bottleneck / widest paths
//   BoolOrAnd ⊕=∨   ⊗=∧    0̄=0    1̄=1     reachability (on {0,1} values)
//
// A semiring policy provides the two operations, the two constants, and
// an `is_zero` predicate used for the sparsity skipping (a 0̄ operand
// annihilates the product, exactly like +inf in min-plus).  This header
// is the only home of these loops: the `<MinPlusSemiring>`
// instantiations are what every shortest-path solver, baseline and
// collective runs, and closure.hpp builds the other semirings' solvers
// on the same templates.
//
// Every kernel returns the number of scalar ⊗ operations it evaluated, so
// callers can reproduce the op-count claims (e.g. SuperFW's O(n/|S|)
// computation reduction) without instrumenting hot loops twice.  Each
// kernel has one profiler scope name for every S: `semiring.fw`,
// `semiring.accumulate`, `semiring.blocked_fw`, `semiring.combine`.
#pragma once

#include <algorithm>
#include <cstdint>

#include "semiring/block.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace capsp {

/// Tropical (min, +): shortest paths.  The default everywhere else.
struct MinPlusSemiring {
  static constexpr Dist zero() { return kInf; }
  static constexpr Dist one() { return 0; }
  static constexpr Dist plus(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a + b; }
  static constexpr bool is_zero(Dist a) { return a == kInf; }
  /// ⊕-improvement test: does candidate beat current?
  static constexpr bool improves(Dist candidate, Dist current) {
    return candidate < current;
  }
};

/// (max, min): bottleneck / widest paths — the value of a path is its
/// smallest edge capacity; the problem maximizes it.
struct MaxMinSemiring {
  static constexpr Dist zero() { return 0; }
  static constexpr Dist one() { return kInf; }
  static constexpr Dist plus(Dist a, Dist b) { return a > b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr bool is_zero(Dist a) { return a <= 0; }
  static constexpr bool improves(Dist candidate, Dist current) {
    return candidate > current;
  }
};

/// Boolean (∨, ∧) on {0, 1}: transitive closure / reachability.
/// Numerically identical to MaxMin restricted to {0, 1}, but kept as its
/// own policy so intent is explicit and 1̄ is finite.
struct BoolSemiring {
  static constexpr Dist zero() { return 0; }
  static constexpr Dist one() { return 1; }
  static constexpr Dist plus(Dist a, Dist b) { return a > b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr bool is_zero(Dist a) { return a <= 0; }
  static constexpr bool improves(Dist candidate, Dist current) {
    return candidate > current;
  }
};

/// ClassicalFW: in-place Floyd–Warshall over semiring S on a square block
/// (a(i,j) ⊕= a(i,k) ⊗ a(k,j) for all k, i, j); after the call a(i,j) is
/// the best i→j path value using intermediates inside the block.
template <typename S>
std::int64_t semiring_fw(DistBlock& a) {
  CAPSP_CHECK(a.rows() == a.cols());
  ProfScope prof("semiring.fw");
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
        if (S::improves(cand, ri[j])) ri[j] = cand;
      }
      ops += n;
    }
  }
  metrics().counter_add("semiring.kernels.fw_ops", ops);
  metrics().observe("semiring.kernels.block_dim", static_cast<double>(n));
  prof.add_ops(ops);
  prof.add_bytes(n * n * static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

/// True iff every entry of `a` is 0̄ (the paper's "empty block").
template <typename S>
bool semiring_all_zero(const DistBlock& a) {
  for (Dist v : a.data())
    if (!S::is_zero(v)) return false;
  return true;
}

/// C ← C ⊕ A ⊗ B over semiring S.  Shapes: C is (A.rows × B.cols),
/// A.cols == B.rows.
template <typename S>
std::int64_t semiring_accumulate(DistBlock& c, const DistBlock& a,
                                 const DistBlock& b) {
  CAPSP_CHECK_MSG(a.cols() == b.rows(),
                  "inner dims " << a.cols() << " vs " << b.rows());
  CAPSP_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  ProfScope prof("semiring.accumulate");
  const std::int64_t m = a.rows(), kk = a.cols(), nn = b.cols();
  std::int64_t ops = 0;
  // An all-0̄ operand contributes nothing: the product is empty and the
  // whole multiply is skipped (the sparsity saving of Sec. 4.1).  The
  // O(k·n) scan is negligible against the O(m·k·n) multiply it can avoid.
  if (m == 0 || nn == 0) return 0;
  if (semiring_all_zero<S>(b)) {
    metrics().counter_add("semiring.kernels.empty_skips");
    return 0;
  }
  // i-k-j loop order: B and C rows stream contiguously; skip 0̄ a(i,k) so
  // "empty" sub-structure costs nothing (the sparsity the paper exploits).
  for (std::int64_t i = 0; i < m; ++i) {
    Dist* ci = c.row(i);
    const Dist* ai = a.row(i);
    for (std::int64_t k = 0; k < kk; ++k) {
      const Dist aik = ai[k];
      if (S::is_zero(aik)) continue;
      const Dist* bk = b.row(k);
      for (std::int64_t j = 0; j < nn; ++j) {
        const Dist cand = S::times(aik, bk[j]);
        if (S::improves(cand, ci[j])) ci[j] = cand;
      }
      ops += nn;
    }
  }
  metrics().counter_add("semiring.kernels.minplus_ops", ops);
  prof.add_ops(ops);
  prof.add_bytes((m * kk + kk * nn + m * nn) *
                 static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

/// BlockedFW (Sec. 3.3) over semiring S: Floyd–Warshall over an n×n block
/// with internal tile size `tile` — diagonal update, panel updates, then
/// the outer product.  Each step copies its tiles out of `a` and back.
template <typename S>
std::int64_t semiring_blocked_fw(DistBlock& a, std::int64_t tile) {
  CAPSP_CHECK(a.rows() == a.cols());
  CAPSP_CHECK(tile >= 1);
  ProfScope prof("semiring.blocked_fw");
  const std::int64_t n = a.rows();
  const std::int64_t nb = (n + tile - 1) / tile;
  auto load = [&](std::int64_t bi, std::int64_t bj) {
    const std::int64_t r0 = bi * tile, c0 = bj * tile;
    return a.sub_block(r0, c0, std::min(tile, n - r0),
                       std::min(tile, n - c0));
  };
  auto store = [&](std::int64_t bi, std::int64_t bj, const DistBlock& t) {
    a.set_sub_block(bi * tile, bj * tile, t);
  };
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < nb; ++k) {
    // Diagonal update.
    DistBlock akk = load(k, k);
    ops += semiring_fw<S>(akk);
    store(k, k, akk);
    // Panel updates.
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      DistBlock aik = load(i, k);
      ops += semiring_accumulate<S>(aik, aik, akk);
      store(i, k, aik);
      DistBlock aki = load(k, i);
      ops += semiring_accumulate<S>(aki, akk, aki);
      store(k, i, aki);
    }
    // Outer product.
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      const DistBlock aik = load(i, k);
      if (semiring_all_zero<S>(aik)) {
        metrics().counter_add("semiring.kernels.empty_skips");
        continue;  // empty block: skip the whole row
      }
      for (std::int64_t j = 0; j < nb; ++j) {
        if (j == k) continue;
        DistBlock aij = load(i, j);
        const DistBlock akj = load(k, j);
        ops += semiring_accumulate<S>(aij, aik, akj);
        store(i, j, aij);
      }
    }
  }
  return ops;
}

/// c ← c ⊕ other elementwise over semiring S (the reduce combiner).
template <typename S>
void semiring_elementwise_plus(DistBlock& c, const DistBlock& other) {
  CAPSP_CHECK(c.rows() == other.rows() && c.cols() == other.cols());
  ProfScope prof("semiring.combine");
  auto cd = c.data();
  auto od = other.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] = S::plus(cd[i], od[i]);
  prof.add_ops(static_cast<std::int64_t>(cd.size()));
  prof.add_bytes(static_cast<std::int64_t>(cd.size()) * 3 *
                 static_cast<std::int64_t>(sizeof(Dist)));
}

/// Type-erased kernel bundle: lets runtime code (the distributed
/// scheduler, the collectives) run over any semiring without templating
/// the whole call graph.  The indirection is per *block operation*
/// (O(n³) work each), so its cost is noise.
struct SemiringKernels {
  std::int64_t (*fw)(DistBlock&) = nullptr;
  std::int64_t (*accumulate)(DistBlock&, const DistBlock&,
                             const DistBlock&) = nullptr;
  void (*combine)(DistBlock&, const DistBlock&) = nullptr;
  Dist zero = 0;  ///< 0̄, the fill value for "no path yet"
  Dist one = 0;   ///< 1̄, the diagonal value

  template <typename S>
  static SemiringKernels of() {
    return {&semiring_fw<S>, &semiring_accumulate<S>,
            &semiring_elementwise_plus<S>, S::zero(), S::one()};
  }
};

}  // namespace capsp
