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
// A semiring policy (the built-in ones live in microkernel.hpp) provides
// zero(), one(), plus(a, b), times(a, b) and is_zero(a); `is_zero` drives
// the sparsity skipping (a 0̄ operand annihilates the product, exactly
// like +inf in min-plus).  The kernels rely on one more rule:
// plus(cand, cur) returns `cur` unless `cand` is strictly better, so
// `c = plus(cand, c)` stores exactly when a compare-and-store loop would.
// This header is the only home of these loops: the `<MinPlusSemiring>`
// instantiations are what every shortest-path solver, baseline and
// collective runs, and closure.hpp builds the other semirings' solvers on
// the same templates.
//
// Every kernel returns the number of scalar ⊗ operations it evaluated, so
// callers can reproduce the op-count claims (e.g. SuperFW's O(n/|S|)
// computation reduction) without instrumenting hot loops twice.  Each
// kernel has one profiler scope name for every S: `semiring.fw`,
// `semiring.accumulate`, `semiring.blocked_fw`, `semiring.combine`.
//
// Loop order.  The kernels mean the plain loops: ClassicalFW is k-i-j,
// the multiply-accumulate is i-k-j, each (row i, step k) pair skipped
// when its left operand is 0̄.  All three cubic kernels run them on the
// register-blocked tile of microkernel.hpp, under one rule: block over
// rows i and columns j, never reorder the steps k.  Every entry then gets
// its candidates in the plain loop's order, from the same operands, so
// results and op counts are bit for bit those of the plain loops.  Where
// blocking rows would read an operand before the plain loop has written
// it, the blocking changes shape but keeps the plain order:
//   * C ⊕= A ⊗ C (B aliases C): row i reads rows k < i already final and
//     rows k > i not yet updated, so the rows go in order, each holding
//     32 of its columns in the one-row tile while up to kStepBlock of its
//     non-0̄ steps stream past; its own step k = i runs alone;
//   * C ⊕= C ⊗ B (A aliases C), and ClassicalFW: x(i, k) is the value
//     step k finds, so each 4-row tile first replays the earlier steps of
//     its block on its x entries, one row per vector lane, and then takes
//     only the steps whose replayed x is non-0̄ in one of its rows;
//   * ClassicalFW blocks kStepBlock pivots per pass, which needs every
//     pivot row to be left unchanged by its own step; the pass stops
//     before a pivot that fails this (a negative min-plus diagonal) and
//     that step runs alone in k-i-j order;
//   * a policy without a `lanes` member runs the tile one scalar at a
//     time through its own times/plus.
//
// Aliasing.  The kernels tell that A or B is C by comparing pointers.
// Each entry point takes the view of the block it writes before its read
// views: a C that reads a received payload (block.hpp) turns private in
// that first step, so an A or B that is the same block then yields the
// same pointer, and the payload's other holders never see the writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "semiring/block.hpp"
#include "semiring/microkernel.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace capsp {

namespace detail {

/// Row-major window with row stride `ld`: a whole block or one tile of it.
template <typename T>
struct StridedView {
  T* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t ld = 0;
  T* row(std::int64_t i) const { return data + i * ld; }
};
using BlockView = StridedView<Dist>;
using ConstBlockView = StridedView<const Dist>;

inline BlockView view_of(DistBlock& b) {
  return {b.data().data(), b.rows(), b.cols(), b.cols()};
}
inline ConstBlockView view_of(const DistBlock& b) {
  return {b.data().data(), b.rows(), b.cols(), b.cols()};
}
inline ConstBlockView as_const(BlockView v) {
  return {v.data, v.rows, v.cols, v.ld};
}

template <typename S>
bool all_zero(ConstBlockView a) {
  for (std::int64_t i = 0; i < a.rows; ++i)
    for (std::int64_t j = 0; j < a.cols; ++j)
      if (!S::is_zero(a.row(i)[j])) return false;
  return true;
}

/// x[t][r] = a(i0 + r, k0 + t) for the tile's rows r < mr, and 0̄ on the
/// lanes past them.  When `live`, `a` is c itself and x[t][r] is the value
/// step k0 + t finds, after the block's earlier steps updated it (the
/// dependency of Floyd–Warshall and of the panel update C ⊕= C ⊗ B),
/// which replay() gives it on the tile's rows as one vector.
template <typename S>
void find_steps(ConstBlockView a, ConstBlockView b, std::int64_t i0, int mr,
                std::int64_t k0, int kb, bool live, Dist (*x)[kTileRows],
                KernelIsa isa) {
  for (int t = 0; t < kb; ++t)
    for (int r = 0; r < kTileRows; ++r)
      x[t][r] = r < mr ? a.row(i0 + r)[k0 + t] : S::zero();
  if (live) replay<S>(isa, x, b.row(k0) + k0, b.ld, kb);
}

/// Steps k = k0 .. k0+kb−1, in order, on every row i of c:
///   c(i, :) ⊕= x_ik ⊗ b(k, :),  skipping 0̄ x_ik,
/// with x_ik = a(i, k) as find_steps reads or replays it.  A tile of
/// kTileRows rows takes only the steps with a non-0̄ x in one of its rows;
/// a row past the last whole tile takes its own non-0̄ steps through the
/// one-row tile.  Either way the kept steps move down x in place (the
/// t-th kept step is step t or a later one).  Returns the ⊗ count.
template <typename S>
std::int64_t apply_steps(BlockView c, ConstBlockView a, ConstBlockView b,
                         std::int64_t k0, int kb, bool live, KernelIsa isa) {
  if (kb == 0) return 0;
  std::int64_t ops = 0;
  alignas(Lanes4) Dist x[kStepBlock][kTileRows] = {};
  const Dist* kept_p[kStepBlock] = {};
  for (std::int64_t i0 = 0; i0 < c.rows; i0 += kTileRows) {
    const int mr =
        static_cast<int>(std::min<std::int64_t>(kTileRows, c.rows - i0));
    find_steps<S>(a, b, i0, mr, k0, kb, live, x, isa);
    if (mr == kTileRows) {
      Dist* rows[kTileRows] = {};
      for (int r = 0; r < kTileRows; ++r) rows[r] = c.row(i0 + r);
      int kept = 0;
      bool masked = false;
      for (int t = 0; t < kb; ++t) {
        int nonzero = 0;
        for (int r = 0; r < kTileRows; ++r) nonzero += !S::is_zero(x[t][r]);
        if (nonzero == 0) continue;
        masked = masked || nonzero < kTileRows;
        ops += nonzero * c.cols;
        kept_p[kept] = b.row(k0 + t);
        for (int r = 0; r < kTileRows; ++r) x[kept][r] = x[t][r];
        ++kept;
      }
      tile<S, kTileRows, kTileCols>(isa, masked, rows, kept_p, x[0], kept, 0,
                                    c.cols);
      continue;
    }
    for (int r = 0; r < mr; ++r) {
      int kept = 0;
      for (int t = 0; t < kb; ++t) {
        if (S::is_zero(x[t][r])) continue;
        kept_p[kept] = b.row(k0 + t);
        x[kept++][r] = x[t][r];
      }
      ops += kept * c.cols;
      row_tile<S>(c.row(i0 + r), kept_p, &x[0][r], kept, c.cols, isa);
    }
  }
  return ops;
}

/// Floyd–Warshall step k alone, in the scalar i-j order.
template <typename S>
std::int64_t fw_step(BlockView a, std::int64_t k, KernelIsa isa) {
  std::int64_t ops = 0;
  for (std::int64_t i = 0; i < a.rows; ++i) {
    const Dist aik = a.row(i)[k];
    if (S::is_zero(aik)) continue;
    relax_row<S>(a.row(i), aik, a.row(k), a.cols, isa);
    ops += a.cols;
  }
  return ops;
}

/// Does step k change pivot row k itself (e.g. a negative min-plus
/// diagonal)?  `d` is row[k].  Says yes for a NaN entry too.
template <typename S>
bool step_changes_own_row(const Dist* row, Dist d, std::int64_t n) {
  if (S::is_zero(d)) return false;
  for (std::int64_t j = 0; j < n; ++j)
    if (S::plus(S::times(d, row[j]), row[j]) != row[j]) return true;
  return false;
}

/// Rows [r0, r1) of `a`; an empty range keeps `a.data`, so no pointer
/// is formed past the end of the block.
inline BlockView rows_of(BlockView a, std::int64_t r0, std::int64_t r1) {
  return {r0 < r1 ? a.row(r0) : a.data, r1 - r0, a.cols, a.ld};
}

/// ClassicalFW in place, up to kStepBlock pivots per pass.  When step k
/// leaves pivot row k unchanged, every row of the k-i-j loop sees row k
/// as it stands after step k − 1.  A pass over pivots k0 .. k0+kb−1 then
/// runs in three phases:
///   1. each pivot row k0 + t, in order, takes steps k0 .. k0+t−1, which
///      leaves it as every other row must see it;
///   2. every other row takes all kb steps through the tile;
///   3. each pivot row, in order, takes its remaining steps, reading the
///      later pivot rows still as phase 1 left them.
/// The pass ends before the first pivot whose own step would change its
/// row; that step then runs alone in k-i-j order.  No heap memory.
template <typename S>
std::int64_t fw_kernel(BlockView a, KernelIsa isa) {
  const std::int64_t n = a.rows;
  const ConstBlockView pivots = as_const(a);
  std::int64_t ops = 0;
  for (std::int64_t k0 = 0; k0 < n;) {
    const int max_kb =
        static_cast<int>(std::min<std::int64_t>(kStepBlock, n - k0));
    int kb = 0;
    bool stopped = false;  // pivot k0 + kb changes its own row
    for (; kb < max_kb; ++kb) {
      const BlockView row = rows_of(a, k0 + kb, k0 + kb + 1);
      ops += apply_steps<S>(row, as_const(row), pivots, k0, kb, true, isa);
      if (step_changes_own_row<S>(row.data, row.data[k0 + kb], n)) {
        stopped = true;
        break;
      }
    }
    // A stopping pivot row has taken this pass's steps in phase 1.
    const std::int64_t band_end = k0 + kb + (stopped ? 1 : 0);
    const BlockView above = rows_of(a, 0, k0), below = rows_of(a, band_end, n);
    ops += apply_steps<S>(above, as_const(above), pivots, k0, kb, true, isa);
    ops += apply_steps<S>(below, as_const(below), pivots, k0, kb, true, isa);
    for (int t = 0; t < kb; ++t) {
      const BlockView row = rows_of(a, k0 + t, k0 + t + 1);
      if (!S::is_zero(row.data[k0 + t])) ops += n;  // own step: no change
      ops += apply_steps<S>(row, as_const(row), pivots, k0 + t + 1,
                            kb - t - 1, true, isa);
    }
    k0 += kb;
    if (stopped) ops += fw_step<S>(a, k0++, isa);
  }
  return ops;
}

/// C ⊕= A ⊗ C: row i reads rows k < i already final and rows k > i not
/// yet updated, so the rows go in order, each taking its non-0̄ steps in
/// k order through the one-row tile, kStepBlock at a time.  Its own step
/// k = i reads the row itself and runs alone.  Out of line, so its
/// arrays stay off the stack under the other forms' tiles (see tile()).
template <typename S>
[[gnu::noinline]] std::int64_t accumulate_rows_kernel(BlockView c,
                                                      ConstBlockView a,
                                                      KernelIsa isa) {
  std::int64_t ops = 0;
  const Dist* p[kStepBlock] = {};
  Dist x[kStepBlock][kTileRows] = {};  // the one-row tile reads lane 0
  for (std::int64_t i = 0; i < c.rows; ++i) {
    Dist* const ci = c.row(i);
    const Dist* const ai = a.row(i);
    int kb = 0;
    const auto flush = [&] {
      row_tile<S>(ci, p, x[0], kb, c.cols, isa);
      kb = 0;
    };
    for (std::int64_t k = 0; k < a.cols; ++k) {
      if (S::is_zero(ai[k])) continue;
      ops += c.cols;
      if (k == i) {
        flush();
        relax_row<S>(ci, ai[k], ci, c.cols, isa);
        continue;
      }
      p[kb] = c.row(k);
      x[kb][0] = ai[k];
      if (++kb == kStepBlock) flush();
    }
    flush();
  }
  return ops;
}

/// C ⊕= A ⊗ B.  A or B, not both, may be C itself; otherwise no operand
/// overlaps C.
template <typename S>
std::int64_t accumulate_kernel(BlockView c, ConstBlockView a,
                               ConstBlockView b, KernelIsa isa) {
  if (b.data == c.data) return accumulate_rows_kernel<S>(c, a, isa);
  const bool live = a.data == c.data;
  std::int64_t ops = 0;
  for (std::int64_t k0 = 0; k0 < a.cols; k0 += kStepBlock) {
    const int kb =
        static_cast<int>(std::min<std::int64_t>(kStepBlock, a.cols - k0));
    ops += apply_steps<S>(c, a, b, k0, kb, live, isa);
  }
  return ops;
}

template <typename S>
std::int64_t fw_counted(BlockView a, KernelIsa isa) {
  CAPSP_CHECK(a.rows == a.cols);
  ProfScope prof("semiring.fw");
  const std::int64_t n = a.rows;
  const std::int64_t ops = fw_kernel<S>(a, isa);
  metrics().counter_add("semiring.kernels.fw_ops", ops);
  metrics().observe("semiring.kernels.block_dim", static_cast<double>(n));
  prof.add_ops(ops);
  prof.add_bytes(n * n * static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

template <typename S>
std::int64_t accumulate_counted(BlockView c, ConstBlockView a,
                                ConstBlockView b, KernelIsa isa) {
  CAPSP_CHECK_MSG(a.cols == b.rows, "inner dims " << a.cols << " vs " << b.rows);
  CAPSP_CHECK(c.rows == a.rows && c.cols == b.cols);
  ProfScope prof("semiring.accumulate");
  const std::int64_t m = a.rows, kk = a.cols, nn = b.cols;
  // An all-0̄ operand contributes nothing: the product is empty and the
  // whole multiply is skipped (the sparsity saving of Sec. 4.1).  The
  // O(k·n) scan is negligible against the O(m·k·n) multiply it can avoid.
  if (m == 0 || nn == 0) return 0;
  CAPSP_CHECK(a.data != c.data || b.data != c.data);
  if (all_zero<S>(b)) {
    metrics().counter_add("semiring.kernels.empty_skips");
    return 0;
  }
  const std::int64_t ops = accumulate_kernel<S>(c, a, b, isa);
  metrics().counter_add("semiring.kernels.minplus_ops", ops);
  prof.add_ops(ops);
  prof.add_bytes((m * kk + kk * nn + m * nn) *
                 static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

/// BlockedFW on tiles of `a` in place: diagonal update, panel updates,
/// then the outer product, each through the counted kernels above.
template <typename S>
std::int64_t blocked_fw_counted(BlockView a, std::int64_t tile,
                                KernelIsa isa) {
  CAPSP_CHECK(a.rows == a.cols);
  CAPSP_CHECK(tile >= 1);
  ProfScope prof("semiring.blocked_fw");
  const std::int64_t n = a.rows;
  const std::int64_t nb = (n + tile - 1) / tile;
  auto at = [&](std::int64_t bi, std::int64_t bj) {
    const std::int64_t r0 = bi * tile, c0 = bj * tile;
    return BlockView{a.row(r0) + c0, std::min(tile, n - r0),
                     std::min(tile, n - c0), a.ld};
  };
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < nb; ++k) {
    const BlockView akk = at(k, k);
    ops += fw_counted<S>(akk, isa);
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      const BlockView aik = at(i, k), aki = at(k, i);
      ops += accumulate_counted<S>(aik, as_const(aik), as_const(akk), isa);
      ops += accumulate_counted<S>(aki, as_const(akk), as_const(aki), isa);
    }
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      const ConstBlockView aik = as_const(at(i, k));
      if (all_zero<S>(aik)) {
        metrics().counter_add("semiring.kernels.empty_skips");
        continue;  // empty block: skip the whole row
      }
      for (std::int64_t j = 0; j < nb; ++j) {
        if (j == k) continue;
        ops += accumulate_counted<S>(at(i, j), aik, as_const(at(k, j)), isa);
      }
    }
  }
  return ops;
}

}  // namespace detail

/// ClassicalFW: in-place Floyd–Warshall over semiring S on a square block
/// (a(i,j) ⊕= a(i,k) ⊗ a(k,j) for all k, i, j); after the call a(i,j) is
/// the best i→j path value using intermediates inside the block.
template <typename S>
std::int64_t semiring_fw(DistBlock& a) {
  return detail::fw_counted<S>(detail::view_of(a), kernel_isa());
}

/// True iff every entry of `a` is 0̄ (the paper's "empty block").
template <typename S>
bool semiring_all_zero(const DistBlock& a) {
  return detail::all_zero<S>(detail::view_of(a));
}

/// C ← C ⊕ A ⊗ B over semiring S.  Shapes: C is (A.rows × B.cols),
/// A.cols == B.rows.  A or B, not both, may be C itself (the panel
/// updates), with the i-k-j loop's semantics: entries are read as that
/// loop finds them.
template <typename S>
std::int64_t semiring_accumulate(DistBlock& c, const DistBlock& a,
                                 const DistBlock& b) {
  const detail::BlockView cv = detail::view_of(c);  // first: see Aliasing
  return detail::accumulate_counted<S>(cv, detail::view_of(a),
                                       detail::view_of(b), kernel_isa());
}

/// BlockedFW (Sec. 3.3) over semiring S: Floyd–Warshall over an n×n block
/// with internal tile size `tile` — diagonal update, panel updates, then
/// the outer product, in place on tiles of `a`.
template <typename S>
std::int64_t semiring_blocked_fw(DistBlock& a, std::int64_t tile) {
  return detail::blocked_fw_counted<S>(detail::view_of(a), tile,
                                       kernel_isa());
}

/// c ← c ⊕ other elementwise over semiring S (the reduce combiner).
template <typename S>
void semiring_elementwise_plus(DistBlock& c, const DistBlock& other) {
  CAPSP_CHECK(c.rows() == other.rows() && c.cols() == other.cols());
  ProfScope prof("semiring.combine");
  const std::span<Dist> cd = c.data();  // first: see Aliasing
  const std::span<const Dist> od = other.data();
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
