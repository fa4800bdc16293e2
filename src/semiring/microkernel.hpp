// The register-blocked relaxation tile under every cubic semiring kernel
// (semirings.hpp), the built-in semiring policies it runs on, and the
// choice of its compiled copy.  It needs nothing but the Dist scalar, so
// the profiler's roof probe and the build provenance (src/util) run it
// and name the copy in use without linking the semiring library.
//
// The tile holds MR × NC target entries in registers while up to
// kStepBlock relaxation steps stream past:
//
//   for t in 0 .. kb-1:  c[r][j] = plus(times(x[t][r], p[t][j]), c[r][j])
//
// x holds kTileRows multipliers per step, x[t][r] at x[t·kTileRows + r],
// whatever the tile's height: the one-row tile reads lane 0 of that
// layout, so a row of a 4-row block can run alone on its own lane.
//
// Steps run in t order for every entry, so each entry sees its candidates
// in the order of the plain one-step-at-a-time loop; only rows r and
// columns j are blocked.  Two shapes share one body: 4×8 for blocks of
// rows, and 1×32 for a row that must run alone.  Every ⊕ is a branchless
// select, which is exact because of the policy contract stated in
// semirings.hpp.  The tile is compiled twice, portable and with AVX2, and
// kernel_isa() picks one per process from the host CPU.
#pragma once

#include <cstdint>
#include <cstring>

#include "semiring/dist.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define CAPSP_KERNELS_X86 1
#else
#define CAPSP_KERNELS_X86 0
#endif

namespace capsp {

/// The (⊗, ⊕) pair of a built-in semiring, which lets the tile evaluate
/// it on SIMD lanes.  A policy without a `lanes` member (a user-defined
/// semiring) runs the same tiles one scalar at a time through its own
/// times/plus.
enum class SemiringLanes {
  kAddMin,  ///< ⊗ = +, ⊕ = min
  kMinMax,  ///< ⊗ = min, ⊕ = max
};

/// Tropical (min, +): shortest paths.  The default everywhere else.
struct MinPlusSemiring {
  static constexpr SemiringLanes lanes = SemiringLanes::kAddMin;
  static constexpr Dist zero() { return kInf; }
  static constexpr Dist one() { return 0; }
  static constexpr Dist plus(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a + b; }
  static constexpr bool is_zero(Dist a) { return a == kInf; }
};

/// (max, min): bottleneck / widest paths — the value of a path is its
/// smallest edge capacity; the problem maximizes it.
struct MaxMinSemiring {
  static constexpr SemiringLanes lanes = SemiringLanes::kMinMax;
  static constexpr Dist zero() { return 0; }
  static constexpr Dist one() { return kInf; }
  static constexpr Dist plus(Dist a, Dist b) { return a > b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr bool is_zero(Dist a) { return a <= 0; }
};

/// Boolean (∨, ∧) on {0, 1}: transitive closure / reachability.
/// Numerically identical to MaxMin restricted to {0, 1}, but kept as its
/// own policy so intent is explicit and 1̄ is finite.
struct BoolSemiring {
  static constexpr SemiringLanes lanes = SemiringLanes::kMinMax;
  static constexpr Dist zero() { return 0; }
  static constexpr Dist one() { return 1; }
  static constexpr Dist plus(Dist a, Dist b) { return a > b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr bool is_zero(Dist a) { return a <= 0; }
};

/// Instruction set of the compiled tile copies.
enum class KernelIsa { kPortable, kAvx2 };

/// Can this host run `isa`?  (AVX2 needs CPU and OS support.)
inline bool kernel_isa_supported(KernelIsa isa) {
  if (isa == KernelIsa::kPortable) return true;
#if CAPSP_KERNELS_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// The copy the kernels run on this host, decided once per process.
inline KernelIsa kernel_isa() {
  static const KernelIsa isa = kernel_isa_supported(KernelIsa::kAvx2)
                                   ? KernelIsa::kAvx2
                                   : KernelIsa::kPortable;
  return isa;
}

inline const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "portable";
}

namespace detail {

inline constexpr int kTileRows = 4;      ///< rows of the block tile
inline constexpr int kTileCols = 8;      ///< columns of the block tile
inline constexpr int kRowTileCols = 32;  ///< columns of the one-row tile
inline constexpr int kStepBlock = 32;    ///< steps applied per pass over c

/// Four Dist lanes (GCC/Clang vector extension): one AVX2 register, or
/// two SSE2 registers in the portable copy.
typedef Dist Lanes4 __attribute__((vector_size(32)));

/// acc = plus(times(a, p), acc) on each lane of a policy with `lanes`.
template <typename S>
[[gnu::always_inline]] inline void relax_lanes(const Lanes4& a,
                                               const Lanes4& p, Lanes4& acc) {
  if constexpr (S::lanes == SemiringLanes::kAddMin) {
    const Lanes4 cand = a + p;
    acc = cand < acc ? cand : acc;
  } else {
    const Lanes4 cand = a < p ? a : p;
    acc = cand > acc ? cand : acc;
  }
}

/// One pass of the tile: steps t < kb, in t order, on MR rows of NV
/// column vectors, held in registers throughout:
///   c[r][j] ⊕= x[t·kTileRows + r] ⊗ p[t][j]
/// for the four columns j of each vector, skipping 0̄ x when kMasked.
/// Vector v < NV − 1 starts at column j0 + 4v, the last at `last`, which
/// may overlap the one before it: both then compute the same values from
/// the same operands and store the same bits.
template <typename S, int MR, int NV, bool kMasked>
[[gnu::always_inline]] inline void tile_pass(Dist* const* c,
                                             const Dist* const* p,
                                             const Dist* x, int kb,
                                             std::int64_t j0,
                                             std::int64_t last) {
  const auto col = [&](int v) { return v + 1 < NV ? j0 + 4 * v : last; };
  Lanes4 acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      std::memcpy(&acc[r][v], c[r] + col(v), sizeof(Lanes4));
  for (int t = 0; t < kb; ++t) {
    Lanes4 pv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      std::memcpy(&pv[v], p[t] + col(v), sizeof(Lanes4));
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const Dist a = x[t * kTileRows + r];
      if (kMasked && S::is_zero(a)) continue;
      const Lanes4 av = {a, a, a, a};
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) relax_lanes<S>(av, pv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      std::memcpy(c[r] + col(v), &acc[r][v], sizeof(Lanes4));
}

/// tile_pass over columns [j0, j1), 4 <= j1 − j0 <= 4·NV, with the
/// fewest vectors that cover them.
template <typename S, int MR, int NV, bool kMasked>
[[gnu::always_inline]] inline void tile_tail(Dist* const* c,
                                             const Dist* const* p,
                                             const Dist* x, int kb,
                                             std::int64_t j0,
                                             std::int64_t j1) {
  if constexpr (NV > 1) {
    if (j1 - j0 <= 4 * (NV - 1)) {
      tile_tail<S, MR, NV - 1, kMasked>(c, p, x, kb, j0, j1);
      return;
    }
  }
  tile_pass<S, MR, NV, kMasked>(c, p, x, kb, j0, j1 - 4);
}

/// The MR × NC tile (NC a multiple of 4, at least 8).  For rows r < MR
/// and steps t < kb, in t order:
///   c[r][j] ⊕= x[t·kTileRows + r] ⊗ p[t][j]   for j in [j0, j1),
/// skipping 0̄ x when kMasked (callers pass kMasked = false only when no x
/// is 0̄).  Passes of NC columns run while more than NC + 3 are left;
/// the rest, never fewer than 4, run in one or two passes whose last
/// vector overlaps the one before it, so no column runs alone.  Only a
/// row of fewer than 4 columns, or a policy without `lanes`, runs one
/// scalar at a time.  A p[t] may equal c[0] only when kb == 1: each
/// entry then reads only its own old value.
template <typename S, int MR, int NC, bool kMasked>
[[gnu::always_inline]] inline void tile_body(Dist* const* c,
                                             const Dist* const* p,
                                             const Dist* x, int kb,
                                             std::int64_t j0,
                                             std::int64_t j1) {
  static_assert(NC % 4 == 0 && NC >= 8);
  std::int64_t j = j0;
  if constexpr (requires { S::lanes; }) {
    if (j1 - j0 >= 4) {
      for (; j1 - j > NC + 3 || j1 - j == NC; j += NC)
        tile_pass<S, MR, NC / 4, kMasked>(c, p, x, kb, j, j + NC - 4);
      if (j1 - j > NC) {  // NC + 1 .. NC + 3 left: NC − 3 .. NC − 1, then 4
        tile_tail<S, MR, NC / 4, kMasked>(c, p, x, kb, j, j1 - 4);
        j = j1 - 4;
      }
      if (j < j1) tile_tail<S, MR, NC / 4, kMasked>(c, p, x, kb, j, j1);
      return;
    }
  }
  for (; j < j1; ++j) {
    for (int r = 0; r < MR; ++r) {
      Dist acc = c[r][j];
      for (int t = 0; t < kb; ++t) {
        const Dist a = x[t * kTileRows + r];
        if (kMasked && S::is_zero(a)) continue;
        acc = S::plus(S::times(a, p[t][j]), acc);
      }
      c[r][j] = acc;
    }
  }
}

// The compiled copies of the tile, and of the replay below, are out of
// line.  Every rank runs on its own small fiber stack (DESIGN.md decision
// 15), and a copy inlined into its dispatch would put its spilled vectors
// into the dispatch's frame, under the other copy's frame too.
#if CAPSP_KERNELS_X86
template <typename S, int MR, int NC, bool kMasked>
[[gnu::target("avx2")]] void tile_avx2(Dist* const* c, const Dist* const* p,
                                       const Dist* x, int kb, std::int64_t j0,
                                       std::int64_t j1) {
  tile_body<S, MR, NC, kMasked>(c, p, x, kb, j0, j1);
}
#endif

template <typename S, int MR, int NC, bool kMasked>
[[gnu::noinline]] void tile_portable(Dist* const* c, const Dist* const* p,
                                     const Dist* x, int kb, std::int64_t j0,
                                     std::int64_t j1) {
  tile_body<S, MR, NC, kMasked>(c, p, x, kb, j0, j1);
}

/// tile_body on the `isa` copy; `masked` says whether any x may be 0̄.
template <typename S, int MR, int NC>
void tile(KernelIsa isa, bool masked, Dist* const* c, const Dist* const* p,
          const Dist* x, int kb, std::int64_t j0, std::int64_t j1) {
  if (j0 >= j1 || kb == 0) return;
#if CAPSP_KERNELS_X86
  if (isa == KernelIsa::kAvx2) {
    if (masked)
      tile_avx2<S, MR, NC, true>(c, p, x, kb, j0, j1);
    else
      tile_avx2<S, MR, NC, false>(c, p, x, kb, j0, j1);
    return;
  }
#else
  (void)isa;
#endif
  if (masked)
    tile_portable<S, MR, NC, true>(c, p, x, kb, j0, j1);
  else
    tile_portable<S, MR, NC, false>(c, p, x, kb, j0, j1);
}

/// The replay of a live block of steps on a tile's rows, one row per
/// lane: for s < t < kb, in s order,
///   x[t][r] ⊕= x[s][r] ⊗ q,   q = q0[s·ld + t],   skipping 0̄ x[s][r],
/// where q0 points at the block's diagonal entry of the right operand,
/// so each x[t] ends as step t finds it.  A 0̄ lane of x[s] relaxes with
/// a value that leaves every target's bits unchanged, whatever q is
/// (+inf under (min, +), where a + q is +inf or NaN; −inf under
/// (max, min), where min(a, q) is −inf or NaN): under MaxMin an x ≤ 0 is
/// 0̄, but min(x, q) is not neutral under max.
template <typename S>
[[gnu::always_inline]] inline void replay_body(Dist (*x)[kTileRows],
                                               const Dist* q0,
                                               std::int64_t ld, int kb) {
  for (int s = 0; s + 1 < kb; ++s) {  // x[s] is final: apply step s
    const Dist* qs = q0 + s * ld;
    if constexpr (requires { S::lanes; }) {
      constexpr Dist kSkip =
          S::lanes == SemiringLanes::kAddMin ? kInf : -kInf;
      alignas(Lanes4) Dist lanes[kTileRows];
      bool any = false;
      for (int r = 0; r < kTileRows; ++r) {
        const bool zero = S::is_zero(x[s][r]);
        lanes[r] = zero ? kSkip : x[s][r];
        any = any || !zero;
      }
      if (!any) continue;
      Lanes4 xs;
      std::memcpy(&xs, lanes, sizeof xs);
      for (int t = s + 1; t < kb; ++t) {
        Lanes4 v;
        std::memcpy(&v, x[t], sizeof v);
        relax_lanes<S>(xs, Lanes4{qs[t], qs[t], qs[t], qs[t]}, v);
        std::memcpy(x[t], &v, sizeof v);
      }
    } else {
      for (int r = 0; r < kTileRows; ++r) {
        if (S::is_zero(x[s][r])) continue;
        for (int t = s + 1; t < kb; ++t)
          x[t][r] = S::plus(S::times(x[s][r], qs[t]), x[t][r]);
      }
    }
  }
}

#if CAPSP_KERNELS_X86
template <typename S>
[[gnu::target("avx2")]] void replay_avx2(Dist (*x)[kTileRows],
                                         const Dist* q0, std::int64_t ld,
                                         int kb) {
  replay_body<S>(x, q0, ld, kb);
}
#endif

template <typename S>
[[gnu::noinline]] void replay_portable(Dist (*x)[kTileRows], const Dist* q0,
                                       std::int64_t ld, int kb) {
  replay_body<S>(x, q0, ld, kb);
}

/// replay_body on the `isa` copy.
template <typename S>
void replay(KernelIsa isa, Dist (*x)[kTileRows], const Dist* q0,
            std::int64_t ld, int kb) {
#if CAPSP_KERNELS_X86
  if (isa == KernelIsa::kAvx2) {
    replay_avx2<S>(x, q0, ld, kb);
    return;
  }
#else
  (void)isa;
#endif
  replay_portable<S>(x, q0, ld, kb);
}

/// The 1×32 tile on one row: steps t < kb, none with a 0̄ x, the
/// multiplier of step t at x[t·kTileRows].
template <typename S>
void row_tile(Dist* c, const Dist* const* p, const Dist* x, int kb,
              std::int64_t n, KernelIsa isa) {
  tile<S, 1, kRowTileCols>(isa, false, &c, p, x, kb, 0, n);
}

/// One step on one row: c[j] ⊕= a ⊗ p[j] for j in [0, n).  `p` may be `c`.
template <typename S>
void relax_row(Dist* c, Dist a, const Dist* p, std::int64_t n,
               KernelIsa isa) {
  row_tile<S>(c, &p, &a, 1, n, isa);
}

}  // namespace detail

}  // namespace capsp
