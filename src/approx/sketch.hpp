// Landmark distance sketches — the approximate tier of the serving
// stack (docs/serving.md, "Tiered serving").
//
// A sketch is a small set of landmark vertices plus one exact
// landmark→all distance row per landmark.  From those rows every pair
// (u, v) gets a certified interval by the triangle inequality:
//
//   upper(u, v) = min over landmarks L of  d(L, u) + d(L, v)
//   lower(u, v) = max over landmarks L of |d(L, u) - d(L, v)|
//
// and lower ≤ d(u, v) ≤ upper always holds, so the approximate tier can
// answer with an honest error bar and escalate to the exact tile path
// only when the interval is too wide for the caller's stretch budget.
// If u or v is itself a landmark the interval collapses to the exact
// distance, so landmark-heavy query mixes get exact answers for free.
//
// Landmark quality decides how tight the intervals are.  Separator
// vertices of the nested-dissection hierarchy (src/partition) are the
// natural choice for this codebase: every shortest path that crosses a
// bisection runs through its separator, so the top few separator levels
// cover many paths by construction.  For graphs without an ND ordering
// a degree/coverage heuristic picks hubs instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "partition/nested_dissection.hpp"
#include "semiring/dist.hpp"

namespace capsp {

/// A certified distance interval: lower ≤ exact ≤ upper.  Both ends are
/// kInf when the sketch proves the pair disconnected; lower == upper
/// means the sketch resolved the pair exactly.
struct DistanceBound {
  Dist lower = 0;
  Dist upper = kInf;

  /// True when the interval pins the exact distance (including the
  /// both-infinite "provably disconnected" case).
  bool exact() const { return lower == upper || (is_inf(lower) && is_inf(upper)); }

  /// Relative width (upper - lower) / lower — the "stretch gap" the
  /// tiered service compares against a budget.  0 for an exact
  /// interval; kInf when lower is 0 but upper is not (nothing certified).
  double gap() const {
    if (exact()) return 0;
    if (lower <= 0 || is_inf(upper)) return kInf;
    return (upper - lower) / lower;
  }
};

/// How landmarks are chosen and how many.
struct SketchOptions {
  /// Hard cap on the number of landmarks (rows cost O(n) memory each).
  std::int64_t max_landmarks = 64;
  /// ND selection: take separator vertices from this many elimination-tree
  /// levels, starting at the root.  Leaves are never separators.
  int top_levels = 2;
};

/// The sketch itself: landmark ids (original vertex numbering, strictly
/// ascending) and an L × n row-major matrix of exact landmark→all
/// distances.  Plain data so the CAPSPAX2 reader/writer (sketch_io) can
/// round-trip it bit-exactly.
struct LandmarkSketch {
  std::int64_t n = 0;                ///< vertices in the sketched graph
  std::vector<Vertex> landmarks;     ///< ascending original vertex ids
  std::vector<Dist> rows;            ///< landmarks.size() × n, row-major

  std::int64_t num_landmarks() const {
    return static_cast<std::int64_t>(landmarks.size());
  }

  std::span<const Dist> row(std::int64_t i) const {
    return std::span<const Dist>(rows).subspan(
        static_cast<std::size_t>(i * n), static_cast<std::size_t>(n));
  }

  /// The certified interval for (u, v) in O(num_landmarks()).
  ///   * u == v → {0, 0};
  ///   * a landmark reaching exactly one of u, v proves them
  ///     disconnected → {kInf, kInf};
  ///   * no landmark reaches either → nothing certified, {0, kInf}.
  DistanceBound bounds(Vertex u, Vertex v) const;

  /// Fill `out[v]` with the upper bound from u to every v (out[u] = 0).
  /// One O(L·n) pass shared by the approximate k-nearest scan.
  void upper_bounds_from(Vertex u, std::vector<Dist>& out) const;
};

/// Landmarks from the top `options.top_levels` separator levels of an
/// ND hierarchy, root level first, each level in ascending vertex order.
/// A level that would overflow `max_landmarks` contributes an
/// evenly-strided subset, so the pick is deterministic.
std::vector<Vertex> select_landmarks(const Graph& graph, const Dissection& nd,
                                     const SketchOptions& options = {});

/// Fallback for graphs without an ND ordering: highest-degree vertices,
/// with a first pass that skips neighbors of already-chosen landmarks so
/// the hubs spread out, then a degree-order fill of any remaining
/// budget.  Ties break on vertex id, so the pick is deterministic.
std::vector<Vertex> select_landmarks(const Graph& graph,
                                     const SketchOptions& options = {});

/// Compute the distance rows for an explicit landmark set (deduplicated
/// and sorted).  Uses Dijkstra per landmark, or Bellman-Ford when the
/// graph has negative edge weights — the same dispatch as
/// reference_apsp, so rows match the exact oracle bit-for-bit.
LandmarkSketch build_sketch(const Graph& graph,
                            std::vector<Vertex> landmarks);

/// select_landmarks + build_sketch in one call.
LandmarkSketch build_sketch(const Graph& graph, const Dissection& nd,
                            const SketchOptions& options = {});
LandmarkSketch build_sketch(const Graph& graph,
                            const SketchOptions& options = {});

}  // namespace capsp
