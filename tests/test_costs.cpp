// Empirical validation of the paper's cost claims (Sec. 5.4, Table 2, and
// the Sec. 6 lower bounds) on the metered machine.  These tests assert
// *shapes* — growth rates, orderings, decompositions — not absolute
// constants, mirroring how EXPERIMENTS.md reads the bench output.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/dc_apsp.hpp"
#include "baseline/fw2d.hpp"
#include "core/regions.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "util/fit.hpp"

namespace capsp {
namespace {

SparseApspResult run_sparse(const Graph& graph, int height) {
  SparseApspOptions options;
  options.height = height;
  options.collect_distances = false;
  return run_sparse_apsp(graph, options);
}

TEST(Costs, Theorem57LatencyIsPolylogarithmic) {
  // L = O(log² p): per-level latency must be O(log p) = O(h), so the total
  // over h levels is O(h²).  Fit L against h² and require that the
  // normalized ratio stays flat (within 2x) while p grows 25x.
  Rng rng(1);
  const Graph graph = make_grid2d(20, 20, rng);
  std::vector<double> ratio;
  for (int h : {2, 3, 4}) {
    const auto result = run_sparse(graph, h);
    ratio.push_back(result.costs.critical_latency /
                    static_cast<double>(h * h));
  }
  for (double r : ratio) {
    EXPECT_GT(r, ratio[0] / 2);
    EXPECT_LT(r, ratio[0] * 2);
  }
}

TEST(Costs, LatencyExponentSeparatesSparseFromDc) {
  // At p <= 256 a pure log²p curve has an apparent power-law exponent of
  // about 2/ln(p) ≈ 0.4-0.5, so raw exponents cannot distinguish log²p
  // from √p at small scale.  The discriminating signal is the *gap*: DC's
  // √p·log²p adds ~0.5 to the exponent.  Assert both the individual
  // ranges and the gap.
  Rng rng(2);
  const Graph graph = make_grid2d(20, 20, rng);
  std::vector<double> p_values, latency;
  for (int h : {2, 3, 4}) {
    const auto result = run_sparse(graph, h);
    p_values.push_back(result.num_ranks);
    latency.push_back(result.costs.critical_latency);
  }
  const LinearFit sparse_fit = power_law_fit(p_values, latency);

  Rng rng2(3);
  const Graph graph2 = make_grid2d(16, 16, rng2);
  std::vector<double> dc_p, dc_latency;
  for (int q : {2, 4, 8}) {
    const auto result = run_dc_apsp(graph2, q);
    dc_p.push_back(q * q);
    dc_latency.push_back(result.costs.critical_latency);
  }
  const LinearFit dc_fit = power_law_fit(dc_p, dc_latency);

  EXPECT_LT(sparse_fit.slope, 0.6) << "sparse latency grows too fast";
  EXPECT_GT(dc_fit.slope, 0.8);  // ~0.5 (√p) + ~0.5 (log²p at small p)
  EXPECT_LT(dc_fit.slope, 1.4);
  EXPECT_GT(dc_fit.slope - sparse_fit.slope, 0.35)
      << "√p separation between DC and sparse latency not visible";
}

TEST(Costs, SparseLatencyBeatsDcByAboutSqrtP) {
  // Table 2 headline: L ratio ≈ √p / polylog, so it must grow with p.
  Rng rng(4);
  const Graph graph = make_grid2d(16, 16, rng);
  const double ratio_small =
      run_dc_apsp(graph, 4).costs.critical_latency /
      run_sparse(graph, 2).costs.critical_latency;  // p = 16 vs 9
  const double ratio_large =
      run_dc_apsp(graph, 16).costs.critical_latency /
      run_sparse(graph, 4).costs.critical_latency;  // p = 256 vs 225
  EXPECT_GT(ratio_large, ratio_small);
  EXPECT_GT(ratio_large, 4.0);
}

TEST(Costs, SparseBandwidthDecreasesWithP) {
  // B = O(n² log²p / p + |S|² log²p): for a grid (|S| small) the first
  // term dominates, so B should clearly fall as p grows.
  Rng rng(5);
  const Graph graph = make_grid2d(24, 24, rng);
  const double b2 = run_sparse(graph, 2).costs.critical_bandwidth;
  const double b4 = run_sparse(graph, 4).costs.critical_bandwidth;
  EXPECT_LT(b4, b2 / 2);
}

TEST(Costs, SparseBandwidthBeatsDcOnSparseGraphs) {
  Rng rng(6);
  const Graph graph = make_grid2d(20, 20, rng);
  const double sparse = run_sparse(graph, 4).costs.critical_bandwidth;
  const double dense = run_dc_apsp(graph, 16).costs.critical_bandwidth;
  EXPECT_LT(sparse, dense / 3);
}

TEST(Costs, MemoryMatchesSection541) {
  // M = O(n²/p + |S|²): the largest block is the max of the leaf block
  // (~(2n/√p)²) and the separator block (|S|²).
  Rng rng(7);
  const Graph graph = make_grid2d(24, 24, rng);
  for (int h : {2, 3, 4}) {
    const auto result = run_sparse(graph, h);
    const double n = graph.num_vertices();
    const double sqrt_p = std::sqrt(static_cast<double>(result.num_ranks));
    const double s = result.separator_size;
    const double bound = 3 * (2 * n / sqrt_p) * (2 * n / sqrt_p) + 3 * s * s;
    EXPECT_LE(static_cast<double>(result.max_block_words), bound)
        << "h=" << h;
  }
}

TEST(Costs, PerLevelLatencyIsLogP) {
  // Lemma 5.6 via a proxy: per-level *max-rank* message volume — each
  // rank participates in O(1) collectives per level, each of depth
  // O(log p).
  Rng rng(8);
  const Graph graph = make_grid2d(20, 20, rng);
  const auto result = run_sparse(graph, 4);
  const int h = result.height;
  const double log_p = std::log2(static_cast<double>(result.num_ranks));
  for (int l = 1; l <= h; ++l) {
    for (int region = 2; region <= 4; ++region) {
      const std::string phase = region_phase(l, region);
      if (!result.costs.phase_max_rank.count(phase)) continue;
      const auto volume = result.costs.phase_max_rank.at(phase);
      EXPECT_LE(volume.messages, 6 * log_p) << phase;
    }
  }
}

TEST(Costs, Lemma56PerLevelCriticalLatencyDirectly) {
  // Lemma 5.6 measured directly: the critical-path clock is snapshotted
  // after every level; successive differences are the per-level latency
  // costs L_l, each of which must be O(log p).
  Rng rng(15);
  const Graph graph = make_grid2d(20, 20, rng);
  for (int h : {3, 4, 5}) {
    const auto result = run_sparse(graph, h);
    ASSERT_EQ(result.clock_after_level.size(),
              static_cast<std::size_t>(h));
    const double log_p = std::log2(static_cast<double>(result.num_ranks));
    double previous = 0;
    for (int l = 1; l <= h; ++l) {
      const double after =
          result.clock_after_level[static_cast<std::size_t>(l - 1)].latency;
      const double level_latency = after - previous;
      EXPECT_GE(level_latency, 0) << "h=" << h << " l=" << l;
      EXPECT_LE(level_latency, 5 * log_p + 4) << "h=" << h << " l=" << l;
      previous = after;
    }
    // The snapshots must be consistent with the total.
    EXPECT_EQ(result.clock_after_level.back().latency,
              result.costs.critical_latency);
  }
}

TEST(Costs, BandwidthDecompositionByRegion) {
  // Lemmas 5.8/5.9: level-1 R² moves the big leaf diagonal blocks
  // (O(n²/p·log p) words per rank); upper levels move separator-sized
  // blocks.  Check the level-1 R2 volume dominates the top level's R2.
  Rng rng(9);
  const Graph graph = make_grid2d(24, 24, rng);
  const auto result = run_sparse(graph, 3);
  const auto& peak = result.costs.phase_max_rank;
  ASSERT_TRUE(peak.count("L1/R2"));
  ASSERT_TRUE(peak.count("L3/R2"));
  EXPECT_GT(peak.at("L1/R2").words, peak.at("L3/R2").words);
  // Level 1 has no R³ (leaves have no descendants, so R³_1 = ∅ — D(k) is
  // empty); its ancestor-directed traffic is all R⁴.  R³ first appears at
  // level 2.
  EXPECT_FALSE(peak.count("L1/R3"));
  ASSERT_TRUE(peak.count("L1/R4"));
  EXPECT_GT(peak.at("L1/R4").words, 0);
  ASSERT_TRUE(peak.count("L2/R3"));
  EXPECT_GT(peak.at("L2/R3").words, 0);
}

TEST(Costs, R1NeverCommunicates) {
  Rng rng(10);
  const Graph graph = make_grid2d(12, 12, rng);
  const auto result = run_sparse(graph, 3);
  for (const auto& [phase, volume] : result.costs.phase_total) {
    if (phase.find("R1") != std::string::npos) {
      EXPECT_EQ(volume.messages, 0) << phase;
    }
  }
}

TEST(Costs, LowerBoundsRespected) {
  // Sec. 6: B = Ω(n²/p + |S|²) and L = Ω(log² p).  The measured costs
  // must sit above the lower bound (sanity of the metering) and within a
  // polylog factor of it (near-optimality, Table 2's last column).
  Rng rng(11);
  const Graph graph = make_grid2d(24, 24, rng);
  for (int h : {2, 3, 4}) {
    const auto result = run_sparse(graph, h);
    const double n = graph.num_vertices();
    const double p = result.num_ranks;
    const double s = result.separator_size;
    const double log_p = std::log2(p);
    const double bw_lower = n * n / p + s * s;
    const double lat_lower = log_p * log_p;
    EXPECT_GE(result.costs.critical_bandwidth, 0.1 * bw_lower);
    EXPECT_LE(result.costs.critical_bandwidth,
              40 * log_p * log_p * bw_lower);
    EXPECT_GE(result.costs.critical_latency, 0.2 * lat_lower);
    EXPECT_LE(result.costs.critical_latency, 10 * lat_lower);
  }
}

TEST(Costs, BlockCyclicLatencyPenalty) {
  // Sec. 5.1's argument against block-cyclic layouts: more block rows on
  // the same grid force the diagonal owners into sequential broadcasts,
  // inflating latency roughly linearly in blocks_per_dim.
  Rng rng(12);
  const Graph graph = make_grid2d(8, 8, rng);
  const double l_block = run_fw2d(graph, 2, 2).costs.critical_latency;
  const double l_cyclic4 = run_fw2d(graph, 2, 8).costs.critical_latency;
  const double l_cyclic16 = run_fw2d(graph, 2, 32).costs.critical_latency;
  EXPECT_GT(l_cyclic4, 2 * l_block);
  EXPECT_GT(l_cyclic16, 3 * l_cyclic4);
}

TEST(Costs, SeparatorSizeDrivesBandwidth) {
  // Sec. 5.5: everything else fixed, a family with larger separators pays
  // more bandwidth.  Grid (|S| = Θ(√n)) vs Erdős–Rényi (|S| = Θ(n)).
  Rng rng(13);
  const Graph grid = make_grid2d(20, 20, rng);
  const Graph er = make_erdos_renyi(400, 8.0, rng);
  const auto grid_result = run_sparse(grid, 3);
  const auto er_result = run_sparse(er, 3);
  EXPECT_LT(grid_result.separator_size, er_result.separator_size / 2);
  EXPECT_LT(grid_result.costs.critical_bandwidth,
            er_result.costs.critical_bandwidth);
}

TEST(Costs, TotalVolumeBoundedByPTimesCriticalPath) {
  // Internal consistency of the cost model: total volume <= p * per-rank
  // critical values is not guaranteed in general, but total messages must
  // be at least the critical latency, and max-rank volume at most total.
  Rng rng(14);
  const Graph graph = make_grid2d(16, 16, rng);
  const auto result = run_sparse(graph, 3);
  EXPECT_GE(static_cast<double>(result.costs.total_messages),
            result.costs.critical_latency);
  EXPECT_LE(result.costs.max_rank_words, result.costs.total_words);
  EXPECT_GE(result.costs.total_words, result.costs.critical_bandwidth);
}

}  // namespace
}  // namespace capsp
