// Exact communication and work counts of the two block-cyclic dense
// baselines (2D Floyd–Warshall and 2D-DC-APSP), pinned to recorded
// constants.  The other suites check only orderings and growth rates for
// these baselines, and the bench records hold only the sparse and
// block-layout DC rows, so a refactor that moves one message of either
// baseline fails here and nowhere else.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

#include "baseline/dc_cyclic.hpp"
#include "baseline/fw2d.hpp"
#include "graph/generators.hpp"

namespace capsp {
namespace {

/// 64-bit FNV-1a over the bit patterns of every distance, row-major.
std::uint64_t distance_fingerprint(const DistBlock& distances) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Dist d : distances.data()) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int s = 0; s < 64; s += 8) {
      hash ^= (bits >> s) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Every count one run reports, in the order of the table below.
struct Counts {
  std::int64_t latency, bandwidth;
  std::int64_t messages, words, max_rank_messages, max_rank_words;
  std::int64_t apsp_messages, apsp_words, apsp_max_messages, apsp_max_words;
  std::int64_t collect_messages, collect_words, collect_max_messages,
      collect_max_words;
  std::int64_t setup_messages;
  std::int64_t ops_sum, ops_max;
  std::uint64_t distances;

  bool operator==(const Counts&) const = default;
};

Counts counts_of(const DistributedApspResult& result) {
  const CostReport& costs = result.costs;
  const auto volume = [](const std::map<std::string, PhaseVolume>& table,
                         const std::string& phase) {
    const auto it = table.find(phase);
    return it == table.end() ? PhaseVolume{} : it->second;
  };
  const PhaseVolume apsp = volume(costs.phase_total, "apsp");
  const PhaseVolume apsp_max = volume(costs.phase_max_rank, "apsp");
  const PhaseVolume collect = volume(costs.phase_total, "collect");
  const PhaseVolume collect_max = volume(costs.phase_max_rank, "collect");
  const auto& ops = result.ops_per_rank;
  return {static_cast<std::int64_t>(costs.critical_latency),
          static_cast<std::int64_t>(costs.critical_bandwidth),
          costs.total_messages,
          costs.total_words,
          costs.max_rank_messages,
          costs.max_rank_words,
          apsp.messages,
          apsp.words,
          apsp_max.messages,
          apsp_max.words,
          collect.messages,
          collect.words,
          collect_max.messages,
          collect_max.words,
          costs.setup_messages,
          std::accumulate(ops.begin(), ops.end(), std::int64_t{0}),
          *std::max_element(ops.begin(), ops.end()),
          distance_fingerprint(result.distances)};
}

std::string row_of(const Counts& c) {
  std::ostringstream out;
  out << "{" << c.latency << ", " << c.bandwidth << ", " << c.messages
      << ", " << c.words << ", " << c.max_rank_messages << ", "
      << c.max_rank_words << ", " << c.apsp_messages << ", " << c.apsp_words
      << ", " << c.apsp_max_messages << ", " << c.apsp_max_words << ", "
      << c.collect_messages << ", " << c.collect_words << ", "
      << c.collect_max_messages << ", " << c.collect_max_words << ", "
      << c.setup_messages << ", " << c.ops_sum << ", " << c.ops_max << ", "
      << c.distances << "ULL}";
  return out.str();
}

TEST(DenseBaselineCounts, MatchRecordedValues) {
  // Each row: L, B; total and busiest-rank messages and words; the
  // "apsp" and "collect" phases' total and busiest-rank messages and
  // words; setup messages; Σ and max of ops_per_rank; distances.  The
  // collect phase counts in every volume but not in L or B.
  struct Case {
    bool fw2d;  // false: block-cyclic DC
    int q, nb;
    Counts want;
  };
  // Every run must reach the same closure.
  constexpr std::uint64_t kDistances = 7458587839256189813ULL;
  const Case cases[] = {
      {true, 1, 4,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1695242, 1695242,
        kDistances}},
      {true, 2, 2,
       {8, 41042, 15, 76756, 5, 25920, 12, 61348, 4, 20736, 3, 15408, 1, 5184,
        0, 1993484, 731016, kDistances}},
      {true, 2, 7,
       {28, 28158, 75, 60304, 21, 17224, 42, 46744, 16, 17224, 33, 13560, 12,
        4980, 0, 1470622, 475319, kDistances}},
      {true, 3, 5,
       {40, 45978, 101, 115360, 20, 23548, 80, 98160, 16, 20184, 21, 17200, 4,
        3364, 0, 1597279, 285869, kDistances}},
      {true, 4, 13,
       {104, 27104, 543, 150645, 41, 12584, 390, 132132, 38, 12584, 153, 18513,
        12, 1452, 0, 1305942, 115302, kDistances}},
      {true, 4, 16,
       {128, 25584, 720, 149592, 56, 10368, 480, 130368, 40, 9072, 240, 19224,
        16, 1296, 0, 1353304, 96896, kDistances}},
      {false, 1, 4,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1194020, 1194020,
        kDistances}},
      {false, 2, 8,
       {136, 59096, 288, 122766, 80, 33228, 240, 107358, 64, 28116, 48, 15408,
        16, 5184, 0, 891347, 259667, kDistances}},
      {false, 3, 8,
       {222, 85180, 631, 232356, 85, 33390, 576, 214716, 76, 30528, 55, 17640,
        9, 2916, 0, 891347, 162275, kDistances}},
      {false, 4, 16,
       {661, 68280, 3408, 364308, 224, 23877, 3168, 345084, 208, 22581, 240,
        19224, 16, 1296, 0, 873400, 67509, kDistances}},
  };
  Rng rng(7);
  const Graph graph = make_grid2d(13, 11, rng);
  for (const Case& c : cases) {
    const DistributedApspResult result =
        c.fw2d ? run_fw2d(graph, c.q, c.nb)
               : run_dc_apsp_cyclic(graph, c.q, c.nb);
    const Counts got = counts_of(result);
    // L and B are whole numbers of messages and words.
    EXPECT_EQ(result.costs.critical_latency,
              static_cast<double>(got.latency));
    EXPECT_EQ(result.costs.critical_bandwidth,
              static_cast<double>(got.bandwidth));
    EXPECT_TRUE(got == c.want)
        << (c.fw2d ? "fw2d" : "dc_cyclic") << " q=" << c.q << " nb=" << c.nb
        << "\n  got  " << row_of(got) << "\n  want " << row_of(c.want);
  }
}

}  // namespace
}  // namespace capsp
