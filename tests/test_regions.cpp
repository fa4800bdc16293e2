// Tests of the region decomposition and the computing-unit → processor
// map: these verify the paper's Lemmas 5.1-5.4 and Corollary 5.5
// *exhaustively* for every tree height the benches use (h <= 7, i.e.
// p <= 16129), so the one-to-one mapping claim is machine-checked, not
// just trusted.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "core/regions.hpp"
#include "core/layout.hpp"
#include "graph/generators.hpp"
#include "partition/nested_dissection.hpp"

namespace capsp {
namespace {

class RegionsParam : public ::testing::TestWithParam<int> {};

TEST_P(RegionsParam, RegionsAreDisjointAndCoverRl) {
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    const auto r1 = region_r1(tree, l);
    const auto r2 = region_r2(tree, l);
    const auto r3 = region_r3(tree, l);
    const auto r4 = region_r4(tree, l);
    std::set<BlockId> all;
    auto insert_disjoint = [&](const std::vector<BlockId>& region,
                               const char* name) {
      for (const auto& block : region)
        EXPECT_TRUE(all.insert(block).second)
            << name << " overlaps at (" << block.i << "," << block.j
            << "), l=" << l;
    };
    insert_disjoint(r1, "R1");
    insert_disjoint(r2, "R2");
    insert_disjoint(r3, "R3");
    insert_disjoint(r4, "R4");

    // Union must equal R_l = ∪_k related(k) × related(k).
    std::set<BlockId> expected;
    for (Snode k : tree.level_set(l)) {
      std::vector<Snode> members{k};
      for (Snode d : tree.descendants(k)) members.push_back(d);
      for (Snode a : tree.ancestors(k)) members.push_back(a);
      for (Snode i : members)
        for (Snode j : members) expected.insert({i, j});
    }
    EXPECT_EQ(all, expected) << "level " << l;
  }
}

TEST_P(RegionsParam, R1IsTheLevelDiagonal) {
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    const auto r1 = region_r1(tree, l);
    EXPECT_EQ(r1.size(), static_cast<std::size_t>(tree.level_size(l)));
    for (const auto& block : r1) {
      EXPECT_EQ(block.i, block.j);
      EXPECT_EQ(tree.level_of(block.i), l);
    }
  }
}

TEST_P(RegionsParam, R2BlocksArePanels) {
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    for (const auto& block : region_r2(tree, l)) {
      const bool row_panel = tree.level_of(block.i) == l &&
                             tree.related(block.i, block.j) &&
                             block.i != block.j;
      const bool col_panel = tree.level_of(block.j) == l &&
                             tree.related(block.i, block.j) &&
                             block.i != block.j;
      EXPECT_TRUE(row_panel || col_panel)
          << "(" << block.i << "," << block.j << ") l=" << l;
    }
  }
}

TEST_P(RegionsParam, R3BlocksHaveExactlyOnePivot) {
  // |(A(i)∪D(i)) ∩ (A(j)∪D(j)) ∩ Q_l| = 1 for every R³ block (Sec. 5.2.1).
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    for (const auto& block : region_r3(tree, l)) {
      int count = 0;
      Snode pivot = 0;
      for (Snode k : tree.level_set(l)) {
        const bool i_rel = (block.i == k) || tree.related(block.i, k);
        const bool j_rel = (block.j == k) || tree.related(block.j, k);
        const bool has_desc_side = tree.is_descendant(block.i, k) ||
                                   tree.is_descendant(block.j, k);
        if (i_rel && j_rel && has_desc_side) {
          ++count;
          pivot = k;
        }
      }
      EXPECT_EQ(count, 1) << "(" << block.i << "," << block.j << ")";
      EXPECT_EQ(r3_pivot(tree, l, block.i, block.j), pivot);
    }
  }
}

TEST_P(RegionsParam, R4BlocksAreAncestorPairs) {
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    for (const auto& block : region_r4(tree, l)) {
      EXPECT_GT(tree.level_of(block.i), l);
      EXPECT_GT(tree.level_of(block.j), l);
      EXPECT_TRUE(tree.related(block.i, block.j));
      // Both are ancestors of a common level-l pivot.
      bool found = false;
      for (Snode k : tree.level_set(l))
        found |= (tree.is_ancestor(block.i, k) &&
                  tree.is_ancestor(block.j, k));
      EXPECT_TRUE(found);
    }
  }
}

TEST_P(RegionsParam, Lemma52UnitCountIsOofP) {
  // The number of computing units never exceeds p = N² (Lemma 5.2), so a
  // one-to-one unit→processor mapping exists.
  const EliminationTree tree(GetParam());
  const std::int64_t p = static_cast<std::int64_t>(tree.num_supernodes()) *
                         tree.num_supernodes();
  for (int l = 1; l <= tree.height(); ++l) {
    const auto units = r4_units(tree, l);
    EXPECT_EQ(static_cast<std::int64_t>(units.size()), r4_unit_count(tree, l));
    EXPECT_LE(static_cast<std::int64_t>(units.size()), p);
  }
}

TEST_P(RegionsParam, Lemma53SubsetUnitCounts) {
  // Each subset R⁴(a,c) needs exactly 2^(h-l) units, less than √p.
  const EliminationTree tree(GetParam());
  const int h = tree.height();
  for (int l = 1; l <= h; ++l) {
    std::map<std::pair<int, int>, int> per_subset;
    for (const auto& unit : r4_units(tree, l))
      ++per_subset[{tree.level_of(unit.i), tree.level_of(unit.j)}];
    for (const auto& [subset, count] : per_subset) {
      EXPECT_EQ(count, 1 << (h - l))
          << "subset (" << subset.first << "," << subset.second << ")";
      EXPECT_LE(count, tree.num_supernodes());
    }
    // Subset count < √p (proof of Lemma 5.3).
    EXPECT_LT(per_subset.size(),
              static_cast<std::size_t>(tree.num_supernodes()) + 1);
  }
}

TEST_P(RegionsParam, Lemma54RowMapIsInjectiveAndInRange) {
  const EliminationTree tree(GetParam());
  const int h = tree.height();
  for (int l = 1; l < h; ++l) {
    std::set<Snode> rows;
    for (int a = l + 1; a <= h; ++a) {
      for (int c = a; c <= h; ++c) {
        const Snode f = r4_worker_row(tree, l, a, c);
        EXPECT_GE(f, 1);
        EXPECT_LE(f, tree.num_supernodes());
        EXPECT_TRUE(rows.insert(f).second)
            << "row collision f=" << f << " at (a=" << a << ",c=" << c
            << "), l=" << l;
      }
    }
  }
}

TEST_P(RegionsParam, Corollary55MappingIsOneToOne) {
  // The full unit→processor map is injective: Lemma 5.1's precondition.
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    std::set<std::pair<Snode, Snode>> workers;
    for (const auto& unit : r4_units(tree, l)) {
      EXPECT_TRUE(workers.insert({unit.f, unit.g}).second)
          << "two units share worker P(" << unit.f << "," << unit.g
          << ") at level " << l;
    }
  }
}

TEST_P(RegionsParam, UnitsMatchBlockPivotStructure) {
  // Per block (i,j): units are exactly {(i,j,k) : k ∈ Q_l ∩ D(i)}, and the
  // unit count is 2^(a-l) (the paper's per-block census).
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    std::map<BlockId, std::set<Snode>> pivots_by_block;
    for (const auto& unit : r4_units(tree, l)) {
      EXPECT_EQ(tree.ancestor_at_level(unit.k, tree.level_of(unit.i)),
                unit.i);
      EXPECT_EQ(tree.ancestor_at_level(unit.k, tree.level_of(unit.j)),
                unit.j);
      EXPECT_LE(tree.level_of(unit.i), tree.level_of(unit.j));
      pivots_by_block[{unit.i, unit.j}].insert(unit.k);
    }
    for (const auto& [block, pivots] : pivots_by_block) {
      const int a = tree.level_of(block.i);
      EXPECT_EQ(pivots.size(), static_cast<std::size_t>(1) << (a - l));
      const auto [begin, end] = tree.descendant_range_at_level(block.i, l);
      for (Snode k = begin; k < end; ++k) EXPECT_TRUE(pivots.count(k));
    }
  }
}

TEST_P(RegionsParam, WorkerColumnIsIndexWithinLevel) {
  const EliminationTree tree(GetParam());
  for (int l = 1; l <= tree.height(); ++l) {
    Snode expected = 1;
    for (Snode k : tree.level_set(l))
      EXPECT_EQ(r4_worker_col(tree, l, k), expected++);
  }
}

TEST_P(RegionsParam, TopLevelHasNoR4) {
  const EliminationTree tree(GetParam());
  EXPECT_TRUE(region_r4(tree, tree.height()).empty());
  EXPECT_TRUE(r4_units(tree, tree.height()).empty());
}

INSTANTIATE_TEST_SUITE_P(Heights, RegionsParam, ::testing::Range(1, 8));

// ---- SparseSchedule: the table the executor runs from, checked against
// the region functions above. ----

/// A layout over a synthetic dissection: supernode s holds 1 + s % 3
/// vertices, so block shapes differ between neighbours.
ApspLayout synthetic_layout(int height) {
  Dissection nd(height);
  nd.ranges.resize(static_cast<std::size_t>(nd.tree.num_supernodes()) + 1);
  Vertex next = 0;
  for (Snode s = 1; s <= nd.tree.num_supernodes(); ++s) {
    const Vertex size = 1 + s % 3;
    nd.ranges[static_cast<std::size_t>(s)] = {next, next + size};
    next += size;
  }
  return ApspLayout(nd);
}

class ScheduleParam
    : public ::testing::TestWithParam<std::tuple<int, R4Strategy>> {
 protected:
  ScheduleParam()
      : layout_(synthetic_layout(std::get<0>(GetParam()))),
        schedule_(layout_, std::get<1>(GetParam())) {}

  const EliminationTree& tree() const { return layout_.tree(); }
  BlockId block(RankId rank) const {
    const auto [i, j] = layout_.block_of(rank);
    return {i, j};
  }
  std::vector<RankId> members(const ScheduleStep& step) const {
    const auto group = schedule_.group(step);
    return {group.begin(), group.end()};
  }

  ApspLayout layout_;
  SparseSchedule schedule_;
};

TEST_P(ScheduleParam, R1StepsAreTheDiagonalBlocks) {
  for (int l = 1; l <= tree().height(); ++l) {
    std::vector<BlockId> blocks;
    for (const ScheduleStep& step : schedule_.region_steps(l, 1)) {
      ASSERT_EQ(step.kind, StepKind::kDiagonalFw);
      ASSERT_EQ(members(step), std::vector<RankId>{step.root});
      EXPECT_EQ(step.tag, -1);
      blocks.push_back(block(step.root));
    }
    EXPECT_EQ(blocks, region_r1(tree(), l)) << "level " << l;
  }
}

TEST_P(ScheduleParam, R2ReceiversAreTheRegionR2Panels) {
  for (int l = 1; l <= tree().height(); ++l) {
    std::multiset<BlockId> receivers;
    for (const ScheduleStep& step : schedule_.region_steps(l, 2)) {
      ASSERT_TRUE(step.kind == StepKind::kColumnPanel ||
                  step.kind == StepKind::kRowPanel);
      const auto group = members(step);
      ASSERT_EQ(group.front(), step.root);
      for (std::size_t m = 1; m < group.size(); ++m) {
        const BlockId b = block(group[m]);
        // Column panels sit in column k, row panels in row k.
        EXPECT_EQ(step.kind == StepKind::kColumnPanel ? b.j : b.i, step.k);
        receivers.insert(b);
      }
    }
    const auto r2 = region_r2(tree(), l);
    EXPECT_EQ(receivers, std::multiset<BlockId>(r2.begin(), r2.end()))
        << "level " << l;
  }
}

TEST_P(ScheduleParam, R3UpdatesAreRegionR3WithTheirPivots) {
  for (int l = 1; l <= tree().height(); ++l) {
    // Receivers of each operand broadcast, keyed by (pivot, panel side).
    std::map<std::tuple<StepKind, Snode, Snode>, std::set<BlockId>> got;
    std::multiset<BlockId> updated;
    for (const ScheduleStep& step : schedule_.region_steps(l, 3)) {
      if (step.kind == StepKind::kRowOperand) {
        const auto group = members(step);
        for (std::size_t m = 1; m < group.size(); ++m)
          got[{step.kind, step.k, step.i}].insert(block(group[m]));
      } else if (step.kind == StepKind::kColumnOperand) {
        const auto group = members(step);
        for (std::size_t m = 1; m < group.size(); ++m)
          got[{step.kind, step.k, step.j}].insert(block(group[m]));
      } else {
        ASSERT_EQ(step.kind, StepKind::kR3Update);
        for (RankId rank : members(step)) {
          const BlockId b = block(rank);
          EXPECT_EQ(r3_pivot(tree(), l, b.i, b.j), step.k);
          // Both operands reached the block before its update.
          const auto& aik = got[std::tuple(StepKind::kRowOperand, step.k, b.i)];
          const auto& akj =
              got[std::tuple(StepKind::kColumnOperand, step.k, b.j)];
          EXPECT_TRUE(aik.count(b));
          EXPECT_TRUE(akj.count(b));
          updated.insert(b);
        }
      }
    }
    const auto r3 = region_r3(tree(), l);
    EXPECT_EQ(updated, std::multiset<BlockId>(r3.begin(), r3.end()))
        << "level " << l;
  }
}

TEST_P(ScheduleParam, R4StepsMatchTheComputingUnits) {
  const R4Strategy strategy = schedule_.strategy();
  for (int l = 1; l <= tree().height(); ++l) {
    const auto units = r4_units(tree(), l);
    std::set<BlockId> reduced;
    std::set<std::tuple<Snode, Snode, Snode>> computed;
    std::set<BlockId> mirrored;
    Tag last_reduce_tag = -1;
    for (const ScheduleStep& step : schedule_.region_steps(l, 4)) {
      const auto group = members(step);
      if (step.kind == StepKind::kSequentialUnit) {
        const std::vector<RankId> want{layout_.rank_of(step.i, step.k),
                                       layout_.rank_of(step.k, step.j),
                                       layout_.rank_of(step.i, step.j)};
        EXPECT_EQ(group, want);
        EXPECT_EQ(step.root, group[2]);
        computed.insert({step.i, step.j, step.k});
        reduced.insert({step.i, step.j});
      } else if (step.kind == StepKind::kUnitReduce) {
        // Workers first, one per unit in pivot order; the owner is
        // appended unless it is a worker itself.
        std::vector<RankId> want;
        for (const ComputingUnit& u : units) {
          if (u.i != step.i || u.j != step.j) continue;
          const Snode f = strategy == R4Strategy::kOneToOne ? u.f : Snode{1};
          want.push_back(layout_.rank_of(f, u.g));
          computed.insert({u.i, u.j, u.k});
        }
        EXPECT_EQ(want.size(), std::size_t{1} << (step.a - l));
        if (std::find(want.begin(), want.end(), step.root) == want.end())
          want.push_back(step.root);
        EXPECT_EQ(group, want) << "block (" << step.i << "," << step.j << ")";
        EXPECT_TRUE(reduced.insert({step.i, step.j}).second);
        last_reduce_tag = step.tag;
      } else if (step.kind == StepKind::kMirror) {
        const std::vector<RankId> want{layout_.rank_of(step.i, step.j),
                                       layout_.rank_of(step.j, step.i)};
        EXPECT_EQ(group, want);
        EXPECT_TRUE(reduced.count({step.i, step.j}));
        if (strategy != R4Strategy::kSequential) {
          EXPECT_EQ(step.tag, last_reduce_tag + 1);
        }
        mirrored.insert({step.j, step.i});
      } else {
        ASSERT_TRUE(step.kind == StepKind::kWorkerRowOperand ||
                    step.kind == StepKind::kWorkerColumnOperand);
        EXPECT_NE(strategy, R4Strategy::kSequential);
      }
    }
    // Every unit is computed once; the computed half plus the mirrored
    // half is R⁴ (Alg. 1 line 25).
    EXPECT_EQ(computed.size(), units.size());
    for (const ComputingUnit& u : units)
      EXPECT_TRUE(computed.count({u.i, u.j, u.k}));
    std::set<BlockId> covered = reduced;
    covered.insert(mirrored.begin(), mirrored.end());
    const auto r4 = region_r4(tree(), l);
    EXPECT_EQ(covered, std::set<BlockId>(r4.begin(), r4.end()))
        << "level " << l;
  }
}

/// The worker strategies only: kSequential has no workers.
class WorkerScheduleParam : public ScheduleParam {};

TEST_P(WorkerScheduleParam, WorkersHoldTheirUnitsOperands) {
  // Each worker of a reduce got A(i,k) and A(k,j) of its unit from the
  // operand broadcasts — the executor's "worker missing unit" CHECK, on
  // the table.
  for (int l = 1; l < tree().height(); ++l) {
    std::map<std::tuple<StepKind, Snode, int>, std::set<RankId>> holders;
    for (const ScheduleStep& step : schedule_.region_steps(l, 4)) {
      if (step.kind == StepKind::kWorkerRowOperand ||
          step.kind == StepKind::kWorkerColumnOperand) {
        const auto group = members(step);
        const int level = step.kind == StepKind::kWorkerRowOperand ? step.a
                                                                   : step.c;
        auto& held = holders[{step.kind, step.k, level}];
        held.insert(group.begin() + (step.root_is_worker ? 0 : 1),
                    group.end());
      } else if (step.kind == StepKind::kUnitReduce) {
        const auto group = members(step);
        const auto [k_begin, k_end] =
            tree().descendant_range_at_level(step.i, l);
        for (Snode k = k_begin; k < k_end; ++k) {
          const RankId worker = group[static_cast<std::size_t>(k - k_begin)];
          const auto& aik =
              holders[std::tuple(StepKind::kWorkerRowOperand, k, step.a)];
          const auto& akj =
              holders[std::tuple(StepKind::kWorkerColumnOperand, k, step.c)];
          EXPECT_TRUE(aik.count(worker)) << "worker " << worker;
          EXPECT_TRUE(akj.count(worker)) << "worker " << worker;
        }
      }
    }
  }
}

TEST_P(WorkerScheduleParam, Lemma51WorkerGroupsAreDisjointUnderOneToOne) {
  // Lemma 5.1's precondition: under the one-to-one map no worker serves
  // two blocks of a level, so the reduces of one subset R⁴_l(a,c) (and of
  // the whole level) never serialize on a shared rank.  The shared-row
  // variant breaks exactly this across subsets.
  const bool one_to_one = schedule_.strategy() == R4Strategy::kOneToOne;
  bool any_shared = false;
  for (int l = 1; l < tree().height(); ++l) {
    std::map<std::pair<int, int>, std::set<RankId>> subset_workers;
    std::set<RankId> level_workers;
    std::size_t level_count = 0;
    for (const ScheduleStep& step : schedule_.region_steps(l, 4)) {
      if (step.kind != StepKind::kUnitReduce) continue;
      const auto group = members(step);
      auto& in_subset = subset_workers[{step.a, step.c}];
      for (std::size_t m = 0; m < (std::size_t{1} << (step.a - l)); ++m) {
        EXPECT_TRUE(in_subset.insert(group[m]).second)
            << "worker " << group[m] << " twice in subset (" << step.a << ","
            << step.c << ") of level " << l;
        level_workers.insert(group[m]);
        ++level_count;
      }
    }
    if (one_to_one) {
      EXPECT_EQ(level_workers.size(), level_count);
    }
    any_shared |= level_workers.size() < level_count;
  }
  EXPECT_EQ(any_shared, !one_to_one && tree().height() >= 3);
}

TEST_P(ScheduleParam, RankIndexListsExactlyEachRanksMemberships) {
  std::int64_t visited = 0;
  for (RankId rank = 0; rank < layout_.num_ranks(); ++rank) {
    for (int l = 1; l <= tree().height(); ++l) {
      for (int r = 1; r <= 4; ++r) {
        const auto region = schedule_.region_steps(l, r);
        const auto first = region.data() - schedule_.steps().data();
        std::int32_t previous = -1;
        for (std::int32_t s : schedule_.rank_steps(rank, l, r)) {
          EXPECT_GT(s, previous);  // execution order
          EXPECT_GE(s, first);
          EXPECT_LT(s, first + static_cast<std::int64_t>(region.size()));
          const auto group = members(schedule_.steps()[s]);
          EXPECT_NE(std::find(group.begin(), group.end(), rank), group.end());
          previous = s;
          ++visited;
        }
      }
    }
  }
  std::int64_t memberships = 0;
  for (const ScheduleStep& step : schedule_.steps())
    memberships += step.group_end - step.group_begin;
  EXPECT_EQ(visited, memberships);
}

TEST_P(ScheduleParam, ShapesAndRootsAreTheBlocksMoved) {
  for (const ScheduleStep& step : schedule_.steps()) {
    BlockId moved;
    switch (step.kind) {
      case StepKind::kDiagonalFw:
      case StepKind::kColumnPanel:
      case StepKind::kRowPanel:
        moved = {step.k, step.k};
        break;
      case StepKind::kRowOperand:
      case StepKind::kWorkerRowOperand:
      case StepKind::kSequentialUnit:
        moved = {step.i, step.k};
        break;
      case StepKind::kColumnOperand:
      case StepKind::kWorkerColumnOperand:
        moved = {step.k, step.j};
        break;
      case StepKind::kUnitReduce:
      case StepKind::kMirror:
        moved = {step.i, step.j};
        break;
      case StepKind::kR3Update:
        EXPECT_EQ(step.root, -1);
        continue;
    }
    EXPECT_EQ(std::pair(step.rows, step.cols),
              layout_.block_shape(moved.i, moved.j));
    // The sequential unit's root is the receiving owner, not a sender.
    if (step.kind != StepKind::kSequentialUnit) {
      EXPECT_EQ(block(step.root), moved);
    }
  }
}

TEST_P(ScheduleParam, TagsCountUpInExecutionOrder) {
  // One tag per collective and two per sequential unit, handed out in
  // execution order, plus one reserved per diagonal R⁴ block for the
  // mirror it does not need.
  Tag next = 0;
  Tag used = 0;
  for (const ScheduleStep& step : schedule_.steps()) {
    if (step.tag < 0) continue;
    EXPECT_GE(step.tag, next);
    const Tag width = step.kind == StepKind::kSequentialUnit ? 2 : 1;
    next = step.tag + width;
    used += width;
  }
  Tag diagonal_blocks = 0;
  for (int l = 1; l <= tree().height(); ++l)
    for (int a = l + 1; a <= tree().height(); ++a)
      diagonal_blocks += tree().level_size(a);
  EXPECT_EQ(schedule_.tags_used(), used + diagonal_blocks);
  EXPECT_LE(next, schedule_.tags_used());
}

INSTANTIATE_TEST_SUITE_P(
    HeightsAndStrategies, ScheduleParam,
    ::testing::Combine(::testing::Range(2, 7),
                       ::testing::Values(R4Strategy::kSequential,
                                         R4Strategy::kSharedWorkers,
                                         R4Strategy::kOneToOne)));
INSTANTIATE_TEST_SUITE_P(
    HeightsAndStrategies, WorkerScheduleParam,
    ::testing::Combine(::testing::Range(2, 7),
                       ::testing::Values(R4Strategy::kSharedWorkers,
                                         R4Strategy::kOneToOne)));

TEST(SparseSchedule, TagCountAtHeightSix) {
  // p = 3969: 2,076 tags under the worker strategies, 2,763 under the
  // trivial strategy.
  const ApspLayout layout = synthetic_layout(6);
  EXPECT_EQ(SparseSchedule(layout, R4Strategy::kOneToOne).tags_used(), 2076);
  EXPECT_EQ(SparseSchedule(layout, R4Strategy::kSharedWorkers).tags_used(),
            2076);
  EXPECT_EQ(SparseSchedule(layout, R4Strategy::kSequential).tags_used(),
            2763);
}

TEST(SparseSchedule, PhaseLabelsAndRegionBounds) {
  const SparseSchedule schedule(synthetic_layout(3));
  EXPECT_EQ(schedule.phase(1, 1), "L1/R1");
  EXPECT_EQ(schedule.phase(3, 4), "L3/R4");
  EXPECT_THROW(schedule.phase(4, 1), check_error);
  EXPECT_THROW(schedule.region_steps(1, 5), check_error);
  EXPECT_THROW(schedule.rank_steps(49, 1, 1), check_error);
}

TEST(Regions, Figure3bLevel2Example) {
  // The paper's Fig. 3b: 4-level tree, l = 2.  Q_2 = {9..12}.
  const EliminationTree tree(4);
  const auto r1 = region_r1(tree, 2);
  EXPECT_EQ(r1.size(), 4u);
  // R² of pivot 9 contains panels to its leaves 1,2 and ancestors 13,15.
  const auto r2 = region_r2(tree, 2);
  auto has = [&](const std::vector<BlockId>& region, Snode i, Snode j) {
    return std::find(region.begin(), region.end(), BlockId{i, j}) !=
           region.end();
  };
  EXPECT_TRUE(has(r2, 1, 9));
  EXPECT_TRUE(has(r2, 13, 9));
  EXPECT_TRUE(has(r2, 15, 9));
  EXPECT_TRUE(has(r2, 9, 2));
  EXPECT_FALSE(has(r2, 3, 9));  // leaf 3 is a cousin of 9
  // R³ contains leaf×ancestor and leaf×leaf pairs under the same pivot.
  const auto r3 = region_r3(tree, 2);
  EXPECT_TRUE(has(r3, 1, 2));
  EXPECT_TRUE(has(r3, 1, 13));
  EXPECT_TRUE(has(r3, 15, 2));
  EXPECT_FALSE(has(r3, 1, 3));   // cousins: not updated at l=2
  EXPECT_FALSE(has(r3, 13, 15)); // ancestor pair: that's R4
  // R⁴ = ancestor pairs {13,14,15} that share level-2 descendants.
  const auto r4 = region_r4(tree, 2);
  EXPECT_TRUE(has(r4, 13, 13));
  EXPECT_TRUE(has(r4, 13, 15));
  EXPECT_TRUE(has(r4, 15, 13));
  EXPECT_TRUE(has(r4, 15, 15));
  EXPECT_FALSE(has(r4, 13, 14));  // 13 and 14 share no common descendant
}

TEST(Regions, UnitCountFormulaMatchesLemma52Closed) {
  // Closed form: Σ_{a=l+1}^{h} (h-a+1)·2^(h-l) for the computed half.
  const EliminationTree tree(6);
  for (int l = 1; l <= 6; ++l) {
    std::int64_t closed = 0;
    for (int a = l + 1; a <= 6; ++a) closed += (6 - a + 1) * (1 << (6 - l));
    EXPECT_EQ(r4_unit_count(tree, l), closed);
  }
}

}  // namespace
}  // namespace capsp
