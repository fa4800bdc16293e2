#include "core/regions.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

namespace capsp {

std::vector<BlockId> region_r1(const EliminationTree& tree, int l) {
  std::vector<BlockId> out;
  for (Snode k : tree.level_set(l)) out.push_back({k, k});
  return out;
}

std::vector<BlockId> region_r2(const EliminationTree& tree, int l) {
  std::set<BlockId> out;
  for (Snode k : tree.level_set(l)) {
    for (Snode i : tree.related_set(k)) {
      out.insert({i, k});
      out.insert({k, i});
    }
  }
  return {out.begin(), out.end()};
}

std::vector<BlockId> region_r3(const EliminationTree& tree, int l) {
  std::set<BlockId> out;
  for (Snode k : tree.level_set(l)) {
    const auto related = tree.related_set(k);
    for (Snode i : related) {
      for (Snode j : related) {
        // Exclude the pure ancestor×ancestor pairs: those are R⁴.
        const bool i_desc = tree.is_descendant(i, k);
        const bool j_desc = tree.is_descendant(j, k);
        if (i_desc || j_desc) out.insert({i, j});
      }
    }
  }
  return {out.begin(), out.end()};
}

std::vector<BlockId> region_r4(const EliminationTree& tree, int l) {
  std::set<BlockId> out;
  for (Snode k : tree.level_set(l)) {
    const auto ancestors = tree.ancestors(k);
    for (Snode i : ancestors)
      for (Snode j : ancestors) out.insert({i, j});
  }
  return {out.begin(), out.end()};
}

Snode r3_pivot(const EliminationTree& tree, int l, Snode i, Snode j) {
  Snode found = 0;
  for (Snode k : tree.level_set(l)) {
    const bool i_rel = (i == k) || tree.related(i, k);
    const bool j_rel = (j == k) || tree.related(j, k);
    const bool i_desc = tree.is_descendant(i, k);
    const bool j_desc = tree.is_descendant(j, k);
    if (i_rel && j_rel && (i_desc || j_desc)) {
      CAPSP_CHECK_MSG(found == 0, "block (" << i << "," << j
                                            << ") has two R3 pivots at level "
                                            << l);
      found = k;
    }
  }
  CAPSP_CHECK_MSG(found != 0,
                  "block (" << i << "," << j << ") not in R3 of level " << l);
  return found;
}

Snode r4_worker_row(const EliminationTree& tree, int l, int a, int c) {
  const int h = tree.height();
  CAPSP_CHECK_MSG(l < a && a <= c && c <= h,
                  "r4 subset (l=" << l << ",a=" << a << ",c=" << c << ")");
  Snode f = static_cast<Snode>(a - l);
  for (int b = h + a - c; b <= h - 1; ++b) f += Snode{1} << b;
  CAPSP_CHECK_MSG(f >= 1 && f <= tree.num_supernodes(),
                  "f=" << f << " outside grid (Lemma 5.4 violated)");
  return f;
}

Snode r4_worker_col(const EliminationTree& tree, int l, Snode k) {
  CAPSP_CHECK(tree.level_of(k) == l);
  const Snode g = k - tree.level_begin(l) + 1;  // 1-based index within Q_l
  CAPSP_CHECK(g >= 1 && g <= tree.level_size(l));
  return g;
}

std::vector<ComputingUnit> r4_units(const EliminationTree& tree, int l) {
  const int h = tree.height();
  std::vector<ComputingUnit> units;
  for (Snode k : tree.level_set(l)) {
    const Snode g = r4_worker_col(tree, l, k);
    for (int a = l + 1; a <= h; ++a) {
      const Snode i = tree.ancestor_at_level(k, a);
      for (int c = a; c <= h; ++c) {
        const Snode j = tree.ancestor_at_level(k, c);
        units.push_back({i, j, k, r4_worker_row(tree, l, a, c), g});
      }
    }
  }
  std::sort(units.begin(), units.end(),
            [](const ComputingUnit& x, const ComputingUnit& y) {
              return std::tie(x.i, x.j, x.k) < std::tie(y.i, y.j, y.k);
            });
  return units;
}

std::int64_t r4_unit_count(const EliminationTree& tree, int l) {
  const int h = tree.height();
  std::int64_t count = 0;
  // Per subset R⁴(a,c): 2^(h-l) units (Lemma 5.3); subsets: pairs a <= c.
  for (int a = l + 1; a <= h; ++a)
    for (int c = a; c <= h; ++c) count += std::int64_t{1} << (h - l);
  return count;
}

namespace {

/// Steps and members under construction, with the next free tag.
struct StepTable {
  const ApspLayout& layout;
  const EliminationTree& tree;
  std::vector<ScheduleStep> steps;
  std::vector<RankId> members;
  std::vector<RankId> group;  ///< scratch for the step being built
  Tag tag = 0;

  RankId rank(Snode i, Snode j) const { return layout.rank_of(i, j); }
  std::int64_t size(Snode s) const { return layout.size_of(s); }

  /// Appends `step` with the members collected in `group`.
  void add(ScheduleStep step) {
    step.group_begin = static_cast<std::int32_t>(members.size());
    members.insert(members.end(), group.begin(), group.end());
    step.group_end = static_cast<std::int32_t>(members.size());
    steps.push_back(step);
    group.clear();
  }

  /// Append `rank` to the group unless already present (worker groups
  /// may coincide with panel owners / reduce roots on small grids).
  void add_unique(RankId r) {
    if (std::find(group.begin(), group.end(), r) == group.end())
      group.push_back(r);
  }
};

/// R¹ (line 4): ClassicalFW on each diagonal block (k,k), k ∈ Q_l.
void add_r1(StepTable& t, int l) {
  for (Snode k : t.tree.level_set(l)) {
    const RankId p_kk = t.rank(k, k);
    t.group.push_back(p_kk);
    t.add({.kind = StepKind::kDiagonalFw, .root = p_kk, .k = k,
           .rows = t.size(k), .cols = t.size(k)});
  }
}

/// R² (lines 5-8): P_kk broadcasts A(k,k) down column k, then along
/// row k, to the panels of every related supernode.
void add_r2(StepTable& t, int l) {
  for (Snode k : t.tree.level_set(l)) {
    const auto related = t.tree.related_set(k);
    const RankId p_kk = t.rank(k, k);
    t.group.push_back(p_kk);
    for (Snode i : related) t.group.push_back(t.rank(i, k));
    t.add({.kind = StepKind::kColumnPanel, .tag = t.tag++, .root = p_kk,
           .k = k, .rows = t.size(k), .cols = t.size(k)});
    t.group.push_back(p_kk);
    for (Snode j : related) t.group.push_back(t.rank(k, j));
    t.add({.kind = StepKind::kRowPanel, .tag = t.tag++, .root = p_kk,
           .k = k, .rows = t.size(k), .cols = t.size(k)});
  }
}

/// R³ (lines 9-11): per pivot, the column-panel owners P_ik broadcast
/// A(i,k) along row i and the row-panel owners P_kj broadcast A(k,j) down
/// column j; then every R³ block of the pivot updates locally.  An
/// ancestor panel only needs to reach descendant columns (rows):
/// ancestor×ancestor blocks belong to R⁴.
void add_r3(StepTable& t, int l) {
  for (Snode k : t.tree.level_set(l)) {
    const auto related = t.tree.related_set(k);
    const auto in_r3 = [&](Snode i, Snode j) {
      return t.tree.is_descendant(i, k) || t.tree.is_descendant(j, k);
    };
    for (Snode i : related) {
      const RankId p_ik = t.rank(i, k);
      t.group.push_back(p_ik);
      for (Snode j : related)
        if (in_r3(i, j)) t.group.push_back(t.rank(i, j));
      t.add({.kind = StepKind::kRowOperand, .tag = t.tag++, .root = p_ik,
             .k = k, .i = i, .rows = t.size(i), .cols = t.size(k)});
    }
    for (Snode j : related) {
      const RankId p_kj = t.rank(k, j);
      t.group.push_back(p_kj);
      for (Snode i : related)
        if (in_r3(i, j)) t.group.push_back(t.rank(i, j));
      t.add({.kind = StepKind::kColumnOperand, .tag = t.tag++, .root = p_kj,
             .k = k, .j = j, .rows = t.size(k), .cols = t.size(j)});
    }
    for (Snode i : related)
      for (Snode j : related)
        if (in_r3(i, j)) t.group.push_back(t.rank(i, j));
    t.add({.kind = StepKind::kR3Update, .k = k});
  }
}

/// Mirror of block (i,j) to P_ji (line 25); the tag is reserved even for
/// a diagonal block, which has no mirror.
void add_mirror(StepTable& t, Snode i, Snode j) {
  const Tag tag = t.tag++;
  if (i == j) return;
  const RankId owner = t.rank(i, j);
  t.group.push_back(owner);
  t.group.push_back(t.rank(j, i));
  t.add({.kind = StepKind::kMirror, .tag = tag, .root = owner, .i = i,
         .j = j, .rows = t.size(i), .cols = t.size(j)});
}

/// R⁴, trivial strategy (Sec. 5.2.2's strawman): the block owner
/// receives every operand itself and runs the units sequentially.
void add_r4_sequential(StepTable& t, int l) {
  const int h = t.tree.height();
  for (int a = l + 1; a <= h; ++a) {
    for (Snode i : t.tree.level_set(a)) {
      const auto [k_begin, k_end] = t.tree.descendant_range_at_level(i, l);
      for (int c = a; c <= h; ++c) {
        const Snode j = t.tree.ancestor_at_level(i, c);
        const RankId owner = t.rank(i, j);
        for (Snode k = k_begin; k < k_end; ++k) {
          // Panel rows/columns are distinct from the owner (levels
          // differ), so both operands are real messages.
          t.group.push_back(t.rank(i, k));
          t.group.push_back(t.rank(k, j));
          t.group.push_back(owner);
          t.add({.kind = StepKind::kSequentialUnit, .tag = t.tag, .root = owner,
                 .k = k, .i = i, .j = j, .a = a, .c = c, .rows = t.size(i),
                 .cols = t.size(k)});
          t.tag += 2;
        }
        add_mirror(t, i, j);
      }
    }
  }
}

/// R⁴ with worker fan-out: the paper's one-to-one mapping (kOneToOne,
/// worker row f from Lemma 5.4) or the shared-row variant
/// (kSharedWorkers, every subset on row 1 — the design point Lemma 5.1
/// warns about, where blocks serialize on their workers).  The worker
/// column g is the pivot's index within Q_l (Cor. 5.5).
void add_r4_workers(StepTable& t, int l, R4Strategy strategy) {
  const EliminationTree& tree = t.tree;
  const int h = tree.height();
  const auto worker_row = [&](int a, int c) {
    return strategy == R4Strategy::kOneToOne ? r4_worker_row(tree, l, a, c)
                                             : Snode{1};
  };

  // (a) Operand broadcasts from the R² panels to the workers P_fg
  //     (lines 13-18).
  for (Snode k : tree.level_set(l)) {
    const Snode g = r4_worker_col(tree, l, k);
    for (int a = l + 1; a <= h; ++a) {
      const Snode i = tree.ancestor_at_level(k, a);
      const RankId p_ik = t.rank(i, k);
      t.group.push_back(p_ik);
      bool root_is_worker = false;
      for (int c = a; c <= h; ++c) {
        const RankId worker = t.rank(worker_row(a, c), g);
        root_is_worker |= worker == p_ik;
        t.add_unique(worker);
      }
      t.add({.kind = StepKind::kWorkerRowOperand, .tag = t.tag++,
             .root = p_ik, .k = k, .i = i, .a = a, .rows = t.size(i),
             .cols = t.size(k), .root_is_worker = root_is_worker});
    }
    for (int c = l + 1; c <= h; ++c) {
      const Snode j = tree.ancestor_at_level(k, c);
      const RankId p_kj = t.rank(k, j);
      t.group.push_back(p_kj);
      bool root_is_worker = false;
      for (int a = l + 1; a <= c; ++a) {
        const RankId worker = t.rank(worker_row(a, c), g);
        root_is_worker |= worker == p_kj;
        t.add_unique(worker);
      }
      t.add({.kind = StepKind::kWorkerColumnOperand, .tag = t.tag++,
             .root = p_kj, .k = k, .j = j, .c = c, .rows = t.size(k),
             .cols = t.size(j), .root_is_worker = root_is_worker});
    }
  }

  // (b)+(c) Per block: workers compute their units (lines 19-22) and
  // ⊕-reduce to the owner (line 23); (d) the owner mirrors the result to
  // the transposed block (line 25).
  for (int a = l + 1; a <= h; ++a) {
    for (int c = a; c <= h; ++c) {
      const Snode f = worker_row(a, c);
      for (Snode i : tree.level_set(a)) {
        const Snode j = tree.ancestor_at_level(i, c);
        const auto [k_begin, k_end] = tree.descendant_range_at_level(i, l);
        for (Snode k = k_begin; k < k_end; ++k)
          t.group.push_back(t.rank(f, r4_worker_col(tree, l, k)));
        const RankId owner = t.rank(i, j);
        t.add_unique(owner);
        t.add({.kind = StepKind::kUnitReduce, .tag = t.tag++, .root = owner,
               .i = i, .j = j, .a = a, .c = c, .rows = t.size(i),
               .cols = t.size(j)});
        add_mirror(t, i, j);
      }
    }
  }
}

}  // namespace

SparseSchedule::SparseSchedule(const ApspLayout& layout, R4Strategy strategy)
    : layout_(layout), strategy_(strategy) {
  const int h = height();
  StepTable table{layout_, layout_.tree(), {}, {}, {}, 0};
  region_begin_.push_back(0);
  const auto close_region = [&] {
    region_begin_.push_back(static_cast<std::int32_t>(table.steps.size()));
  };
  for (int l = 1; l <= h; ++l) {
    add_r1(table, l);
    close_region();
    add_r2(table, l);
    close_region();
    add_r3(table, l);
    close_region();
    if (strategy == R4Strategy::kSequential) {
      add_r4_sequential(table, l);
    } else {
      add_r4_workers(table, l, strategy);
    }
    close_region();
    for (int r = 1; r <= 4; ++r)
      phases_.push_back("L" + std::to_string(l) + "/R" + std::to_string(r));
  }
  steps_ = std::move(table.steps);
  members_ = std::move(table.members);
  tags_used_ = table.tag;

  // Rank index (CSR): row (rank, l, r) lists the rank's steps in region
  // r of level l.  Count, prefix-sum, then fill in step order.
  const std::size_t regions = region_begin_.size() - 1;
  const auto p = static_cast<std::size_t>(layout_.num_ranks());
  const auto row = [&](RankId rank, std::size_t region) {
    return static_cast<std::size_t>(rank) * regions + region;
  };
  rank_begin_.assign(p * regions + 1, 0);
  for (std::size_t x = 0; x < regions; ++x)
    for (auto s = region_begin_[x]; s < region_begin_[x + 1]; ++s)
      for (RankId m : group(steps_[static_cast<std::size_t>(s)]))
        ++rank_begin_[row(m, x) + 1];
  std::partial_sum(rank_begin_.begin(), rank_begin_.end(),
                   rank_begin_.begin());
  rank_steps_.resize(static_cast<std::size_t>(rank_begin_.back()));
  std::vector<std::int32_t> next(rank_begin_.begin(), rank_begin_.end() - 1);
  std::vector<std::int32_t> last_step(p, -1);
  for (std::size_t x = 0; x < regions; ++x) {
    for (auto s = region_begin_[x]; s < region_begin_[x + 1]; ++s) {
      for (RankId m : group(steps_[static_cast<std::size_t>(s)])) {
        auto& last = last_step[static_cast<std::size_t>(m)];
        CAPSP_CHECK_MSG(last != s, "rank " << m << " twice in step " << s);
        last = s;
        rank_steps_[static_cast<std::size_t>(next[row(m, x)]++)] = s;
      }
    }
  }
}

std::size_t SparseSchedule::region_index(int l, int r) const {
  CAPSP_CHECK_MSG(l >= 1 && l <= height() && r >= 1 && r <= 4,
                  "region R" << r << " of level " << l);
  return static_cast<std::size_t>((l - 1) * 4 + (r - 1));
}

std::span<const ScheduleStep> SparseSchedule::region_steps(int l,
                                                           int r) const {
  const std::size_t x = region_index(l, r);
  return {steps_.data() + region_begin_[x],
          steps_.data() + region_begin_[x + 1]};
}

std::span<const std::int32_t> SparseSchedule::rank_steps(RankId rank, int l,
                                                         int r) const {
  CAPSP_CHECK(rank >= 0 && rank < layout_.num_ranks());
  const std::size_t x = static_cast<std::size_t>(rank) * phases_.size() +
                        region_index(l, r);
  return {rank_steps_.data() + rank_begin_[x],
          rank_steps_.data() + rank_begin_[x + 1]};
}

}  // namespace capsp
