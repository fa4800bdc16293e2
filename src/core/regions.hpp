// Region decomposition and the computing-unit → processor map
// (paper Sec. 5.2, Lemmas 5.2–5.4, Corollary 5.5).
//
// Eliminating the level-l supernodes Q_l updates the region
//   R_l = ∪_{k∈Q_l} (k ∪ A(k) ∪ D(k)) × (k ∪ A(k) ∪ D(k)),
// split into four disjoint sub-regions handled by different schedules:
//   R¹ diagonal blocks (k,k)            — local ClassicalFW
//   R² panels (i,k), (k,j)              — broadcast from the diagonal
//   R³ blocks with a descendant side    — one computing unit each
//   R⁴ ancestor×ancestor blocks         — 2^(a-l) units each, fanned out
//                                         one-to-one onto worker ranks P_fg
// This header computes the regions, the (f, g) arithmetic, and
// SparseSchedule: Algorithm 1 enumerated once into a flat step table
// with a per-rank index.  The executor (sparse_apsp.cpp) runs from that
// table and the tests check it against the region functions, so the
// paper's counting lemmas are checked against the very tables the
// algorithm runs from.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "tree/etree.hpp"

namespace capsp {

/// How the R⁴ computing units are assigned to processors (Sec. 5.2.2
/// discusses all three; the paper's contribution is the last one).
enum class R4Strategy {
  /// The "trivial strategy ... used in SuperLU_DIST": the block owner
  /// P_ij receives all 2q operand messages itself and computes the units
  /// sequentially.  Per-level latency Θ(2^(h-l)) — Θ(√p) at level 1.
  kSequential,
  /// Units fan out to worker processors, but workers are *reused* across
  /// blocks (all subsets share grid row 1), so blocks serialize on their
  /// common workers.  The intermediate design point the paper's Lemma 5.1
  /// warns about.
  kSharedWorkers,
  /// The paper's one-to-one mapping (Lemmas 5.3-5.4, Cor. 5.5): every
  /// unit on its own processor; per-level latency O(log p).
  kOneToOne,
};

/// A block index pair (supernode labels).
struct BlockId {
  Snode i = 0;
  Snode j = 0;
  friend bool operator==(const BlockId&, const BlockId&) = default;
  friend auto operator<=>(const BlockId&, const BlockId&) = default;
};

/// One computing unit A(i,k) ⊗ A(k,j) of an R⁴ update (Cor. 5.5).
struct ComputingUnit {
  Snode i = 0;  ///< row supernode, level(i) = a
  Snode j = 0;  ///< column supernode, level(j) = c >= a (j ∈ {i} ∪ A(i))
  Snode k = 0;  ///< pivot supernode, k ∈ Q_l ∩ D(i)
  Snode f = 0;  ///< worker grid row (Lemma 5.4)
  Snode g = 0;  ///< worker grid column (index of k within Q_l)
  friend bool operator==(const ComputingUnit&,
                         const ComputingUnit&) = default;
};

/// R¹_l: diagonal blocks (k,k), k ∈ Q_l.
std::vector<BlockId> region_r1(const EliminationTree& tree, int l);

/// R²_l: panel blocks (i,k) and (k,j) with i,j ∈ A(k) ∪ D(k), k ∈ Q_l.
std::vector<BlockId> region_r2(const EliminationTree& tree, int l);

/// R³_l: ∪_k (A(k)∪D(k)) × D(k)  ∪  D(k) × (A(k)∪D(k)) — blocks updated by
/// exactly one computing unit.
std::vector<BlockId> region_r3(const EliminationTree& tree, int l);

/// R⁴_l: ∪_k A(k) × A(k) (including ancestor diagonal blocks) — blocks
/// updated by 2^(a-l) computing units, a = min level.
std::vector<BlockId> region_r4(const EliminationTree& tree, int l);

/// The unique pivot k ∈ Q_l through which block (i,j) ∈ R³_l is updated.
Snode r3_pivot(const EliminationTree& tree, int l, Snode i, Snode j);

/// Worker grid row for subset R⁴_l(a, c):  f = Σ_{b=h+a-c}^{h-1} 2^b + (a-l)
/// (Lemma 5.4).  Requires l < a <= c <= h.
Snode r4_worker_row(const EliminationTree& tree, int l, int a, int c);

/// Worker grid column for pivot k ∈ Q_l:  g = k - Σ_{b=h-l+1}^{h-1} 2^b,
/// i.e. k's 1-based index within Q_l (Cor. 5.5).
Snode r4_worker_col(const EliminationTree& tree, int l, Snode k);

/// All computing units of level l for the computed half of R⁴ (blocks with
/// level(i) <= level(j); the other half arrives by transposition, Alg. 1
/// line 25).  Sorted by (i, j, k).
std::vector<ComputingUnit> r4_units(const EliminationTree& tree, int l);

/// Number of computing units Lemma 5.2 predicts for the computed half:
/// Σ_{a=l+1}^{h} (h-a+1) · 2^(h-l).... evaluated exactly (for tests).
std::int64_t r4_unit_count(const EliminationTree& tree, int l);

/// What one step of Algorithm 1 does; the region and the paper's line
/// numbers follow each name.  Members act by role: the root sends,
/// broadcasts or receives the reduction, the other members receive or
/// contribute.
enum class StepKind : std::uint8_t {
  kDiagonalFw,     ///< R¹ line 4: P_kk runs ClassicalFW on A(k,k)
  kColumnPanel,    ///< R² 5-8: A(k,k) down column k; A(i,k) ← A(i,k)⊗A(k,k)
  kRowPanel,       ///< R² 5-8: A(k,k) along row k; A(k,j) ← A(k,k)⊗A(k,j)
  kRowOperand,     ///< R³ 9-10: P_ik broadcasts A(i,k) along row i
  kColumnOperand,  ///< R³ 9-10: P_kj broadcasts A(k,j) down column j
  kR3Update,       ///< R³ 11: A(i,j) ⊕= A(i,k) ⊗ A(k,j), no messages
  kWorkerRowOperand,     ///< R⁴ 13-18: A(i,k) to the workers of (a, ·)
  kWorkerColumnOperand,  ///< R⁴ 13-18: A(k,j) to the workers of (·, c)
  kUnitReduce,     ///< R⁴ 19-23: workers compute units, ⊕-reduce to P_ij
  kMirror,         ///< R⁴ 25: P_ij sends A(i,j); P_ji stores it transposed
  kSequentialUnit, ///< R⁴, trivial strategy: P_ik and P_kj send to P_ij,
                   ///< which computes the unit A(i,k) ⊗ A(k,j) itself
};

/// One step of the schedule.  Supernodes the kind does not use stay 0.
struct ScheduleStep {
  StepKind kind = StepKind::kDiagonalFw;
  /// Message tag; kSequentialUnit also uses tag + 1.  -1 for the steps
  /// without messages (kDiagonalFw, kR3Update).
  Tag tag = -1;
  /// Broadcast or send root, reduce target, mirror source; for
  /// kSequentialUnit the owner P_ij that receives.  -1 for kR3Update.
  RankId root = -1;
  Snode k = 0;  ///< pivot, k ∈ Q_l
  Snode i = 0;  ///< block row
  Snode j = 0;  ///< block column
  int a = 0;    ///< R⁴ subset levels: a = level(i), c = level(j)
  int c = 0;
  /// Shape of the block the root moves: A(k,k) for FW and panels, the
  /// operand for operand broadcasts, A(i,k) for kSequentialUnit, A(i,j)
  /// for reduces and mirrors.
  std::int64_t rows = 0, cols = 0;
  /// kWorker*Operand only: the root is one of the workers too (small
  /// grids), so it keeps its own block as an operand.
  bool root_is_worker = false;
  /// Members: [group_begin, group_end) of the schedule's member array, in
  /// the order the collective is called with.  kSequentialUnit lists
  /// (P_ik, P_kj, P_ij); kMirror lists (P_ij, P_ji).
  std::int32_t group_begin = 0, group_end = 0;
};

/// Algorithm 1 for one layout and R⁴ strategy, enumerated once in
/// execution order: levels 1..h, regions R¹..R⁴ within a level, and
/// within a region the pivots and groups in the order every rank meets
/// them.  Tags count up from 0 in that order, one per collective (two
/// per sequential unit); a diagonal R⁴ block has no mirror, but its tag
/// is reserved, so a block's reduce and mirror tags are always t and
/// t + 1.  Each rank's own steps keep this global order, so every rank
/// sends, receives and computes in Algorithm 1's order and meets every
/// collective in the same sequence as the other members.
///
/// Building costs O(S + Σ|group|) for S steps; executing costs each rank
/// O(own steps + h).  The table is immutable after construction, so
/// rank threads share one instance.
class SparseSchedule {
 public:
  explicit SparseSchedule(const ApspLayout& layout,
                          R4Strategy strategy = R4Strategy::kOneToOne);

  const ApspLayout& layout() const { return layout_; }
  R4Strategy strategy() const { return strategy_; }
  int height() const { return layout_.tree().height(); }

  /// Every step, in execution order.
  std::span<const ScheduleStep> steps() const { return steps_; }

  /// The steps of region r ∈ {1,2,3,4} (R¹..R⁴) of level l.
  std::span<const ScheduleStep> region_steps(int l, int r) const;

  /// A step's members.
  std::span<const RankId> group(const ScheduleStep& step) const {
    return {members_.data() + step.group_begin,
            members_.data() + step.group_end};
  }

  /// Indices into steps() of the steps `rank` takes part in within
  /// region r of level l, in execution order.
  std::span<const std::int32_t> rank_steps(RankId rank, int l, int r) const;

  /// Phase label of region r of level l: "L<l>/R<r>".
  const std::string& phase(int l, int r) const {
    return phases_[region_index(l, r)];
  }

  /// The schedule consumes tags [0, tags_used()).
  Tag tags_used() const { return tags_used_; }

 private:
  std::size_t region_index(int l, int r) const;

  ApspLayout layout_;
  R4Strategy strategy_;
  std::vector<ScheduleStep> steps_;
  std::vector<RankId> members_;
  std::vector<std::int32_t> region_begin_;  ///< 4h + 1 offsets into steps_
  std::vector<std::int32_t> rank_begin_;    ///< p·4h + 1 offsets (CSR)
  std::vector<std::int32_t> rank_steps_;    ///< step indices, per row
  std::vector<std::string> phases_;
  Tag tags_used_ = 0;
};

}  // namespace capsp
