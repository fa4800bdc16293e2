#include "core/sparse_apsp.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <span>

#include "core/cost_oracle.hpp"
#include "core/regions.hpp"
#include "core/superfw.hpp"
#include "machine/collectives.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

// Supernodal leaves (DESIGN.md decision 11): R¹ eliminates a level-1
// block with SuperFW over the leaf's own nested dissection when the leaf
// is large and its part of the graph separates well; every other diagonal
// block runs ClassicalFW.  The rule reads only the global dissection; its
// constants come from the measured table in DESIGN.md.
constexpr Vertex kLeafMinVertices = 512;
/// The parent separator may hold at most 3/10 of the parent's subtree.
constexpr std::int64_t kParentSeparatorShareTenths = 3;
/// The local dissection stops at sub-leaves of at least this many vertices.
constexpr Vertex kSubLeafMinVertices = 128;
/// Fixed, so a solve stays a function of its input.
constexpr std::uint64_t kLeafDissectionSeed = 1;

/// Height of leaf k's own dissection, or 0 when its block runs ClassicalFW.
int supernodal_leaf_height(const ApspLayout& layout, Snode k) {
  const EliminationTree& tree = layout.tree();
  const Vertex size = layout.size_of(k);
  if (tree.height() == 1 || size < kLeafMinVertices) return 0;
  const Snode parent = tree.parent(k);
  const auto [left, right] = tree.children(parent);
  const std::int64_t subtree = std::int64_t{layout.size_of(parent)} +
                               layout.size_of(left) + layout.size_of(right);
  if (10 * std::int64_t{layout.size_of(parent)} >
      kParentSeparatorShareTenths * subtree)
    return 0;
  int height = 1;  // the largest with 2^(height-1) sub-leaves of >= 128
  while ((std::int64_t{kSubLeafMinVertices} << height) <= size) ++height;
  return height;
}

/// R¹ on a supernodal leaf: dissects the untouched block's non-0̄
/// off-diagonal pattern, the leaf's induced subgraph, to `height` levels,
/// runs SuperFW on the block in that order and writes the closure back
/// in place.  Returns SuperFW's ⊗ count.
std::int64_t eliminate_leaf(DistBlock& block, int height,
                            const SemiringKernels& kernels) {
  ProfScope prof("core.sparse.leaf");
  const auto n = static_cast<Vertex>(block.rows());
  const DistBlock& in = block;
  const Dissection nd = [&] {
    GraphBuilder pattern(n);
    for (Vertex u = 0; u < n; ++u) {
      const Dist* row = in.row(u);
      for (Vertex v = 0; v < n; ++v)
        if (row[v] != kernels.zero) pattern.add_edge(u, v, 1);
    }
    Rng rng(kLeafDissectionSeed);
    return nested_dissection(std::move(pattern).build(), height, rng);
  }();
  DistBlock permuted(n, n);
  for (Vertex a = 0; a < n; ++a) {
    const Dist* from = in.row(nd.iperm[static_cast<std::size_t>(a)]);
    Dist* to = permuted.row(a);
    for (Vertex b = 0; b < n; ++b)
      to[b] = from[nd.iperm[static_cast<std::size_t>(b)]];
  }
  const std::int64_t ops = superfw_eliminate(permuted, nd, kernels).ops;
  undo_dissection_into(block, nd, 0, 0, permuted);
  return ops;
}

/// One rank's state while it runs its steps of the schedule.
struct RankCtx {
  Comm& comm;
  const SparseSchedule& schedule;
  DistBlock& local;
  CollectiveAlgorithm collectives;
  SemiringKernels kernels;
  std::int64_t ops = 0;  // scalar ⊗ operations this rank performed

  // Operands held between steps.  A rank owns at most one R³ block per
  // level (its pivot is unique) and drops its operands after the update;
  // it serves at most one pivot per level as an R⁴ worker (its grid
  // column fixes k), with operands keyed by subset level a (A(i,k)) and
  // c (A(k,j)) and dropped when the next level starts.
  std::optional<DistBlock> r3_aik{}, r3_akj{};
  std::vector<std::optional<DistBlock>> worker_aik{}, worker_akj{};
  Snode worker_pivot = 0;

  /// Drops the previous level's worker operands.
  void start_level() {
    const auto levels = static_cast<std::size_t>(schedule.height()) + 1;
    worker_aik.assign(levels, std::nullopt);
    worker_akj.assign(levels, std::nullopt);
    worker_pivot = 0;
  }

  bool is_root(const ScheduleStep& step) const {
    return comm.rank() == step.root;
  }

  /// The step's block after its broadcast, on every member: the one
  /// payload the root snapshot from its `local`, which stays private.
  DistBlock broadcast(const ScheduleStep& step) {
    return group_broadcast(comm, schedule.group(step), step.root, local,
                           step.rows, step.cols, step.tag, collectives);
  }

  void run(const ScheduleStep& step, int l);
};

void RankCtx::run(const ScheduleStep& step, int l) {
  switch (step.kind) {
    case StepKind::kDiagonalFw: {
      const int leaf_height =
          l == 1 ? supernodal_leaf_height(schedule.layout(), step.k) : 0;
      ops += leaf_height > 0 ? eliminate_leaf(local, leaf_height, kernels)
                             : kernels.fw(local);
      return;
    }
    case StepKind::kColumnPanel: {
      const DistBlock akk = broadcast(step);
      if (!is_root(step)) ops += kernels.accumulate(local, local, akk);
      return;
    }
    case StepKind::kRowPanel: {
      const DistBlock akk = broadcast(step);
      if (!is_root(step)) ops += kernels.accumulate(local, akk, local);
      return;
    }
    case StepKind::kRowOperand: {
      DistBlock aik = broadcast(step);
      if (!is_root(step)) r3_aik = std::move(aik);
      return;
    }
    case StepKind::kColumnOperand: {
      DistBlock akj = broadcast(step);
      if (!is_root(step)) r3_akj = std::move(akj);
      return;
    }
    case StepKind::kR3Update:
      CAPSP_CHECK_MSG(r3_aik && r3_akj, "rank " << comm.rank()
                                                << " missing R3 operands at "
                                                << "level " << l);
      ops += kernels.accumulate(local, *r3_aik, *r3_akj);
      r3_aik.reset();
      r3_akj.reset();
      return;
    case StepKind::kWorkerRowOperand: {
      DistBlock aik = broadcast(step);
      if (is_root(step) && !step.root_is_worker) return;
      worker_aik[static_cast<std::size_t>(step.a)] = std::move(aik);
      worker_pivot = step.k;
      return;
    }
    case StepKind::kWorkerColumnOperand: {
      DistBlock akj = broadcast(step);
      if (is_root(step) && !step.root_is_worker) return;
      worker_akj[static_cast<std::size_t>(step.c)] = std::move(akj);
      worker_pivot = step.k;
      return;
    }
    case StepKind::kUnitReduce: {
      const auto [k_begin, k_end] =
          schedule.layout().tree().descendant_range_at_level(step.i, l);
      const auto& aik = worker_aik[static_cast<std::size_t>(step.a)];
      const auto& akj = worker_akj[static_cast<std::size_t>(step.c)];
      const bool has_unit = worker_pivot >= k_begin &&
                            worker_pivot < k_end && aik && akj;
      if (is_root(step)) {
        // The owner folds its own unit into `local` and reduces in place.
        if (has_unit) ops += kernels.accumulate(local, *aik, *akj);
        group_reduce(comm, schedule.group(step), step.root, local, step.tag,
                     kernels.combine, collectives);
        return;
      }
      CAPSP_CHECK_MSG(has_unit, "worker " << comm.rank()
                                          << " missing unit for block ("
                                          << step.i << "," << step.j
                                          << ") at level " << l);
      DistBlock contribution(step.rows, step.cols, kernels.zero);
      ops += kernels.accumulate(contribution, *aik, *akj);
      group_reduce(comm, schedule.group(step), step.root, contribution,
                   step.tag, kernels.combine, collectives);
      return;
    }
    case StepKind::kMirror: {
      const RankId mirror = schedule.group(step)[1];
      if (is_root(step)) {
        comm.send_block(mirror, step.tag, local);
      } else {
        local = comm.recv_block(step.root, step.tag, step.rows, step.cols)
                    .transposed();
      }
      return;
    }
    case StepKind::kSequentialUnit: {
      const auto group = schedule.group(step);
      if (comm.rank() == group[0]) comm.send_block(step.root, step.tag, local);
      if (comm.rank() == group[1])
        comm.send_block(step.root, step.tag + 1, local);
      if (is_root(step)) {
        const auto [kr, jc] = schedule.layout().block_shape(step.k, step.j);
        const DistBlock aik =
            comm.recv_block(group[0], step.tag, step.rows, step.cols);
        const DistBlock akj = comm.recv_block(group[1], step.tag + 1, kr, jc);
        ops += kernels.accumulate(local, aik, akj);
      }
      return;
    }
  }
}

/// Names of region r = 1..4 in traces, logs, profiles and metrics.
struct RegionNames {
  const char* label;
  const char* scope;
  const char* ops_metric;
};
constexpr RegionNames kRegionNames[] = {
    {"R1", "core.sparse.r1", "core.sparse.ops_R1"},
    {"R2", "core.sparse.r2", "core.sparse.ops_R2"},
    {"R3", "core.sparse.r3", "core.sparse.ops_R3"},
    {"R4", "core.sparse.r4", "core.sparse.ops_R4"},
};

/// Region completion marker for the flight recorder: a crashed or
/// deadlocked run's dump shows how far each rank got (the phase label
/// itself is stamped by set_phase via the log context).  One
/// instantiation per region, so each region has its own call site and
/// rate-limit budget.
template <int R>
void log_region_done(std::int64_t ops) {
  CAPSP_LOG(kDebug, "core.sparse.region", {"region", kRegionNames[R - 1].label},
            {"ops", ops});
}
constexpr void (*kLogRegionDone[])(std::int64_t) = {
    &log_region_done<1>, &log_region_done<2>, &log_region_done<3>,
    &log_region_done<4>};

}  // namespace

void sparse_apsp_rank(Comm& comm, const SparseSchedule& schedule,
                      DistBlock& local, CollectiveAlgorithm collectives,
                      std::int64_t* ops_out,
                      std::vector<CostClock>* level_clocks_out,
                      const SemiringKernels* kernels) {
  CAPSP_CHECK_MSG(comm.size() == schedule.layout().num_ranks(),
                  "schedule for " << schedule.layout().num_ranks()
                                  << " ranks run on " << comm.size());
  RankCtx ctx{comm, schedule, local, collectives,
              kernels != nullptr ? *kernels
                                 : SemiringKernels::of<MinPlusSemiring>()};
  const std::span<const ScheduleStep> steps = schedule.steps();

  // Each region runs under its own phase label, even on a rank with no
  // step in it; when tracing, the scalar ⊗ operations it performed are
  // stamped on the timeline as a compute record (zero cost — the model
  // meters communication only).
  for (int l = 1; l <= schedule.height(); ++l) {
    ctx.start_level();
    for (int r = 1; r <= 4; ++r) {
      const RegionNames& names = kRegionNames[r - 1];
      comm.set_phase(schedule.phase(l, r));
      ProfScope prof(names.scope);
      const std::int64_t ops_before = ctx.ops;
      for (const std::int32_t s : schedule.rank_steps(comm.rank(), l, r))
        ctx.run(steps[static_cast<std::size_t>(s)], l);
      const std::int64_t ops = ctx.ops - ops_before;
      prof.add_ops(ops);
      comm.record_compute(ops, names.label);
      metrics().counter_add(names.ops_metric, ops);
      kLogRegionDone[r - 1](ops);
    }
    if (level_clocks_out != nullptr) level_clocks_out->push_back(comm.clock());
  }
  if (ops_out != nullptr) *ops_out = ctx.ops;
}

SparseApspResult run_sparse_apsp(const Graph& graph,
                                 const SparseApspOptions& options) {
  Rng rng(options.seed);
  const Dissection nd =
      nested_dissection(graph, options.height, rng, options.bisect);
  return run_sparse_apsp(graph, nd, options);
}

SparseApspResult run_sparse_apsp(const Graph& graph, const Dissection& nd,
                                 const SparseApspOptions& options) {
  return run_sparse_apsp_semiring(
      graph, nd, SemiringKernels::of<MinPlusSemiring>(), options);
}

SparseApspResult run_sparse_apsp_semiring(const Graph& graph,
                                          const Dissection& nd,
                                          const SemiringKernels& kernels,
                                          const SparseApspOptions& options) {
  const ApspLayout layout(nd);
  const Graph reordered = apply_dissection(graph, nd);
  const int p = layout.num_ranks();
  const SparseSchedule schedule = [&] {
    ProfScope prof("core.sparse.schedule");
    return SparseSchedule(layout, options.r4_strategy);
  }();

  SparseApspResult result;
  result.height = nd.tree.height();
  result.num_ranks = p;
  result.separator_size = nd.top_separator_size();

  Machine machine(p);
  machine.enable_tracing(options.trace);
  machine.enable_comm_ledger(options.comm_ledger);
  if (options.fault_plan) machine.set_fault_plan(*options.fault_plan);
  machine.enable_reliable_transport(options.reliable);
  std::vector<CostClock> apsp_clocks(static_cast<std::size_t>(p));
  std::vector<std::vector<CostClock>> level_clocks(
      static_cast<std::size_t>(p));
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);
  if (options.collect_distances)
    result.distances = DistBlock(graph.num_vertices(), graph.num_vertices());
  std::int64_t max_block_words = 0;
  std::mutex stats_mutex;

  machine.run([&](Comm& comm) {
    const auto [i, j] = layout.block_of(comm.rank());
    const VertexRange ri = layout.range_of(i);
    const VertexRange rj = layout.range_of(j);
    comm.set_phase("setup");
    DistBlock local =
        semiring_adjacency_block(reordered, ri.begin, ri.end, rj.begin,
                                 rj.end, kernels.zero, kernels.one);
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      max_block_words = std::max(max_block_words, local.size());
    }
    comm.reset_clock();

    sparse_apsp_rank(comm, schedule, local, options.collectives,
                     &result.ops_per_rank[static_cast<std::size_t>(
                         comm.rank())],
                     &level_clocks[static_cast<std::size_t>(comm.rank())],
                     &kernels);

    apsp_clocks[static_cast<std::size_t>(comm.rank())] = comm.clock();
    comm.set_phase("collect");
    if (!options.collect_distances) return;
    // Each rank's block travels without a copy; rank 0 writes every
    // piece straight into original vertex order.
    const Tag collect_tag = Tag{1} << 41;
    if (comm.rank() != 0) {
      if (!local.empty())
        comm.send_block(0, collect_tag + comm.rank(), std::move(local));
    } else {
      for (RankId r = 0; r < p; ++r) {
        const auto [ii, jj] = layout.block_of(r);
        const VertexRange rri = layout.range_of(ii);
        const VertexRange rrj = layout.range_of(jj);
        if (rri.size() == 0 || rrj.size() == 0) continue;
        const DistBlock piece =
            (r == 0) ? std::move(local)
                     : comm.recv_block(r, collect_tag + r, rri.size(),
                                       rrj.size());
        undo_dissection_into(result.distances, nd, rri.begin, rrj.begin,
                             piece);
      }
    }
  });

  result.costs = machine.report();
  result.costs.critical_latency = 0;
  result.costs.critical_bandwidth = 0;
  for (const auto& clock : apsp_clocks) {
    result.costs.critical_latency =
        std::max(result.costs.critical_latency, clock.latency);
    result.costs.critical_bandwidth =
        std::max(result.costs.critical_bandwidth, clock.words);
  }
  result.max_block_words = max_block_words;
  attach_oracle(result.costs,
                predict_sparse_apsp(static_cast<double>(graph.num_vertices()),
                                    static_cast<double>(result.separator_size),
                                    static_cast<double>(p)));
  metrics().gauge_set("core.sparse.height", result.height);
  metrics().observe("core.sparse.separator_size",
                    static_cast<double>(result.separator_size));
  if (options.trace) result.trace = machine.trace();
  if (options.comm_ledger) {
    result.comm = machine.comm_ledger();
    result.comm_audit = audit_sparse_apsp_comm(
        result.comm, static_cast<double>(graph.num_vertices()),
        static_cast<double>(result.separator_size), static_cast<double>(p),
        result.height);
  }
  result.clock_after_level.assign(static_cast<std::size_t>(nd.tree.height()),
                                  CostClock{});
  for (const auto& per_rank : level_clocks) {
    for (std::size_t l = 0; l < per_rank.size(); ++l)
      result.clock_after_level[l].merge(per_rank[l]);
  }
  return result;
}

int recommend_height(const Graph& graph, int max_ranks) {
  CAPSP_CHECK(max_ranks >= 1);
  const auto n = static_cast<std::int64_t>(graph.num_vertices());
  // The simulator supports at most 4096 ranks; never recommend beyond it.
  const std::int64_t budget = std::min<std::int64_t>(max_ranks, 4096);
  int best = 1;
  for (int h = 2; h < 16; ++h) {
    const std::int64_t side = (std::int64_t{1} << h) - 1;
    if (side * side > budget) break;
    // 2^(h-1) leaves; require a few vertices per leaf on average after
    // the separators take their share (≈ half on small-|S| graphs).
    if ((std::int64_t{1} << (h - 1)) * 8 > n) break;
    best = h;
  }
  return best;
}

SparseApspResult run_sparse_bottleneck(const Graph& graph,
                                       const SparseApspOptions& options) {
  CAPSP_CHECK_MSG(graph.min_edge_weight() > 0 || graph.num_edges() == 0,
                  "bottleneck capacities must be positive");
  Rng rng(options.seed);
  const Dissection nd =
      nested_dissection(graph, options.height, rng, options.bisect);
  return run_sparse_apsp_semiring(
      graph, nd, SemiringKernels::of<MaxMinSemiring>(), options);
}

SparseApspResult run_sparse_closure(const Graph& graph,
                                    const SparseApspOptions& options) {
  // Reachability: run the Boolean semiring over a unit-capacity copy of
  // the graph (edge weights are ignored by ∧ on {0,1} once set to 1).
  GraphBuilder builder(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    for (const auto& nb : graph.neighbors(v))
      if (v < nb.to) builder.add_edge(v, nb.to, 1.0);
  const Graph unit = std::move(builder).build();
  Rng rng(options.seed);
  const Dissection nd =
      nested_dissection(unit, options.height, rng, options.bisect);
  return run_sparse_apsp_semiring(
      unit, nd, SemiringKernels::of<BoolSemiring>(), options);
}

}  // namespace capsp
