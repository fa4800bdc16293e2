#include "core/sparse_apsp.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <string>

#include "core/cost_oracle.hpp"
#include "core/regions.hpp"
#include "machine/collectives.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

/// A(k) ∪ D(k), ascending.
std::vector<Snode> related_set(const EliminationTree& tree, Snode k) {
  std::vector<Snode> out = tree.descendants(k);
  const auto anc = tree.ancestors(k);
  out.insert(out.end(), anc.begin(), anc.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Append `rank` unless already present (worker groups may coincide with
/// panel owners / reduce roots on small grids).
void add_unique(std::vector<RankId>& group, RankId rank) {
  if (std::find(group.begin(), group.end(), rank) == group.end())
    group.push_back(rank);
}

bool contains(const std::vector<RankId>& group, RankId rank) {
  return std::find(group.begin(), group.end(), rank) != group.end();
}

/// Worker grid row for subset R⁴(a,c) under the chosen strategy:
/// the paper's injective map, or a deliberately shared row (the design
/// point Lemma 5.1 warns about — blocks then serialize on their workers).
Snode strategy_worker_row(const EliminationTree& tree, int l, int a, int c,
                          R4Strategy strategy) {
  return strategy == R4Strategy::kOneToOne ? r4_worker_row(tree, l, a, c)
                                           : Snode{1};
}

/// Per-rank context for one invocation of the SPMD body.
struct RankCtx {
  const ApspLayout& layout;
  Snode bi, bj;  // my block coordinates (supernode labels)
  R4Strategy strategy;
  CollectiveAlgorithm collectives;
  SemiringKernels kernels;
  Tag tag = 0;
  std::int64_t ops = 0;  // scalar ⊗ operations this rank performed
};

/// ---- R¹: diagonal updates (Alg. 1 line 4) — no communication. ----
void update_r1(Comm&, RankCtx& ctx, DistBlock& local, int l) {
  if (ctx.bi == ctx.bj && ctx.layout.tree().level_of(ctx.bi) == l)
    ctx.ops += ctx.kernels.fw(local);
}

/// ---- R²: panel updates (Alg. 1 lines 5-8). ----
void update_r2(Comm& comm, RankCtx& ctx, DistBlock& local, int l) {
  const EliminationTree& tree = ctx.layout.tree();
  for (Snode k : tree.level_set(l)) {
    const auto related = related_set(tree, k);
    const auto [krows, kcols] = ctx.layout.block_shape(k, k);

    // Column panel: P_kk broadcasts A(k,k) down column k.
    {
      std::vector<RankId> group{ctx.layout.rank_of(k, k)};
      for (Snode i : related) group.push_back(ctx.layout.rank_of(i, k));
      const Tag t = ctx.tag++;
      if (contains(group, comm.rank())) {
        DistBlock akk(krows, kcols);
        if (ctx.bi == k && ctx.bj == k) akk = local;
        group_broadcast(comm, group, ctx.layout.rank_of(k, k), akk, t,
                        ctx.collectives);
        if (ctx.bj == k && ctx.bi != k)
          ctx.ops += ctx.kernels.accumulate(local, local, akk);
      }
    }
    // Row panel: P_kk broadcasts A(k,k) along row k.
    {
      std::vector<RankId> group{ctx.layout.rank_of(k, k)};
      for (Snode j : related) group.push_back(ctx.layout.rank_of(k, j));
      const Tag t = ctx.tag++;
      if (contains(group, comm.rank())) {
        DistBlock akk(krows, kcols);
        if (ctx.bi == k && ctx.bj == k) akk = local;
        group_broadcast(comm, group, ctx.layout.rank_of(k, k), akk, t,
                        ctx.collectives);
        if (ctx.bi == k && ctx.bj != k)
          ctx.ops += ctx.kernels.accumulate(local, akk, local);
      }
    }
  }
}

/// ---- R³: single-unit blocks (Alg. 1 lines 9-11). ----
void update_r3(Comm& comm, RankCtx& ctx, DistBlock& local, int l) {
  const EliminationTree& tree = ctx.layout.tree();
  for (Snode k : tree.level_set(l)) {
    const auto related = related_set(tree, k);
    std::optional<DistBlock> got_aik, got_akj;

    // Column-panel owners P_ik broadcast A(i,k) along row i.  An ancestor
    // panel only needs to reach descendant columns (ancestor×ancestor
    // blocks belong to R⁴).
    for (Snode i : related) {
      std::vector<RankId> group{ctx.layout.rank_of(i, k)};
      const bool i_desc = tree.is_descendant(i, k);
      for (Snode j : related) {
        if (!i_desc && !tree.is_descendant(j, k)) continue;
        group.push_back(ctx.layout.rank_of(i, j));
      }
      const Tag t = ctx.tag++;
      if (!contains(group, comm.rank())) continue;
      const auto [rows, cols] = ctx.layout.block_shape(i, k);
      DistBlock aik(rows, cols);
      if (ctx.bi == i && ctx.bj == k) aik = local;
      group_broadcast(comm, group, ctx.layout.rank_of(i, k), aik, t,
                      ctx.collectives);
      if (ctx.bi == i && ctx.bj != k) got_aik = std::move(aik);
    }

    // Row-panel owners P_kj broadcast A(k,j) down column j.
    for (Snode j : related) {
      std::vector<RankId> group{ctx.layout.rank_of(k, j)};
      const bool j_desc = tree.is_descendant(j, k);
      for (Snode i : related) {
        if (!j_desc && !tree.is_descendant(i, k)) continue;
        group.push_back(ctx.layout.rank_of(i, j));
      }
      const Tag t = ctx.tag++;
      if (!contains(group, comm.rank())) continue;
      const auto [rows, cols] = ctx.layout.block_shape(k, j);
      DistBlock akj(rows, cols);
      if (ctx.bi == k && ctx.bj == j) akj = local;
      group_broadcast(comm, group, ctx.layout.rank_of(k, j), akj, t,
                      ctx.collectives);
      if (ctx.bj == j && ctx.bi != k) got_akj = std::move(akj);
    }

    // Local update (line 11): both operands present exactly on R³ blocks.
    if (got_aik && got_akj)
      ctx.ops += ctx.kernels.accumulate(local, *got_aik, *got_akj);
  }
}

/// Mirror an updated R⁴ block to its transposed owner (Alg. 1 line 25).
void mirror_block(Comm& comm, RankCtx& ctx, DistBlock& local, Snode i,
                  Snode j, Tag t_mirror) {
  if (i == j) return;
  const RankId owner = ctx.layout.rank_of(i, j);
  const RankId mirror = ctx.layout.rank_of(j, i);
  if (comm.rank() == owner) comm.send_block(mirror, t_mirror, local);
  if (comm.rank() == mirror) {
    const auto [rows, cols] = ctx.layout.block_shape(i, j);
    local = comm.recv_block(owner, t_mirror, rows, cols).transposed();
  }
}

/// ---- R⁴, trivial strategy (Sec. 5.2.2's strawman): the block owner
/// receives every operand itself and runs the units sequentially. ----
void update_r4_sequential(Comm& comm, RankCtx& ctx, DistBlock& local,
                          int l) {
  const EliminationTree& tree = ctx.layout.tree();
  const int h = tree.height();
  for (int a = l + 1; a <= h; ++a) {
    for (Snode i : tree.level_set(a)) {
      const auto [k_begin, k_end] = tree.descendant_range_at_level(i, l);
      for (int c = a; c <= h; ++c) {
        const Snode j = tree.ancestor_at_level(i, c);
        const RankId owner = ctx.layout.rank_of(i, j);
        for (Snode k = k_begin; k < k_end; ++k) {
          const RankId p_ik = ctx.layout.rank_of(i, k);
          const RankId p_kj = ctx.layout.rank_of(k, j);
          const Tag t1 = ctx.tag++;
          const Tag t2 = ctx.tag++;
          // Panel rows/columns are distinct from the owner (levels differ),
          // so these are always real messages.
          if (comm.rank() == p_ik) comm.send_block(owner, t1, local);
          if (comm.rank() == p_kj) comm.send_block(owner, t2, local);
          if (comm.rank() == owner) {
            const auto [ir, kc] = ctx.layout.block_shape(i, k);
            const auto [kr, jc] = ctx.layout.block_shape(k, j);
            const DistBlock aik = comm.recv_block(p_ik, t1, ir, kc);
            const DistBlock akj = comm.recv_block(p_kj, t2, kr, jc);
            ctx.ops += ctx.kernels.accumulate(local, aik, akj);
          }
        }
        mirror_block(comm, ctx, local, i, j, ctx.tag++);
      }
    }
  }
}

/// ---- R⁴ with worker fan-out: the paper's one-to-one mapping
/// (kOneToOne) or the shared-row variant (kSharedWorkers). ----
void update_r4_workers(Comm& comm, RankCtx& ctx, DistBlock& local, int l) {
  const EliminationTree& tree = ctx.layout.tree();
  const int h = tree.height();

  // Operands this rank holds as a worker, keyed by the subset level; a
  // rank serves at most one pivot k per level (its grid column fixes k).
  std::map<int, DistBlock> my_aik;  // a -> A(i,k), i = anc(k, a)
  std::map<int, DistBlock> my_akj;  // c -> A(k,j), j = anc(k, c)
  Snode my_pivot = 0;

  // (a) Operand broadcasts from the R² panels to the workers P_fg
  //     (Alg. 1 lines 13-18).
  for (Snode k : tree.level_set(l)) {
    const Snode g = r4_worker_col(tree, l, k);
    for (int a = l + 1; a <= h; ++a) {
      const Snode i = tree.ancestor_at_level(k, a);
      std::vector<RankId> group{ctx.layout.rank_of(i, k)};
      for (int c = a; c <= h; ++c)
        add_unique(group,
                   ctx.layout.rank_of(
                       strategy_worker_row(tree, l, a, c, ctx.strategy), g));
      const Tag t = ctx.tag++;
      if (!contains(group, comm.rank())) continue;
      const auto [rows, cols] = ctx.layout.block_shape(i, k);
      DistBlock aik(rows, cols);
      if (ctx.bi == i && ctx.bj == k) aik = local;
      group_broadcast(comm, group, ctx.layout.rank_of(i, k), aik, t,
                      ctx.collectives);
      for (int c = a; c <= h; ++c) {
        if (comm.rank() ==
            ctx.layout.rank_of(
                strategy_worker_row(tree, l, a, c, ctx.strategy), g)) {
          my_aik[a] = aik;
          my_pivot = k;
          break;
        }
      }
    }
    for (int c = l + 1; c <= h; ++c) {
      const Snode j = tree.ancestor_at_level(k, c);
      std::vector<RankId> group{ctx.layout.rank_of(k, j)};
      for (int a = l + 1; a <= c; ++a)
        add_unique(group,
                   ctx.layout.rank_of(
                       strategy_worker_row(tree, l, a, c, ctx.strategy), g));
      const Tag t = ctx.tag++;
      if (!contains(group, comm.rank())) continue;
      const auto [rows, cols] = ctx.layout.block_shape(k, j);
      DistBlock akj(rows, cols);
      if (ctx.bi == k && ctx.bj == j) akj = local;
      group_broadcast(comm, group, ctx.layout.rank_of(k, j), akj, t,
                      ctx.collectives);
      for (int a = l + 1; a <= c; ++a) {
        if (comm.rank() ==
            ctx.layout.rank_of(
                strategy_worker_row(tree, l, a, c, ctx.strategy), g)) {
          my_akj[c] = akj;
          my_pivot = k;
          break;
        }
      }
    }
  }

  // (b)+(c) Per block: workers compute their units (lines 19-22) and
  // min-plus-reduce to the owner (line 23); (d) the owner mirrors the
  // result to the transposed block (line 25).
  for (int a = l + 1; a <= h; ++a) {
    for (int c = a; c <= h; ++c) {
      const Snode f = strategy_worker_row(tree, l, a, c, ctx.strategy);
      for (Snode i : tree.level_set(a)) {
        const Snode j = tree.ancestor_at_level(i, c);
        const auto [k_begin, k_end] = tree.descendant_range_at_level(i, l);
        std::vector<RankId> group;
        for (Snode k = k_begin; k < k_end; ++k)
          group.push_back(ctx.layout.rank_of(f, r4_worker_col(tree, l, k)));
        const RankId owner = ctx.layout.rank_of(i, j);
        add_unique(group, owner);
        const Tag t = ctx.tag++;
        const Tag t_mirror = ctx.tag++;
        if (contains(group, comm.rank())) {
          const bool my_unit_belongs_here =
              my_pivot >= k_begin && my_pivot < k_end && my_aik.count(a) &&
              my_akj.count(c);
          DistBlock contribution;
          if (comm.rank() == owner) {
            contribution = local;
            if (my_unit_belongs_here)
              ctx.ops += ctx.kernels.accumulate(contribution, my_aik.at(a),
                                                my_akj.at(c));
          } else {
            CAPSP_CHECK_MSG(my_unit_belongs_here,
                            "worker " << comm.rank()
                                      << " missing unit for block (" << i
                                      << "," << j << ") at level " << l);
            const auto [rows, cols] = ctx.layout.block_shape(i, j);
            contribution = DistBlock(rows, cols, ctx.kernels.zero);
            ctx.ops += ctx.kernels.accumulate(contribution, my_aik.at(a),
                                              my_akj.at(c));
          }
          group_reduce(comm, group, owner, contribution, t,
                       ctx.kernels.combine, ctx.collectives);
          if (comm.rank() == owner) local = std::move(contribution);
        }
        mirror_block(comm, ctx, local, i, j, t_mirror);
      }
    }
  }
}

}  // namespace

void sparse_apsp_rank(Comm& comm, const ApspLayout& layout, DistBlock& local,
                      R4Strategy strategy, CollectiveAlgorithm collectives,
                      std::int64_t* ops_out,
                      std::vector<CostClock>* level_clocks_out,
                      const SemiringKernels* kernels) {
  const EliminationTree& tree = layout.tree();
  const auto [bi, bj] = layout.block_of(comm.rank());
  const SemiringKernels effective =
      kernels != nullptr ? *kernels
                         : SemiringKernels::of<MinPlusSemiring>();
  RankCtx ctx{layout, bi, bj, strategy, collectives, effective};

  // Each region runs under its own phase label; when tracing, the scalar
  // ⊗ operations it performed are stamped on the timeline as a compute
  // record (zero cost — the model meters communication only).
  const auto region = [&](const std::string& phase, const char* label,
                          const char* scope, auto&& update) {
    comm.set_phase(phase);
    ProfScope prof(scope);
    const std::int64_t ops_before = ctx.ops;
    update();
    prof.add_ops(ctx.ops - ops_before);
    comm.record_compute(ctx.ops - ops_before, label);
    metrics().counter_add(std::string("core.sparse.ops_") + label,
                          ctx.ops - ops_before);
    // Region completion marker for the flight recorder: a crashed or
    // deadlocked run's dump shows how far each rank got (the phase
    // label itself is stamped by set_phase via the log context).
    CAPSP_LOG(kDebug, "core.sparse.region", {"region", label},
              {"ops", ctx.ops - ops_before});
  };
  for (int l = 1; l <= tree.height(); ++l) {
    const std::string prefix = "L" + std::to_string(l) + "/";
    region(prefix + "R1", "R1", "core.sparse.r1",
           [&] { update_r1(comm, ctx, local, l); });
    region(prefix + "R2", "R2", "core.sparse.r2",
           [&] { update_r2(comm, ctx, local, l); });
    region(prefix + "R3", "R3", "core.sparse.r3",
           [&] { update_r3(comm, ctx, local, l); });
    region(prefix + "R4", "R4", "core.sparse.r4", [&] {
      if (strategy == R4Strategy::kSequential) {
        update_r4_sequential(comm, ctx, local, l);
      } else {
        update_r4_workers(comm, ctx, local, l);
      }
    });
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

  SparseApspResult result;
  result.height = nd.tree.height();
  result.num_ranks = p;
  result.separator_size = nd.top_separator_size();

  Machine machine(p);
  machine.enable_tracing(options.trace);
  machine.enable_comm_ledger(options.comm_ledger);
  if (options.fault_plan) machine.set_fault_plan(*options.fault_plan);
  machine.enable_reliable_transport(options.reliable);
  if (options.recv_timeout > 0) machine.set_recv_timeout(options.recv_timeout);
  std::vector<CostClock> apsp_clocks(static_cast<std::size_t>(p));
  std::vector<std::vector<CostClock>> level_clocks(
      static_cast<std::size_t>(p));
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);
  DistBlock permuted(options.collect_distances ? graph.num_vertices() : 0,
                     options.collect_distances ? graph.num_vertices() : 0);
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

    sparse_apsp_rank(comm, layout, local, options.r4_strategy,
                     options.collectives,
                     &result.ops_per_rank[static_cast<std::size_t>(
                         comm.rank())],
                     &level_clocks[static_cast<std::size_t>(comm.rank())],
                     &kernels);

    apsp_clocks[static_cast<std::size_t>(comm.rank())] = comm.clock();
    comm.set_phase("collect");
    if (!options.collect_distances) return;
    const Tag collect_tag = Tag{1} << 41;
    if (comm.rank() != 0) {
      if (!local.empty())
        comm.send_block(0, collect_tag + comm.rank(), local);
    } else {
      for (RankId r = 0; r < p; ++r) {
        const auto [ii, jj] = layout.block_of(r);
        const VertexRange rri = layout.range_of(ii);
        const VertexRange rrj = layout.range_of(jj);
        if (rri.size() == 0 || rrj.size() == 0) continue;
        const DistBlock piece =
            (r == 0) ? local
                     : comm.recv_block(r, collect_tag + r, rri.size(),
                                       rrj.size());
        permuted.set_sub_block(rri.begin, rrj.begin, piece);
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

  if (options.collect_distances) {
    result.distances = undo_dissection(permuted, nd);
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
