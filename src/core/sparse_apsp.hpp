// 2D-SPARSE-APSP (paper Sec. 5, Algorithm 1): the communication-avoiding
// distributed APSP algorithm for sparse graphs.
//
// Pipeline:
//   1. pre-process: nested dissection to h = log2(√p + 1) levels; the
//      reordered matrix gets the block-arrow structure (Sec. 4);
//   2. layout: block A(i,j) on processor P_ij of the √p × √p grid
//      (Sec. 5.1);
//   3. schedule: Algorithm 1 enumerated once into a step table
//      (SparseSchedule, core/regions.hpp);
//   4. eliminate supernodes level by level, each rank running only its
//      own steps; each level updates the four regions R¹..R⁴ with the
//      schedule of Sec. 5.2 — in particular R⁴ computing units fan out
//      one-to-one onto worker processors P_fg (Cor. 5.5) and reduce back,
//      which is what brings the per-level latency to O(log p) and the
//      total to O(log² p).
//
// Costs are metered by the machine simulator; see DESIGN.md for how the
// numbers map onto the paper's Table 2.
#pragma once

#include <optional>

#include "core/cost_oracle.hpp"
#include "core/layout.hpp"
#include "core/regions.hpp"
#include "graph/graph.hpp"
#include "machine/collectives.hpp"
#include "machine/machine.hpp"
#include "semiring/semirings.hpp"
#include "partition/nested_dissection.hpp"
#include "util/rng.hpp"

namespace capsp {

struct SparseApspOptions {
  /// eTree height h; the machine has p = (2^h - 1)² ranks.
  int height = 2;
  /// Partitioner knobs for the ND pre-processing.
  BisectOptions bisect{};
  /// Seed for the (deterministic) partitioner.
  std::uint64_t seed = 42;
  /// Skip result collection (cost-measurement sweeps don't need the n²
  /// gather and it dominates wall time at large n).
  bool collect_distances = true;
  /// R⁴ scheduling strategy (ablation knob; default = the paper's).
  R4Strategy r4_strategy = R4Strategy::kOneToOne;
  /// Broadcast/reduce implementation (ablation knob): binomial trees
  /// (the paper's O(log p) messages, O(w·log p) words) or pipelined
  /// scatter-allgather (O(|group|) messages, O(w) words).
  CollectiveAlgorithm collectives = CollectiveAlgorithm::kBinomialTree;
  /// Record per-rank event timelines (Machine::enable_tracing); the
  /// timelines land in SparseApspResult::trace.  Purely observational —
  /// the metered costs are bit-identical on or off.
  bool trace = false;
  /// Record the per-channel communication ledger
  /// (Machine::enable_comm_ledger); the merged ledger and its
  /// message-optimality audit land in SparseApspResult::comm /
  /// comm_audit.  Observational like tracing.
  bool comm_ledger = false;
  /// Inject faults per this plan during the run (docs/robustness.md).
  /// Message faults need `reliable` to produce correct distances; a plan
  /// with a kill ends in a DeadlockError carrying the watchdog's report.
  std::optional<FaultPlan> fault_plan;
  /// Route all machine traffic through the ReliableComm protocol layer;
  /// the overhead lands in SparseApspResult::costs.
  bool reliable = false;
  /// Deadlock-watchdog budget in wall-clock seconds (0 = default: off,
  /// or kDefaultFaultRecvTimeout when fault_plan is set).
  double recv_timeout = 0;
};

struct SparseApspResult {
  DistBlock distances;     ///< APSP in original vertex order (empty if not
                           ///< collected)
  CostReport costs;        ///< costs of the elimination phase only
  Vertex separator_size = 0;  ///< |S| of the top-level separator
  int height = 0;             ///< eTree height h
  int num_ranks = 0;          ///< p = (2^h - 1)²
  std::int64_t max_block_words = 0;  ///< largest per-rank block (memory M)
  /// Scalar ⊗ operations each rank performed (Sec. 5.1's load-balance
  /// discussion: computation per processor, measured not assumed).
  std::vector<std::int64_t> ops_per_rank;
  /// Machine-wide clock (max over ranks) after each level's elimination;
  /// index l-1 for level l.  Successive differences are the per-level
  /// critical costs L_l and B_l of Lemmas 5.6/5.9, measured directly.
  std::vector<CostClock> clock_after_level;
  /// Per-rank event timelines (empty unless options.trace); feed to
  /// extract_critical_path / write_chrome_trace.
  Trace trace;
  /// Merged per-channel communication ledger and its message-optimality
  /// audit (present only with options.comm_ledger) — docs/cost-model.md,
  /// "Reading the comm heatmap".
  CommLedger comm;
  CommAudit comm_audit;
};

/// SPMD body of Algorithm 1.  Every rank of a p = N²-rank machine calls
/// this with the same schedule and its block of the *reordered* adjacency
/// matrix, and runs only its own steps of the schedule; on return the
/// block holds the shortest distances.  Tags in
/// [0, schedule.tags_used()) are consumed, always fewer than 2^40.
void sparse_apsp_rank(
    Comm& comm, const SparseSchedule& schedule, DistBlock& local,
    CollectiveAlgorithm collectives = CollectiveAlgorithm::kBinomialTree,
    std::int64_t* ops_out = nullptr,
    std::vector<CostClock>* level_clocks_out = nullptr,
    const SemiringKernels* kernels = nullptr);

/// Driver: pre-process, build the machine, run, gather, un-permute.
SparseApspResult run_sparse_apsp(const Graph& graph,
                                 const SparseApspOptions& options = {});

/// Run on a pre-computed dissection (lets callers reuse/inspect the ND);
/// options.height is ignored (the dissection fixes it).
SparseApspResult run_sparse_apsp(const Graph& graph, const Dissection& nd,
                                 const SparseApspOptions& options = {});

/// Algorithm 1's schedule over an arbitrary closed semiring: identical
/// machine, identical communication pattern; only the block kernels and
/// the adjacency semantics (0̄ for non-edge, 1̄ on the diagonal) change.
/// This is Carré's observation made executable in the distributed
/// setting: .distances holds the semiring closure.
SparseApspResult run_sparse_apsp_semiring(
    const Graph& graph, const Dissection& nd,
    const SemiringKernels& kernels, const SparseApspOptions& options = {});

/// Distributed bottleneck (widest-path) matrix over (max, min): entry
/// (u,v) of .distances is the best achievable minimum edge capacity on a
/// u→v path (+inf diagonal, 0 when unreachable).  Edge weights act as
/// capacities and must be positive.
SparseApspResult run_sparse_bottleneck(const Graph& graph,
                                       const SparseApspOptions& options = {});

/// Distributed transitive closure over the Boolean semiring: entry (u,v)
/// of .distances is 1 when connected, 0 otherwise.
SparseApspResult run_sparse_closure(const Graph& graph,
                                    const SparseApspOptions& options = {});

/// Suggest an eTree height for `graph` under a machine-size budget:
/// the largest h with p = (2^h - 1)² <= max_ranks whose leaf supernodes
/// still hold a few vertices each (so blocks are worth a rank).
/// Always returns at least 1.
int recommend_height(const Graph& graph, int max_ranks = 1024);

}  // namespace capsp
