// Deadlock reports for the machine simulator (docs/robustness.md).
//
// Comm::recv blocks until the matching (src, tag) message arrives; a
// mismatched schedule — or a rank a FaultPlan killed — therefore blocks
// some ranks forever.  The machine is closed (every message comes from a
// rank), so the moment every rank is blocked or finished while some rank
// is blocked, nothing can arrive.  The machine sees that moment exactly:
// it snapshots the blocked-receive wait-for graph, aborts the run, and
// Machine::run throws a DeadlockError carrying the structured
// DeadlockReport below — each blocked (rank, src, tag) with its (L, B)
// logical clock and phase, the dead ranks, and the wait-for cycle if one
// exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"
#include "util/check.hpp"

namespace capsp {

/// One receive that was blocked when the run deadlocked.
struct BlockedRecv {
  RankId rank = 0;   ///< the blocked receiver
  RankId src = 0;    ///< the rank it is waiting on
  Tag tag = 0;
  CostClock clock;   ///< receiver's logical (L, B) clock entering the wait
  std::string phase; ///< receiver's active phase label
};

/// Snapshot of a run in which no rank could proceed.
struct DeadlockReport {
  std::vector<BlockedRecv> blocked; ///< every blocked receive, by rank
  std::vector<RankId> cycle;  ///< wait-for cycle (empty when the blockage
                              ///< is a chain, e.g. into a dead rank)
  std::vector<RankId> dead;   ///< ranks a FaultPlan killed before this

  /// Multi-line human-readable rendering (what apsp_tool prints).
  std::string to_string() const;
};

/// Thrown by Machine::run when the run deadlocks.  Derives check_error so
/// existing catch sites keep working; catch DeadlockError first to get the
/// structured report.
class DeadlockError : public check_error {
 public:
  explicit DeadlockError(DeadlockReport report);
  const DeadlockReport report;
};

/// Find a cycle in the blocked-receive wait-for graph (edges rank -> src).
/// Every blocked rank waits on exactly one source, so the graph is
/// functional and the walk is linear.  Returns the cycle in wait order
/// starting from its smallest rank, or empty when all chains terminate
/// outside the blocked set (e.g. at a dead or still-running rank).
std::vector<RankId> find_wait_cycle(const std::vector<BlockedRecv>& blocked);

}  // namespace capsp
