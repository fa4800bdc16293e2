#include "machine/watchdog.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace capsp {

std::string DeadlockReport::to_string() const {
  std::ostringstream os;
  os << "deadlock: no rank can proceed; " << blocked.size()
     << " blocked receive" << (blocked.size() == 1 ? "" : "s");
  if (!dead.empty()) {
    os << ", " << dead.size() << " dead rank" << (dead.size() == 1 ? "" : "s");
  }
  os << '\n';
  for (const BlockedRecv& b : blocked) {
    os << "  rank " << b.rank << " <- (src " << b.src << ", tag " << b.tag
       << ") phase \"" << b.phase << "\" clock (L=" << b.clock.latency
       << ", B=" << b.clock.words << ")\n";
  }
  if (!dead.empty()) {
    os << "  dead ranks:";
    for (RankId r : dead) os << ' ' << r;
    os << '\n';
  }
  if (!cycle.empty()) {
    os << "  wait cycle:";
    for (RankId r : cycle) os << ' ' << r << " ->";
    os << ' ' << cycle.front() << '\n';
  }
  return os.str();
}

DeadlockError::DeadlockError(DeadlockReport r)
    : check_error(r.to_string()), report(std::move(r)) {
  // Post-mortem: the structured report is the exception payload; the
  // log event and the flight-recorder dump (when a dump path is
  // configured) preserve what every rank was doing before the
  // run deadlocked.  kWarn, not kError: tests provoke deadlocks on
  // purpose and the error path already throws.
  CAPSP_LOG(kWarn, "machine.deadlock",
            {"blocked", report.blocked.size()},
            {"dead", report.dead.size()},
            {"cycle", report.cycle.size()});
  flightrec::dump_if_configured("deadlock");
}

std::vector<RankId> find_wait_cycle(
    const std::vector<BlockedRecv>& blocked) {
  std::map<RankId, RankId> waits_on;
  for (const BlockedRecv& b : blocked) waits_on[b.rank] = b.src;

  // Walk the functional graph from each node; three colors suffice.
  enum class Mark : std::uint8_t { kWhite, kGray, kBlack };
  std::map<RankId, Mark> mark;
  for (const auto& [rank, src] : waits_on) mark[rank] = Mark::kWhite;

  for (const auto& [start, ignored] : waits_on) {
    if (mark[start] != Mark::kWhite) continue;
    std::vector<RankId> path;
    RankId cur = start;
    while (waits_on.count(cur) > 0 && mark[cur] == Mark::kWhite) {
      mark[cur] = Mark::kGray;
      path.push_back(cur);
      cur = waits_on[cur];
    }
    if (waits_on.count(cur) > 0 && mark[cur] == Mark::kGray) {
      // Found the cycle: the tail of `path` from `cur` onward.
      const auto at = std::find(path.begin(), path.end(), cur);
      std::vector<RankId> cycle(at, path.end());
      // Normalize: start at the smallest rank, preserving wait order.
      const auto min_it = std::min_element(cycle.begin(), cycle.end());
      std::rotate(cycle.begin(), min_it, cycle.end());
      return cycle;
    }
    for (RankId r : path) mark[r] = Mark::kBlack;
  }
  return {};
}

}  // namespace capsp
