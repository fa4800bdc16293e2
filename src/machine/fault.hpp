// Deterministic fault injection for the machine simulator
// (docs/robustness.md).
//
// A FaultPlan describes, as data, what the "network" does to a run: with
// which probability a physical message transmission is dropped, duplicated,
// bit-corrupted, or delayed (reordered), and which ranks stall or die at a
// chosen operation index.  A FaultInjector executes the plan with one
// xoshiro stream per rank, so decisions depend only on (seed, rank,
// transmission index) — never on thread scheduling — and an identical plan
// replays an identical fault sequence.  machine.cpp consults the injector
// on every physical transmission (Comm::transmit) and on every logical
// operation (Comm::send / Comm::recv entry).
//
// The fault model is the adversary the reliable-delivery layer
// (reliable.hpp) is tested against and deadlock reports (watchdog.hpp)
// describe; see docs/robustness.md for the full semantics, including
// which fault combinations are survivable.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"
#include "semiring/dist.hpp"
#include "semiring/payload.hpp"
#include "util/rng.hpp"

namespace capsp {

/// Fate of one physical message transmission.
enum class FaultDecision : std::uint8_t {
  kDeliver,    ///< arrives intact
  kDrop,       ///< vanishes (sender's link sees a timeout)
  kDuplicate,  ///< arrives twice
  kCorrupt,    ///< arrives with one payload bit flipped
  kDelay,      ///< held back, delivered after the sender's next send
};

/// A per-rank process fault: at logical operation `op_index` (counting
/// this rank's Comm::send/Comm::recv calls from 0), the rank stalls for
/// `stall_seconds` — or, when `stall_seconds` is 0, dies (its thread
/// unwinds silently; messages it owed are never sent).
struct RankFault {
  std::int64_t op_index = 0;
  double stall_seconds = 0;  ///< 0 means kill
};

/// A declarative, seed-driven fault schedule for one or more runs.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Per-transmission fault probabilities; mutually exclusive per
  /// message, so their sum must be <= 1.
  double drop = 0;
  double duplicate = 0;
  double corrupt = 0;
  double delay = 0;
  /// At most one stall/kill per rank.
  std::map<RankId, RankFault> rank_faults;

  bool has_message_faults() const {
    return drop + duplicate + corrupt + delay > 0;
  }
  bool empty() const { return !has_message_faults() && rank_faults.empty(); }

  /// Parse a comma-separated spec, e.g.
  ///   "seed=7,drop=0.05,dup=0.01,corrupt=0.02,delay=0.05,kill=3@120"
  /// Keys: seed=N, drop/dup/corrupt/delay=P (probabilities),
  /// kill=R@K (rank R dies at its K-th operation),
  /// stall=R@K:S (rank R sleeps S seconds at its K-th operation).
  /// CHECK-fails on unknown keys, malformed values, probability sums > 1,
  /// or a stall that is not finite or does not fit std::chrono::nanoseconds.
  static FaultPlan parse(const std::string& spec);

  /// Round-trips through parse().
  std::string to_string() const;
};

/// Thrown inside a rank's thread when the plan kills it.  Machine::run
/// treats it specially: the rank's thread exits without aborting the
/// machine, exactly as a crashed process looks to the survivors — they
/// block on its messages, and once no rank can proceed the run is
/// reported as deadlocked with this rank among the dead.
class RankKilledError : public std::runtime_error {
 public:
  RankKilledError(RankId killed_rank, std::int64_t killed_at)
      : std::runtime_error("rank " + std::to_string(killed_rank) +
                           " killed by fault plan at operation " +
                           std::to_string(killed_at)),
        rank(killed_rank),
        op_index(killed_at) {}
  const RankId rank;
  const std::int64_t op_index;
};

/// Executes a FaultPlan deterministically.  Each rank draws from its own
/// stream and mutates only its own slot, so no locking is needed on the
/// decision path; the `dead` flags are atomic because the rank that
/// detects a deadlock reads them while building the DeadlockReport.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int num_ranks);

  /// Count one logical operation on `rank`; stalls or throws
  /// RankKilledError when the plan says so.
  void on_op(RankId rank);

  /// Decide the fate of `src`'s next physical transmission (advances the
  /// rank's stream).
  FaultDecision decide(RankId src);

  /// A private copy of `frame` with one deterministic bit flipped (`frame`
  /// itself when empty).  Never writes `frame`: a shared payload also
  /// reaches the sender's other receivers and the sender itself.
  Payload corrupted_copy(RankId src, const Payload& frame);

  bool is_dead(RankId rank) const {
    return ranks_[static_cast<std::size_t>(rank)].dead.load();
  }
  std::vector<RankId> dead_ranks() const;

  /// Injected-fault totals across ranks (read after the run joins).
  FaultCounts counts() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct PerRank {
    Rng rng{0};
    std::int64_t ops = 0;
    std::atomic<bool> dead{false};
    FaultCounts counts;
  };

  FaultPlan plan_;
  std::vector<PerRank> ranks_;
};

}  // namespace capsp
