// Communication cost accounting (paper Sec. 3.1).
//
// The paper measures two quantities along the critical path, after Yang &
// Miller: latency cost L (number of messages) and bandwidth cost B (number
// of words).  Messages between separate pairs of processors that overlap in
// time are counted once.  We meter this with a logical clock per rank:
//
//   send(dst, w):  clock += (1, w); the message carries the new clock
//   recv(src):     clock  = max(clock + (1, w), message.clock)   [per axis]
//
// The +(1, w) on the receive models assumption (2) of the paper — a
// processor can receive only one message at a time, so back-to-back
// receives serialize — while the max() keeps disjoint concurrent transfers
// from accumulating.  The machine-wide critical-path cost is the max of the
// clocks where the ranks stopped them (Comm::stop_clock(); a rank that
// never stops counts with its final clock); message/word *volumes*, per
// rank and per algorithm phase so each lemma's per-region decomposition
// can be checked, are folded after the run from the per-rank CommRecords
// below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace capsp {

using RankId = int;
using Tag = std::int64_t;

/// Logical (latency, words) clock carried by every message.
struct CostClock {
  double latency = 0;
  double words = 0;

  void advance(double messages, double word_count) {
    latency += messages;
    words += word_count;
  }

  /// Which side of a merge supplied each axis of the result — the blame
  /// record the critical-path walk (trace.hpp) follows backward.
  struct MergeOutcome {
    bool latency_from_other = false;
    bool words_from_other = false;
  };

  /// Componentwise max (join of two histories), reporting per axis
  /// whether `other` won.  Ties blame the local history, so walks are
  /// deterministic and never cross a message that added nothing.
  MergeOutcome merge(const CostClock& other) {
    MergeOutcome outcome;
    if (other.latency > latency) {
      latency = other.latency;
      outcome.latency_from_other = true;
    }
    if (other.words > words) {
      words = other.words;
      outcome.words_from_other = true;
    }
    return outcome;
  }
};

/// Counters of the reliable-delivery layer (reliable.hpp), aggregated
/// over ranks into CostReport::reliability.  All zeros unless the run
/// used Machine::enable_reliable_transport.
struct ReliabilityStats {
  std::int64_t frames_sent = 0;      ///< physical transmissions (incl. retries)
  std::int64_t retransmissions = 0;  ///< frames_sent beyond the first attempt
  std::int64_t acks = 0;             ///< link-layer acks charged
  std::int64_t duplicates_dropped = 0;  ///< stale frames discarded by seq
  std::int64_t corrupt_rejected = 0;    ///< frames failing the checksum
  std::int64_t reordered = 0;           ///< early frames buffered for order
  std::int64_t give_ups = 0;  ///< sends out of retransmissions (fatal)

  ReliabilityStats& operator+=(const ReliabilityStats& o) {
    frames_sent += o.frames_sent;
    retransmissions += o.retransmissions;
    acks += o.acks;
    duplicates_dropped += o.duplicates_dropped;
    corrupt_rejected += o.corrupt_rejected;
    reordered += o.reordered;
    give_ups += o.give_ups;
    return *this;
  }
  bool any() const {
    return frames_sent || retransmissions || acks || duplicates_dropped ||
           corrupt_rejected || reordered || give_ups;
  }
};

/// Faults a FaultInjector (fault.hpp) actually injected during a run,
/// aggregated into CostReport::faults.  All zeros without a FaultPlan.
struct FaultCounts {
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
  std::int64_t corruptions = 0;
  std::int64_t delays = 0;
  std::int64_t kills = 0;
  std::int64_t stalls = 0;

  FaultCounts& operator+=(const FaultCounts& o) {
    drops += o.drops;
    duplicates += o.duplicates;
    corruptions += o.corruptions;
    delays += o.delays;
    kills += o.kills;
    stalls += o.stalls;
    return *this;
  }
  bool any() const {
    return drops || duplicates || corruptions || delays || kills || stalls;
  }
};

/// Predicted-vs-measured comparison against an analytical cost model
/// (core/cost_oracle.hpp evaluates the paper's closed-form W/S bounds
/// and fills this in via attach_oracle).  Plain data here so CostReport
/// can carry it without the machine layer depending on any algorithm.
struct OracleComparison {
  bool present = false;
  std::string model;                ///< e.g. "2d-sparse-apsp"
  double predicted_bandwidth = 0;   ///< oracle W bound (words)
  double predicted_latency = 0;     ///< oracle S bound (messages)
  double bandwidth_ratio = 0;       ///< measured critical_bandwidth / predicted
  double latency_ratio = 0;         ///< measured critical_latency / predicted
};

/// Message/word volume counted at the sender, per algorithm phase.
struct PhaseVolume {
  std::int64_t messages = 0;
  std::int64_t words = 0;

  PhaseVolume& operator+=(const PhaseVolume& o) {
    messages += o.messages;
    words += o.words;
    return *this;
  }
};

/// One communication event on one rank: an application send (logical), a
/// frame handed to the network (frame), or a reliability-protocol clock
/// charge with no frame of its own (protocol).  Plain data, no strings.
struct CommEvent {
  enum class Kind : std::uint8_t { kLogical, kFrame, kProtocol };
  Kind kind = Kind::kLogical;
  bool retransmit = false;  ///< frame: a reliable-transport retry
  bool duplicated = false;  ///< frame: the injector delivered a second copy
  bool dropped = false;     ///< frame: dropped or corrupted in the network
  std::int32_t phase = 0;   ///< index into CommRecord::phases
  RankId dst = 0;  ///< protocol: the last frame's peer, -1 before any
  const char* tag_class = "p2p";  ///< CommClassScope label
  std::int64_t words = 0;
  std::int64_t latency = 0;  ///< protocol only
};

/// Everything one rank communicated in a run, append-only and in program
/// order: the single accounting point every volume view folds.
struct CommRecord {
  /// Interned Comm::set_phase labels; CommEvent::phase indexes them.
  std::vector<std::string> phases;
  std::vector<CommEvent> events;
  /// Events before this index precede the rank's last Comm::reset_clock():
  /// the setup segment (CostReport::setup_*).
  std::size_t reset_at = 0;

  /// Index of `label` in `phases`, appended when new.
  std::int32_t intern_phase(const std::string& label) {
    const auto it = std::find(phases.begin(), phases.end(), label);
    if (it != phases.end())
      return static_cast<std::int32_t>(it - phases.begin());
    phases.push_back(label);
    return static_cast<std::int32_t>(phases.size() - 1);
  }
};

/// Aggregated machine-wide costs after a run.  Volume fields cover the
/// traffic after the last Comm::reset_clock() on each rank (the whole run
/// when no rank resets); the pre-reset segment is reported separately in
/// the setup_* fields so the headline numbers describe the measured
/// algorithm only.
struct CostReport {
  /// Max over ranks of the clock where the rank called stop_clock() (its
  /// final clock if it never did): the paper's L and B.
  double critical_latency = 0;
  double critical_bandwidth = 0;
  std::int64_t total_messages = 0; ///< Σ over ranks (network volume)
  std::int64_t total_words = 0;
  std::int64_t max_rank_messages = 0;  ///< busiest rank, volume terms
  std::int64_t max_rank_words = 0;
  /// Per-phase volumes: total across ranks and per-rank maximum.
  std::map<std::string, PhaseVolume> phase_total;
  std::map<std::string, PhaseVolume> phase_max_rank;
  /// Pre-reset (setup/data-distribution) traffic, kept out of the totals.
  std::map<std::string, PhaseVolume> setup_phase_total;
  std::int64_t setup_messages = 0;
  std::int64_t setup_words = 0;
  /// Reliable-transport counters and injected-fault totals, filled in by
  /// Machine::run after aggregate() (all zeros for plain runs).
  ReliabilityStats reliability;
  FaultCounts faults;
  /// Analytical-bound comparison, attached by drivers that know which
  /// algorithm ran (present = false otherwise).
  OracleComparison oracle;

  /// Build from every rank's measured clock and communication record.
  static CostReport aggregate(const std::vector<CostClock>& clocks,
                              const std::vector<CommRecord>& records);
};

}  // namespace capsp
