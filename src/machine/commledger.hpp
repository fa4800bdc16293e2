// Communication observatory (docs/observability.md, "Comm" pillar):
// per-channel communication ledgers with phase-resolved (L,B)
// accounting and physical-vs-logical attribution.
//
// A *channel* is the tuple (src, dst, tag-class, phase).  The ledger is
// folded from the per-rank CommRecords (cost_model.hpp): live at each
// rank's phase seams, the rest after the join, so the merged CommLedger
// is deterministic.  Phase labels come from Comm::set_phase (the sparse
// solver's "L<l>/R1".."L<l>/R4" region seams, "setup", "collect"); tag
// classes come from CommClassScope (collectives label their traffic
// "bcast"/"reduce"/"gather"/"scatter", everything else is "p2p").
//
// Two books are kept per channel:
//   * logical  — what the application asked for: one message of
//     payload-words per Comm::send.  This is the volume the paper's
//     W/S bounds speak about, and what Machine::traffic() folds.
//   * physical — what crossed the simulated wire: every transmitted
//     frame including ReliableComm frame headers, retransmissions and
//     fault-injector duplicates, plus protocol clock charges (acks,
//     backoff) attributed to the peer the last frame went to.
//
// The split is what makes retries/acks attributable *distinctly* from
// application sends: under a drop-heavy FaultPlan the logical book (and
// the traffic matrix) match a clean run bit-for-bit while the physical
// book carries the overhead.  Grappa's RDMAAggregator drives aggregation
// decisions from exactly this kind of per-destination size/occupancy
// ledger — this subsystem is the measuring stick an aggregating comm
// layer would be judged against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"

namespace capsp {

class JsonWriter;

/// Identity of one directed communication channel.  Ordering is
/// (src, dst, class, phase) so iteration — and therefore every JSON
/// export — is deterministic.
struct CommChannelKey {
  RankId src = 0;
  RankId dst = 0;
  std::string tag_class;  // "p2p", "bcast", "reduce", "gather", "scatter"
  std::string phase;      // Comm::set_phase label at record time

  friend bool operator<(const CommChannelKey& a, const CommChannelKey& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.tag_class != b.tag_class) return a.tag_class < b.tag_class;
    return a.phase < b.phase;
  }
  friend bool operator==(const CommChannelKey& a, const CommChannelKey& b) {
    return a.src == b.src && a.dst == b.dst && a.tag_class == b.tag_class &&
           a.phase == b.phase;
  }
};

/// Per-channel counters.  Merging is plain field-wise addition, so the
/// final ledger is independent of fold interleaving (each key is only
/// ever folded from its src rank; cross-rank merges never collide).
struct CommChannelStats {
  // Log2 message-size histogram over *physical* frame sizes, matching
  // the util/metrics Histogram convention: bucket 0 holds sizes <= 1,
  // bucket b holds (2^(b-1), 2^b].
  static constexpr int kSizeBuckets = 48;

  // Logical book: application Comm::send calls, payload words.
  std::int64_t logical_messages = 0;
  std::int64_t logical_words = 0;

  // Physical book: frames handed to the wire (Comm::transmit), frame
  // words (payload + any reliable-transport header).
  std::int64_t physical_frames = 0;
  std::int64_t physical_words = 0;
  std::int64_t retransmit_frames = 0;  // subset of physical: retries
  std::int64_t retransmit_words = 0;
  std::int64_t duplicate_frames = 0;   // injector kDuplicate extra copies
  std::int64_t dropped_frames = 0;     // injector kDrop / kCorrupt losses

  // Protocol book: clock charges with no frame of their own (reliable
  // acks and backoff), attributed to the peer of the last transmit.
  std::int64_t protocol_charges = 0;
  std::int64_t protocol_latency = 0;
  std::int64_t protocol_words = 0;

  std::array<std::int64_t, kSizeBuckets> size_log2{};

  CommChannelStats& operator+=(const CommChannelStats& other);

  /// Histogram bucket for a frame of `words` words.
  static int size_bucket(std::int64_t words);
};

/// Fold rank `src`'s events from index `from` on into `channels`, and
/// return the index the next fold resumes from.  Protocol charges before
/// the rank's first frame have no channel and are skipped.
std::size_t fold_comm_record(
    RankId src, const CommRecord& record, std::size_t from,
    std::map<CommChannelKey, CommChannelStats>& channels);

/// Per-phase rollup derived from the merged ledger: the phase-resolved
/// (L,B) account.  `messages`/`words` are the logical book; the
/// max_channel_* fields are the busiest single (src,dst) pair, the
/// quantity the paper's per-processor W bound constrains.
struct CommPhaseTotals {
  std::int64_t messages = 0;  // logical
  std::int64_t words = 0;     // logical
  std::int64_t physical_frames = 0;
  std::int64_t physical_words = 0;
  std::int64_t max_channel_messages = 0;
  std::int64_t max_channel_words = 0;
};

/// The merged, deterministic ledger for one Machine::run.
struct CommLedger {
  bool present = false;  // true once a ledger-enabled run completed
  int num_ranks = 0;
  std::map<CommChannelKey, CommChannelStats> channels;

  CommChannelStats totals() const;
  /// Phase -> rollup, keys in lexicographic order.
  std::map<std::string, CommPhaseTotals> by_phase() const;
  /// Row-major num_ranks x num_ranks physical-word / physical-frame
  /// heatmaps (the rank x rank matrices /comm.json and
  /// `trace_summary.py comm` render).
  std::vector<std::int64_t> heat_words() const;
  std::vector<std::int64_t> heat_frames() const;

  /// Top-k channels by physical words, ties broken by key order.
  std::vector<const CommChannelStats*> top_channels(
      std::size_t k, std::vector<CommChannelKey>* keys) const;

  void merge_from(const CommLedger& other);
};

/// Emit the ledger as the fields of a "comm" JSON object: totals, the
/// per-phase (L,B) table, heatmaps, and the full channel list.  The
/// writer must be inside an object; the function emits `"comm": {...}`.
/// Deterministic: same ledger => byte-identical output.
void write_comm_fields(JsonWriter& json, const CommLedger& ledger);

/// Standalone artifact: `{"comm": {...}}` — what `--comm-json`,
/// `/comm.json` and `trace_summary.py comm` exchange.
void write_comm_ledger_json(std::ostream& out, const CommLedger& ledger);

/// Process-wide rendezvous between a running Machine and the telemetry
/// endpoint (`apsp_tool --telemetry-port` serves /comm.json from here).
/// A ledger-enabled Machine::run registers a provider that snapshots
/// the live (partially merged) ledger mid-run, and publishes the final
/// ledger when the run completes; the last published ledger survives
/// until the next run replaces it.
class CommLedgerHub {
 public:
  static CommLedgerHub& global();

  void set_provider(std::function<CommLedger()> provider);
  void clear_provider();
  void publish(const CommLedger& ledger);

  /// Live snapshot if a run is in flight, else the last published
  /// ledger (present=false if neither exists).
  CommLedger snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::function<CommLedger()> provider_;
  CommLedger last_;
};

}  // namespace capsp
