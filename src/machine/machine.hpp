// The distributed-memory machine simulator.
//
// Substitutes for an MPI cluster (none is available in this environment,
// and the paper's claims are communication *counts*, which this machine
// meters exactly — see DESIGN.md).  Each rank runs the SPMD program on its
// own std::thread with private state; the only interaction between ranks
// is typed point-to-point messages through per-rank mailboxes.  Message
// matching is MPI-like: (source, tag) with program-assigned tags.  Sends
// are buffered (never block); receives block until the matching message
// arrives.  A message body is an immutable shared Payload
// (semiring/payload.hpp): after the one copy a send of the caller's words
// makes, every hop — mailbox, fault injector, broadcast tree edge,
// receiving block — shares it.  Deadlock-freedom is the program's
// responsibility; the algorithms here derive every rank's operation
// sequence from one global schedule, which makes the communication graph
// acyclic by construction.  A run that deadlocks anyway is reported the
// moment no rank can proceed (watchdog.hpp).  For runs that deliberately
// break these guarantees — fault injection (fault.hpp) and the reliable
// transport (reliable.hpp) — see docs/robustness.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "machine/commledger.hpp"
#include "machine/cost_model.hpp"
#include "machine/fault.hpp"
#include "machine/reliable.hpp"
#include "machine/trace.hpp"
#include "machine/watchdog.hpp"
#include "semiring/block.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace capsp {

class Machine;
class CommLink;

/// Per-rank communication handle, passed to the SPMD program.  Not
/// thread-safe across ranks (each rank uses only its own Comm).
class Comm {
 public:
  RankId rank() const { return rank_; }
  int size() const;

  /// Buffered point-to-point send of the caller's words: copies them
  /// once, so the caller may overwrite its buffer as soon as this
  /// returns.  Never blocks.  Word count = payload size.  Self-sends are
  /// forbidden (local data needs no message).
  void send(RankId dst, Tag tag, std::span<const Dist> words);

  /// Send an immutable payload: every hop shares it, nothing is copied.
  void send(RankId dst, Tag tag, Payload payload);

  /// Blocking receive of the message (src, tag); the payload is the one
  /// the sender built, shared.
  Payload recv(RankId src, Tag tag);

  /// Send a block's words: a block that reads a payload shares it, a
  /// private block is copied once.
  void send_block(RankId dst, Tag tag, const DistBlock& block);
  /// Send a block the caller is done with: a private block's storage
  /// moves into the payload, so nothing is copied.
  void send_block(RankId dst, Tag tag, DistBlock&& block) {
    send(dst, tag, std::move(block).release_payload());
  }
  /// Receive a rows×cols block that reads the payload in place (no copy
  /// until the block is written).
  DistBlock recv_block(RankId src, Tag tag, std::int64_t rows,
                       std::int64_t cols);

  /// Label subsequent sends for per-phase volume attribution.  Also
  /// mirrored into the rank thread's log context (util/log.hpp), so log
  /// events and flight-recorder dumps carry the same phase labels as
  /// the trace slices.
  void set_phase(std::string phase) {
    if (ledger_) flush_ledger();
    if (tracing_) {
      TraceEvent event;
      event.kind = TraceEventKind::kPhase;
      event.phase = phase;
      event.label = phase;
      event.before = event.after = clock_;
      trace_.push_back(std::move(event));
    }
    log_set_phase(phase);
    phase_label_ = std::move(phase);
    phase_ = -1;
  }

  /// Zero this rank's critical-path clock AND segment the volumes: the
  /// events recorded so far become the setup segment
  /// (CostReport::setup_*), so setup-phase traffic never pollutes the
  /// measured algorithm's volumes, even if a phase label is reused.  Call
  /// after setup/data distribution so the measured critical path covers
  /// only the algorithm (all setup messages must already be received on
  /// this rank).
  void reset_clock() {
    clock_ = CostClock{};
    record_.reset_at = record_.events.size();
    if (tracing_) {
      TraceEvent event;
      event.kind = TraceEventKind::kClockReset;
      event.phase = phase();
      trace_.push_back(std::move(event));
    }
  }

  /// Record a computation span on this rank's trace timeline: `ops`
  /// scalar ⊗ operations under `label`.  Purely observational — the cost
  /// model meters communication only, so the clock never moves — and a
  /// no-op when tracing is off.
  void record_compute(std::int64_t ops, const char* label = "") {
    if (!tracing_) return;
    TraceEvent event;
    event.kind = TraceEventKind::kCompute;
    event.phase = phase();
    event.label = label;
    event.ops = ops;
    event.before = event.after = clock_;
    trace_.push_back(std::move(event));
  }

  /// Paired structured-region markers (the collectives wrap themselves in
  /// these so traces show broadcast/reduce extents).  No-ops when tracing
  /// is off; `label` is only materialized when tracing.
  void span_begin(const char* label) {
    if (tracing_) push_span(TraceEventKind::kSpanBegin, label);
  }
  void span_end(const char* label) {
    if (tracing_) push_span(TraceEventKind::kSpanEnd, label);
  }

  const CostClock& clock() const { return clock_; }

 private:
  friend class Machine;
  friend class CommLink;
  friend class CommClassScope;
  Comm(Machine* machine, RankId rank, bool tracing, bool ledger)
      : machine_(machine), rank_(rank), tracing_(tracing), ledger_(ledger) {}

  const std::string& phase() const { return phase_label_; }

  void push_span(TraceEventKind kind, const char* label) {
    TraceEvent event;
    event.kind = kind;
    event.phase = phase();
    event.label = label;
    event.before = event.after = clock_;
    trace_.push_back(std::move(event));
  }

  /// Append one event to this rank's record under the current phase and
  /// tag class — the only place communication is counted.  A phase label
  /// is interned at its first event, so the table holds only the phases
  /// this rank communicated in.
  void record(CommEvent event) {
    if (phase_ < 0) phase_ = record_.intern_phase(phase_label_);
    event.phase = phase_;
    event.tag_class = tag_class_;
    record_.events.push_back(event);
  }

  /// Count one logical operation against the FaultInjector, which may
  /// stall this rank or throw RankKilledError.  No-op without a plan.
  void on_op();

  /// Checks `dst`, counts the send as an operation (on_op) and records
  /// one logical message of `words` words, before any transport framing,
  /// so reliable headers, retransmissions and acks never inflate the
  /// logical book (the frames transmit() records carry those).
  void count_logical_send(RankId dst, std::int64_t words);

  /// One physical transmission through the (possibly faulty) network:
  /// charges the frame to the clock, asks the injector for its fate,
  /// delivers accordingly and records the frame.  The frame is shared,
  /// never copied (a corrupted frame is a private copy).  Returns the
  /// link-layer ack — false when the frame was dropped or arrived
  /// corrupted (the reliable layer retries on false; the raw path ignores
  /// it).
  bool transmit(RankId dst, Tag tag, const Payload& frame, bool retransmit);

  /// Blocking receive of the next physical frame on (src, tag), metered
  /// as today; flushes this rank's delayed frames before it can block.
  Payload raw_receive(RankId src, Tag tag);

  /// Reliability-protocol clock charge (acks, backoff): moves the logical
  /// clock and records a kProtocol trace event and a protocol event, but
  /// counts no message volume (no frame crosses the network).
  void charge_protocol(double latency, double words, const char* label);

  /// Deliver every frame a kDelay fault held back on this rank.
  void flush_delayed();

  /// Fold this rank's events since the last flush into the machine's
  /// live merged ledger (commledger.hpp), so /comm.json snapshots observe
  /// mid-run progress.  Called at phase boundaries — rare enough that
  /// the mutex inside is off the hot path.
  void flush_ledger();

  Machine* machine_;
  RankId rank_;
  bool tracing_;
  bool ledger_;  // the machine runs with enable_comm_ledger(true)
  CostClock clock_;
  /// Every communication event of this rank (moved to the Machine after
  /// the run), the current phase and its index into the record's labels
  /// (-1 until interned), and how far flush_ledger() has folded it.
  CommRecord record_;
  std::string phase_label_ = "default";
  std::int32_t phase_ = -1;
  std::size_t ledger_folded_ = 0;
  std::vector<TraceEvent> trace_;  // this rank's timeline (if tracing)
  /// Tag class attributed to subsequent traffic ("p2p" unless a
  /// CommClassScope is active — the collectives label themselves).
  const char* tag_class_ = "p2p";
  /// Destination of the most recent transmit, so protocol clock charges
  /// (acks/backoff — which carry no destination of their own) are
  /// attributed to the channel that caused them.
  RankId last_peer_ = -1;
  /// Present when the machine runs with reliable transport; owns this
  /// rank's sequence/reorder state and reliability counters.
  std::unique_ptr<ReliableComm> reliable_;
};

/// RAII tag-class label for the comm ledger: traffic sent while a scope
/// is alive is attributed to `tag_class` instead of "p2p".  The
/// collectives wrap their bodies in one of these (next to their trace
/// spans); nesting restores the previous class on destruction.  The
/// recorded events keep the pointer, so the string must outlive the run
/// (string literals in practice).
class CommClassScope {
 public:
  CommClassScope(Comm& comm, const char* tag_class)
      : comm_(comm), previous_(comm.tag_class_) {
    comm_.tag_class_ = tag_class;
  }
  ~CommClassScope() { comm_.tag_class_ = previous_; }
  CommClassScope(const CommClassScope&) = delete;
  CommClassScope& operator=(const CommClassScope&) = delete;

 private:
  Comm& comm_;
  const char* previous_;
};

/// Rank-pair traffic of one run (Machine::traffic()).  Row-major p×p:
/// entry (src, dst) counts words/messages src sent to dst.  This is
/// *logical* application traffic — one message of payload-words per
/// Comm::send, regardless of transport.  Reliable-transport frame
/// headers, retransmissions and acks do NOT inflate it; the physical
/// wire volume lives in the CommLedger (commledger.hpp).
struct TrafficMatrix {
  int num_ranks = 0;
  std::vector<std::int64_t> words;
  std::vector<std::int64_t> messages;

  std::int64_t words_between(RankId src, RankId dst) const {
    return words[cell(src, dst)];
  }
  std::int64_t messages_between(RankId src, RankId dst) const {
    return messages[cell(src, dst)];
  }

 private:
  std::size_t cell(RankId src, RankId dst) const {
    CAPSP_CHECK_MSG(num_ranks > 0,
                    "traffic matrix is empty — was it taken before run()?");
    CAPSP_CHECK_MSG(src >= 0 && src < num_ranks && dst >= 0 &&
                        dst < num_ranks,
                    "rank pair (" << src << ", " << dst
                                  << ") out of range for " << num_ranks
                                  << " ranks");
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(num_ranks) +
           static_cast<std::size_t>(dst);
  }
};

/// A p-rank machine.  Construct, call run() with the SPMD program, then
/// read the cost report.  A Machine may be run() multiple times; costs
/// reset at the start of each run.
class Machine {
 public:
  /// CHECK-fails unless 1 <= num_ranks <= 4096.
  explicit Machine(int num_ranks);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int size() const { return num_ranks_; }

  /// Record per-rank event timelines during subsequent run()s (off by
  /// default).  Tracing is observational: the metered costs are
  /// bit-identical with tracing on or off; when off, the only overhead is
  /// one branch per operation.  See docs/observability.md.
  void enable_tracing(bool enabled) { tracing_ = enabled; }
  bool tracing_enabled() const { return tracing_; }

  /// Fold the per-channel communication ledger (commledger.hpp) during
  /// subsequent run()s: per-(src, dst, tag-class, phase) frame counts,
  /// word volumes and log2 size histograms, with logical vs physical
  /// attribution, drained live at phase seams.  Observational like
  /// tracing: metered costs are bit-identical with the ledger on or off.
  /// Off by default.
  void enable_comm_ledger(bool enabled) { record_comm_ = enabled; }
  bool comm_ledger_enabled() const { return record_comm_; }

  /// Inject faults per `plan` during subsequent run()s (docs/robustness.md).
  /// An unsurvivable plan ends in a DeadlockError, like any other run in
  /// which no rank can proceed.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  void clear_fault_plan() { fault_plan_.reset(); }
  const FaultPlan* fault_plan() const {
    return fault_plan_ ? &*fault_plan_ : nullptr;
  }

  /// Route all sends/receives through the ReliableComm protocol layer
  /// (reliable.hpp) during subsequent run()s, so the program survives any
  /// message-fault plan; the overhead lands in the cost report.
  void enable_reliable_transport(bool enabled) { reliable_transport_ = enabled; }
  void set_reliable_options(const ReliableOptions& options) {
    reliable_options_ = options;
  }

  /// The snapshot taken when the most recent run() deadlocked (the same
  /// report the DeadlockError carried); nullptr otherwise.
  const DeadlockReport* deadlock_report() const {
    return deadlock_ ? &*deadlock_ : nullptr;
  }

  /// Execute `program` on every rank concurrently; returns when all ranks
  /// finish.  If any rank throws, the first exception is rethrown here
  /// (after all threads have been joined).  Once every rank is blocked in
  /// a receive or finished while some rank is blocked, nothing can arrive:
  /// the run is aborted at that moment and a DeadlockError is thrown.
  void run(const std::function<void(Comm&)>& program);

  /// Cost aggregation for the most recent run().
  const CostReport& report() const { return report_; }

  /// Rank-pair traffic of the most recent run, folded on each call (a
  /// p×p table, so only callers that ask pay for it).
  TrafficMatrix traffic() const;

  /// Event timelines of the most recent run (empty unless
  /// enable_tracing(true) was set before run()).
  const Trace& trace() const { return trace_; }

  /// Merged communication ledger of the most recent run (present=false
  /// unless enable_comm_ledger(true) was set before run()).
  const CommLedger& comm_ledger() const { return comm_ledger_; }

  /// Blame-attributed critical path of the most recent traced run: the
  /// exact chain of events/messages that set the report's
  /// critical_latency (or critical_bandwidth), with per-phase cost
  /// segments that sum to the total.  CHECK-fails without a trace.
  CriticalPathReport critical_path(CostAxis axis = CostAxis::kLatency) const {
    return extract_critical_path(trace_, axis);
  }

 private:
  friend class Comm;
  struct Impl;

  /// Thread-safe copy of the live (partially merged) ledger, served to
  /// CommLedgerHub snapshots while a run is in flight.
  CommLedger live_comm_snapshot() const;

  int num_ranks_;
  bool record_comm_ = false;
  bool tracing_ = false;
  bool reliable_transport_ = false;
  std::optional<FaultPlan> fault_plan_;
  ReliableOptions reliable_options_;
  std::optional<DeadlockReport> deadlock_;
  /// Per-run state (mailboxes, live ledger, injector), built by run().
  std::unique_ptr<Impl> impl_;
  CostReport report_;
  /// Every rank's communication record from the most recent run.
  std::vector<CommRecord> records_;
  Trace trace_;
  CommLedger comm_ledger_;
};

}  // namespace capsp
