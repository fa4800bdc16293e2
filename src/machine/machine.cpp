#include "machine/machine.hpp"

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "machine/fibers.hpp"
#include "util/context.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace capsp {

namespace {

struct Message {
  Payload payload;  // shared with the sender and every other hop
  CostClock clock;  // sender clock after charging this message
  // Index of the matching send event in the sender's trace timeline
  // (-1 when tracing is off) — the back-pointer blame attribution uses.
  std::int64_t src_event = -1;
};

/// The ranks that cannot proceed: parked in Mailbox::take with no
/// matching message, or finished.  A rank in a timed park (a fault plan's
/// stall) is not among them.  The machine is closed — every message comes
/// from a rank — so once all p are stuck no fiber is runnable or sleeping,
/// and nothing can ever arrive.  Only the rank whose park or finish
/// completes the count sees it, since no running rank is left to lower
/// it; that rank runs `on_all_stuck`, Machine::run's deadlock check.
struct StuckRanks {
  int num_ranks = 0;
  std::atomic<int> count{0};
  std::function<void()> on_all_stuck;

  /// One more rank is stuck; true when that makes all of them stuck.
  bool join() { return count.fetch_add(1) + 1 == num_ranks; }
  void leave() { count.fetch_sub(1); }
};

/// One rank's inbox: blocking retrieval by (source, tag).  Its one waiter
/// is its owner's fiber.  A take() with no match records the one key the
/// owner waits for and parks the fiber, so only that message (or an
/// abort) makes it runnable again.
class Mailbox {
 public:
  void attach(RankId owner, Fibers& fibers, StuckRanks& stuck) {
    owner_ = owner;
    fibers_ = &fibers;
    stuck_ = &stuck;
  }

  void put(RankId src, Tag tag, Message message) {
    bool wake = false;
    {
      const std::lock_guard<SpinLock> lock(mutex_);
      const Key key{src, tag};
      queue_.emplace(key, std::move(message));
      // The owner can proceed again.  It leaves the count here, before
      // the sender can park or finish, so the count never overstates.
      if (waiting_ && waiting_for_ == key) {
        waiting_ = false;
        stuck_->leave();
        wake = std::exchange(parked_, false);
      }
    }
    if (wake) fibers_->wake(owner_);
  }

  Message take(RankId src, Tag tag) {
    std::unique_lock<SpinLock> lock(mutex_);
    const Key key{src, tag};
    auto it = queue_.find(key);
    if (it == queue_.end() && !aborted_) {
      // Only a receive that really parks gets the frame, so profiles
      // tell time spent waiting for a peer from the region's own work.
      ProfScope prof("machine.wait");
      waiting_ = true;
      waiting_for_ = key;
      if (stuck_->join()) {
        lock.unlock();  // the check reads every mailbox, this one too
        stuck_->on_all_stuck();
        lock.lock();
      }
      while (waiting_ && !aborted_) {
        // The carrier releases the lock once the switch has saved this
        // fiber, so a put() that sees it parked may wake it at once.
        parked_ = true;
        fibers_->park(owner_, *lock.release());
        lock = std::unique_lock<SpinLock>(mutex_);
      }
      it = queue_.find(key);
    }
    if (it == queue_.end()) {
      CAPSP_CHECK(aborted_);
      throw check_error("machine aborted while waiting for a message");
    }
    Message message = std::move(it->second);
    queue_.erase(it);
    return message;
  }

  /// Calls visit(src, tag) under the lock if the owner is blocked.
  template <class Visit>
  void visit_wait(Visit&& visit) {
    const std::lock_guard<SpinLock> lock(mutex_);
    if (waiting_) visit(waiting_for_.first, waiting_for_.second);
  }

  /// Wake a parked take() after another rank failed or the run
  /// deadlocked, so the whole machine unwinds.
  void abort() {
    bool wake = false;
    {
      const std::lock_guard<SpinLock> lock(mutex_);
      aborted_ = true;
      wake = std::exchange(parked_, false);
    }
    if (wake) fibers_->wake(owner_);
  }

  bool empty() {
    const std::lock_guard<SpinLock> lock(mutex_);
    return queue_.empty();
  }

 private:
  using Key = std::pair<RankId, Tag>;
  SpinLock mutex_;
  std::multimap<Key, Message> queue_;
  RankId owner_ = 0;
  Fibers* fibers_ = nullptr;
  StuckRanks* stuck_ = nullptr;
  bool aborted_ = false;
  bool waiting_ = false;  ///< the owner waits for waiting_for_ (and is stuck)
  bool parked_ = false;   ///< the owner's fiber is switched out in take()
  Key waiting_for_;
};

/// A frame a kDelay fault held back; delivered by Comm::flush_delayed().
struct DelayedFrame {
  RankId dst = 0;
  Tag tag = 0;
  Message message;
};

/// machine.comm.*: every frame of the run, the setup segment included,
/// added to the caller's sink once.
void add_comm_metrics(MetricsRegistry& sink,
                      const std::vector<CommRecord>& records) {
  std::int64_t frames = 0, words = 0, retransmits = 0;
  Histogram frame_words;
  for (const CommRecord& record : records)
    for (const CommEvent& event : record.events) {
      if (event.kind != CommEvent::Kind::kFrame) continue;
      ++frames;
      words += event.words;
      retransmits += event.retransmit;
      frame_words.observe(static_cast<double>(event.words));
    }
  if (frames == 0) return;
  sink.counter_add("machine.comm.frames", frames);
  sink.counter_add("machine.comm.words", words);
  sink.merge_histogram("machine.comm.frame_words", frame_words);
  if (retransmits > 0)
    sink.counter_add("machine.comm.retransmit_frames", retransmits);
}

}  // namespace

/// Adapter giving ReliableComm's transport-agnostic state machine access
/// to this rank's mailbox path (declared a friend of Comm).
class CommLink final : public RawLink {
 public:
  explicit CommLink(Comm& comm) : comm_(comm) {}

  bool transmit(RankId dst, Tag tag, const Payload& frame,
                bool retransmit) override {
    return comm_.transmit(dst, tag, frame, retransmit);
  }
  Payload receive(RankId src, Tag tag) override {
    return comm_.raw_receive(src, tag);
  }
  void charge(double latency, double words, const char* label) override {
    comm_.charge_protocol(latency, words, label);
  }

 private:
  Comm& comm_;
};

struct Machine::Impl {
  explicit Impl(int num_ranks) : mailboxes(num_ranks), fibers(num_ranks) {
    stuck.num_ranks = num_ranks;
    for (RankId r = 0; r < num_ranks; ++r)
      mailboxes[static_cast<std::size_t>(r)].attach(r, fibers, stuck);
  }
  std::vector<Mailbox> mailboxes;
  StuckRanks stuck;
  Fibers fibers;
  /// Live merged ledger, fed by Comm::flush_ledger at phase boundaries
  /// and snapshotted by CommLedgerHub for /comm.json mid-run.
  std::mutex ledger_mutex;
  CommLedger live_ledger;
  /// Present when a FaultPlan is set for this run.
  std::unique_ptr<FaultInjector> injector;
  /// Per-rank queues of frames a kDelay fault held back (each rank
  /// touches only its own queue).
  std::vector<std::vector<DelayedFrame>> delayed;
};

Machine::Machine(int num_ranks) : num_ranks_(num_ranks) {
  CAPSP_CHECK_MSG(num_ranks >= 1 && num_ranks <= 4096,
                  "num_ranks=" << num_ranks);
}

Machine::~Machine() = default;

int Comm::size() const { return machine_->size(); }

void Comm::on_op() {
  Machine::Impl& impl = *machine_->impl_;
  if (!impl.injector) return;
  if (const double stall = impl.injector->on_op(rank_); stall > 0)
    impl.fibers.sleep_for(rank_, stall);
}

void Comm::send(RankId dst, Tag tag, std::span<const Dist> words) {
  if (reliable_) {
    // Framing copies the words once; no payload copy is needed first.
    count_logical_send(dst, static_cast<std::int64_t>(words.size()));
    CommLink link(*this);
    reliable_->send(link, dst, tag, words);
    return;
  }
  Payload payload;
  {
    ProfScope prof("machine.copy");
    payload = Payload::copy_of(words);
  }
  send(dst, tag, std::move(payload));
}

void Comm::send(RankId dst, Tag tag, Payload payload) {
  if (reliable_) {
    send(dst, tag, payload.words());  // framed by the span path
    return;
  }
  count_logical_send(dst, static_cast<std::int64_t>(payload.size()));
  // Raw transport: fire and forget — a dropped or corrupted frame is the
  // program's problem (that is what reliable transport is for).
  transmit(dst, tag, payload, false);
}

void Comm::send_block(RankId dst, Tag tag, const DistBlock& block) {
  if (block.is_shared()) {
    send(dst, tag, block.shared_payload());
  } else {
    send(dst, tag, block.data());
  }
}

void Comm::count_logical_send(RankId dst, std::int64_t words) {
  CAPSP_CHECK_MSG(dst >= 0 && dst < machine_->size(), "dst=" << dst);
  CAPSP_CHECK_MSG(dst != rank_, "self-send on rank " << rank_);
  on_op();
  record({.kind = CommEvent::Kind::kLogical, .dst = dst, .words = words});
}

bool Comm::transmit(RankId dst, Tag tag, const Payload& frame,
                    bool retransmit) {
  const auto words = static_cast<std::int64_t>(frame.size());
  std::int64_t src_event = -1;
  if (tracing_) {
    src_event = static_cast<std::int64_t>(trace_.size());
    TraceEvent event;
    event.kind = TraceEventKind::kSend;
    event.phase = phase();
    if (retransmit) event.label = "retransmit";
    event.peer = dst;
    event.tag = tag;
    event.words = words;
    event.before = clock_;
    trace_.push_back(std::move(event));
  }
  clock_.advance(1, static_cast<double>(words));
  if (tracing_) trace_.back().after = clock_;
  last_peer_ = dst;
  Message message;
  message.payload = frame;
  message.clock = clock_;
  message.src_event = src_event;

  Machine::Impl& impl = *machine_->impl_;
  FaultInjector* injector = impl.injector.get();
  const FaultDecision decision =
      injector ? injector->decide(rank_) : FaultDecision::kDeliver;
  Mailbox& inbox = impl.mailboxes[static_cast<std::size_t>(dst)];
  bool delivered = true;
  switch (decision) {
    case FaultDecision::kDeliver:
      inbox.put(rank_, tag, std::move(message));
      break;
    case FaultDecision::kDrop:
      delivered = false;  // the frame vanishes in the network
      break;
    case FaultDecision::kDuplicate: {
      Message copy = message;
      inbox.put(rank_, tag, std::move(message));
      inbox.put(rank_, tag, std::move(copy));
      break;
    }
    case FaultDecision::kCorrupt: {
      // The mangled frame still arrives — the receiver's checksum must
      // catch it — but the link layer reports the damage to the sender.
      // The bit flips in a private copy: the shared frame also reaches
      // the sender's other receivers and the sender itself.
      ProfScope prof("machine.copy");
      message.payload = injector->corrupted_copy(rank_, frame);
      inbox.put(rank_, tag, std::move(message));
      delivered = false;
      break;
    }
    case FaultDecision::kDelay:
      impl.delayed[static_cast<std::size_t>(rank_)].push_back(
          {dst, tag, std::move(message)});
      break;
  }
  // Held-back frames go out after the next frame that was not itself
  // delayed — that is what makes kDelay produce real reordering.
  if (injector && decision != FaultDecision::kDelay) flush_delayed();
  record({.kind = CommEvent::Kind::kFrame,
          .retransmit = retransmit,
          .duplicated = decision == FaultDecision::kDuplicate,
          .dropped = decision == FaultDecision::kDrop ||
                     decision == FaultDecision::kCorrupt,
          .dst = dst,
          .words = words});
  return delivered;
}

void Comm::flush_delayed() {
  Machine::Impl& impl = *machine_->impl_;
  auto& queue = impl.delayed[static_cast<std::size_t>(rank_)];
  for (DelayedFrame& frame : queue)
    impl.mailboxes[static_cast<std::size_t>(frame.dst)].put(
        rank_, frame.tag, std::move(frame.message));
  queue.clear();
}

Payload Comm::recv(RankId src, Tag tag) {
  CAPSP_CHECK_MSG(src >= 0 && src < machine_->size(), "src=" << src);
  CAPSP_CHECK_MSG(src != rank_, "self-recv on rank " << rank_);
  on_op();
  if (reliable_) {
    CommLink link(*this);
    return reliable_->recv(link, src, tag);
  }
  return raw_receive(src, tag);
}

Payload Comm::raw_receive(RankId src, Tag tag) {
  Machine::Impl& impl = *machine_->impl_;
  // Deliver anything this rank delayed before it can block on a peer —
  // otherwise a held-back frame could deadlock the schedule.
  if (impl.injector) flush_delayed();
  Message message =
      impl.mailboxes[static_cast<std::size_t>(rank_)].take(src, tag);

  // Receiving serializes on this rank (+1 message, +w words), but
  // concurrent disjoint transfers merge via max — see cost_model.hpp.
  const CostClock before = clock_;
  clock_.advance(1, static_cast<double>(message.payload.size()));
  const CostClock::MergeOutcome outcome = clock_.merge(message.clock);
  if (tracing_) {
    TraceEvent event;
    event.kind = TraceEventKind::kRecv;
    event.phase = phase();
    event.peer = src;
    event.tag = tag;
    event.words = static_cast<std::int64_t>(message.payload.size());
    event.before = before;
    event.after = clock_;
    event.peer_event = message.src_event;
    event.latency_from_message = outcome.latency_from_other;
    event.words_from_message = outcome.words_from_other;
    trace_.push_back(std::move(event));
  }
  return std::move(message.payload);
}

void Comm::charge_protocol(double latency, double words, const char* label) {
  if (tracing_) {
    TraceEvent event;
    event.kind = TraceEventKind::kProtocol;
    event.phase = phase();
    event.label = label;
    event.before = clock_;
    trace_.push_back(std::move(event));
  }
  clock_.advance(latency, words);
  if (tracing_) trace_.back().after = clock_;
  // Protocol charges carry no destination; attribute them to the peer of
  // the most recent transmit — exact for ReliableComm, whose ack/backoff
  // charges immediately follow the frame they concern.
  record({.kind = CommEvent::Kind::kProtocol,
          .dst = last_peer_,
          .words = static_cast<std::int64_t>(words),
          .latency = static_cast<std::int64_t>(latency)});
}

void Comm::flush_ledger() {
  if (ledger_folded_ == record_.events.size()) return;
  std::lock_guard<std::mutex> lock(machine_->impl_->ledger_mutex);
  ledger_folded_ = fold_comm_record(rank_, record_, ledger_folded_,
                                    machine_->impl_->live_ledger.channels);
}

DistBlock Comm::recv_block(RankId src, Tag tag, std::int64_t rows,
                           std::int64_t cols) {
  Payload payload = recv(src, tag);
  CAPSP_CHECK_MSG(static_cast<std::int64_t>(payload.size()) == rows * cols,
                  "block payload from (src " << src << ", tag " << tag
                                             << ") on rank " << rank_
                                             << " has " << payload.size()
                                             << " words, expected " << rows
                                             << "x" << cols << " = "
                                             << rows * cols);
  return DistBlock(rows, cols, std::move(payload));
}

void Machine::run(const std::function<void(Comm&)>& program) {
  // Fresh mailboxes so a failed/aborted previous run cannot leak messages,
  // and cleared observability state so a failed run cannot leave a stale
  // traffic matrix, trace, or deadlock report from the previous run.
  impl_ = std::make_unique<Impl>(num_ranks_);
  records_.clear();
  trace_ = Trace{};
  comm_ledger_ = CommLedger{};
  deadlock_.reset();

  // Clears the hub provider on every exit path (including the throws
  // below), so no telemetry snapshot can reach a destroyed Impl.
  struct HubProviderGuard {
    bool active = false;
    ~HubProviderGuard() {
      if (active) CommLedgerHub::global().clear_provider();
    }
  } hub_guard;
  if (record_comm_) {
    impl_->live_ledger.num_ranks = num_ranks_;
    impl_->live_ledger.present = true;
    CommLedgerHub::global().set_provider(
        [this] { return live_comm_snapshot(); });
    hub_guard.active = true;
  }

  const bool faulty = fault_plan_ && !fault_plan_->empty();
  if (faulty) {
    impl_->injector = std::make_unique<FaultInjector>(*fault_plan_,
                                                      num_ranks_);
    impl_->delayed.resize(static_cast<std::size_t>(num_ranks_));
  }

  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(num_ranks_));
  for (RankId r = 0; r < num_ranks_; ++r)
    comms.push_back(Comm(this, r, tracing_, record_comm_));
  if (reliable_transport_)
    for (Comm& comm : comms)
      comm.reliable_ = std::make_unique<ReliableComm>();

  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Runs when every rank is blocked or finished (StuckRanks).  Blocked
  // ranks then wait forever: snapshot the wait-for graph into deadlock_
  // and abort every mailbox so the run unwinds (docs/robustness.md).
  // Only rank fibers call it, and they finish before this frame ends.
  impl_->stuck.on_all_stuck = [&] {
    std::lock_guard<std::mutex> error_lock(error_mutex);
    // A rank already failed, or the run was already reported: an abort
    // is unwinding the machine, and that error or report should surface.
    if (first_error || deadlock_) return;
    DeadlockReport report;
    for (RankId r = 0; r < num_ranks_; ++r)
      impl_->mailboxes[static_cast<std::size_t>(r)].visit_wait(
          [&](RankId src, Tag tag) {
            const Comm& comm = comms[static_cast<std::size_t>(r)];
            report.blocked.push_back({r, src, tag, comm.clock_, comm.phase()});
          });
    if (report.blocked.empty()) return;  // every rank finished
    report.cycle = find_wait_cycle(report.blocked);
    if (impl_->injector) report.dead = impl_->injector->dead_ranks();
    deadlock_ = std::move(report);
    for (Mailbox& mailbox : impl_->mailboxes) mailbox.abort();
  };

  // Per-rank metric sinks: every instrumentation point on a rank
  // (collectives, algorithm kernels) lands in its rank's registry; the
  // registries merge into the caller's sink after the run so totals are
  // deterministic and shard contention stays rank-local.
  std::vector<MetricsRegistry> rank_metrics(
      static_cast<std::size_t>(num_ranks_));
  // The ranks' contexts: log fields, metrics sink, flight-recorder ring,
  // profiler stack and CPU clock (util/context.hpp).  A carrier installs
  // rank r's while it runs fiber r, and parks it when the rank ends.
  std::vector<RankContext*> contexts;
  contexts.reserve(static_cast<std::size_t>(num_ranks_));
  for (RankId r = 0; r < num_ranks_; ++r)
    contexts.push_back(
        claim_context(r, &rank_metrics[static_cast<std::size_t>(r)]));

  impl_->fibers.run(contexts, [&](int r) {
    Comm& comm = comms[static_cast<std::size_t>(r)];
    try {
      program(comm);
      // A finished rank still owes its delayed frames to the network.
      if (impl_->injector) comm.flush_delayed();
    } catch (const RankKilledError&) {
      // The plan killed this rank: its fiber finishes without aborting
      // the machine, exactly as a crashed process looks to survivors —
      // they block on its messages, and once nothing else can run the
      // deadlock check names it dead.
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      for (auto& mailbox : impl_->mailboxes) mailbox.abort();
    }
    if (impl_->stuck.join()) impl_->stuck.on_all_stuck();
  });

  // Fold every view of the records before any throw: a deadlocked or
  // failed run still leaves its post-mortem (partial costs, traffic,
  // traces, ledger, fault/reliability counters) readable.
  std::vector<CostClock> clocks;
  clocks.reserve(comms.size());
  records_.reserve(comms.size());
  for (Comm& comm : comms) {
    clocks.push_back(comm.stopped_.value_or(comm.clock_));
    records_.push_back(std::move(comm.record_));
  }
  report_ = CostReport::aggregate(clocks, records_);
  for (const Comm& comm : comms)
    if (comm.reliable_) report_.reliability += comm.reliable_->stats();
  if (impl_->injector) report_.faults = impl_->injector->counts();
  {
    MetricsRegistry& sink = metrics();
    for (const MetricsRegistry& rank_registry : rank_metrics)
      sink.merge_from(rank_registry);
    add_comm_metrics(sink, records_);
    sink.gauge_max("machine.run.ranks", static_cast<double>(num_ranks_));
    sink.counter_add("machine.run.count");
    if (report_.reliability.any()) {
      const ReliabilityStats& rel = report_.reliability;
      sink.counter_add("machine.reliable.frames_sent", rel.frames_sent);
      sink.counter_add("machine.reliable.retransmissions",
                       rel.retransmissions);
      sink.counter_add("machine.reliable.acks", rel.acks);
      sink.counter_add("machine.reliable.duplicates_dropped",
                       rel.duplicates_dropped);
      sink.counter_add("machine.reliable.corrupt_rejected",
                       rel.corrupt_rejected);
      sink.counter_add("machine.reliable.reordered", rel.reordered);
      sink.counter_add("machine.reliable.give_ups", rel.give_ups);
    }
    if (report_.faults.any()) {
      const FaultCounts& f = report_.faults;
      sink.counter_add("machine.fault.drops", f.drops);
      sink.counter_add("machine.fault.duplicates", f.duplicates);
      sink.counter_add("machine.fault.corruptions", f.corruptions);
      sink.counter_add("machine.fault.delays", f.delays);
      sink.counter_add("machine.fault.kills", f.kills);
      sink.counter_add("machine.fault.stalls", f.stalls);
    }
  }
  if (tracing_) {
    trace_.per_rank.reserve(comms.size());
    for (auto& comm : comms) trace_.per_rank.push_back(std::move(comm.trace_));
  }
  if (record_comm_) {
    // Every rank has finished; fold whatever each rank recorded since
    // its last phase boundary, then publish the completed ledger.  The
    // merge is deterministic: keys carry the src rank, so cross-rank
    // entries never collide and per-key sums follow program order.
    {
      std::lock_guard<std::mutex> lock(impl_->ledger_mutex);
      for (RankId r = 0; r < num_ranks_; ++r)
        fold_comm_record(r, records_[static_cast<std::size_t>(r)],
                         comms[static_cast<std::size_t>(r)].ledger_folded_,
                         impl_->live_ledger.channels);
      comm_ledger_ = impl_->live_ledger;
    }
    CommLedgerHub::global().publish(comm_ledger_);
    CommLedgerHub::global().clear_provider();
    hub_guard.active = false;
  }

  if (deadlock_) throw DeadlockError(*deadlock_);
  if (first_error) std::rethrow_exception(first_error);

  // Every message sent must have been received — a leftover means the
  // schedule was inconsistent across ranks.  Fault plans legitimately
  // leave residue (e.g. the duplicate of a stream's final frame), so the
  // check only applies to clean transports.
  if (!impl_->injector) {
    for (RankId r = 0; r < num_ranks_; ++r)
      CAPSP_CHECK_MSG(impl_->mailboxes[static_cast<std::size_t>(r)].empty(),
                      "undelivered messages in rank " << r << "'s mailbox");
  }
}

TrafficMatrix Machine::traffic() const {
  TrafficMatrix traffic;
  traffic.num_ranks = static_cast<int>(records_.size());
  const auto cells = records_.size() * records_.size();
  traffic.words.assign(cells, 0);
  traffic.messages.assign(cells, 0);
  for (std::size_t src = 0; src < records_.size(); ++src)
    for (const CommEvent& event : records_[src].events) {
      if (event.kind != CommEvent::Kind::kLogical) continue;
      const std::size_t cell =
          src * records_.size() + static_cast<std::size_t>(event.dst);
      traffic.words[cell] += event.words;
      ++traffic.messages[cell];
    }
  return traffic;
}

CommLedger Machine::live_comm_snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->ledger_mutex);
  return impl_->live_ledger;
}

}  // namespace capsp
