// One context per rank (DESIGN.md decision 14): the log correlation
// fields, the `metrics()` sink, the flight-recorder ring, the profiler's
// scope stack and its CPU clock.  Every facility reads the context
// installed on the calling thread through one thread-local slot
// (context.cpp).  `Machine::run` claims a pooled context per rank, and a
// carrier thread installs a rank fiber's context for as long as it runs
// the fiber (machine/fibers.hpp, DESIGN.md decision 15); any other thread
// claims its own on first use and parks it at exit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

namespace capsp {

class MetricsRegistry;
namespace flightrec {
struct Ring;
}

/// The calling thread's OS id (gettid on Linux).
std::uint64_t os_thread_id();

/// Never-freed nodes, claimed and parked in O(1).  Every node ever made
/// is on a published list that lock-free walkers read (the sampler, the
/// crash dump); a mutex guards the parked queue.  The longest-parked node
/// is claimed first, so a parked ring keeps its events for as long as
/// possible.  `Node` provides `next` (immutable once published) and
/// `next_parked`.
template <typename Node>
class NodePool {
 public:
  Node* claim() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (Node* node = parked_) {
        parked_ = node->next_parked;
        if (parked_ == nullptr) last_parked_ = nullptr;
        return node;
      }
    }
    auto* node = new Node();
    node->next = all_.load(std::memory_order_relaxed);
    while (!all_.compare_exchange_weak(node->next, node,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
    made_.fetch_add(1, std::memory_order_relaxed);
    return node;
  }

  void park(Node* node) {
    const std::lock_guard<std::mutex> lock(mutex_);
    node->next_parked = nullptr;
    (last_parked_ != nullptr ? last_parked_->next_parked : parked_) = node;
    last_parked_ = node;
  }

  /// Every node ever made, newest first (follow `next`).
  Node* first() const { return all_.load(std::memory_order_acquire); }
  std::int64_t made() const { return made_.load(std::memory_order_relaxed); }

 private:
  std::atomic<Node*> all_{nullptr};
  std::atomic<std::int64_t> made_{0};
  std::mutex mutex_;
  Node* parked_ = nullptr;       ///< oldest parked node
  Node* last_parked_ = nullptr;  ///< newest parked node
};

struct RankContext {
  static constexpr int kMaxDepth = 24;

  // Log correlation; only the owning thread touches these.
  std::int32_t rank = -1;         ///< simulated machine rank, -1 = none
  std::int64_t request_id = -1;   ///< in-flight RequestTrace id, -1 = none
  char phase[32] = {0};           ///< machine phase label, "" = none
  MetricsRegistry* metrics = nullptr;  ///< nullptr = the global registry
  flightrec::Ring* ring = nullptr;     ///< claimed at the first record

  /// Profiler scope stack: the owner stores with release, the sampler
  /// loads with acquire.  Frames are interned literals, so a racy read
  /// sees at worst a stale but valid pointer.  Depth may pass kMaxDepth;
  /// deeper frames are not recorded.
  std::atomic<std::int32_t> depth{0};
  std::array<std::atomic<const char*>, kMaxDepth> frames{};

  /// The profiler's CPU clock (util/prof.cpp), touched only by whoever
  /// runs the context: the CPU seconds it ran in earlier slices on
  /// carriers, and the running thread's CPU clock when the current slice
  /// began (kUnclocked until read).  A thread's own context is one slice
  /// from 0, so it reads the thread's clock.
  static constexpr double kUnclocked = -1;
  double cpu_seconds = 0;
  double slice_start_cpu = 0;

  RankContext* next = nullptr;
  RankContext* next_parked = nullptr;
};

/// The context installed on this thread (its own one if none is).
RankContext& current_context();

/// Every context ever made; parked ones have an empty scope stack.
const NodePool<RankContext>& context_pool();

/// Claims a pooled context for `rank` and `metrics` (nullptr = the
/// global registry) with request id -1, an empty phase, an empty stack
/// and no CPU time.
RankContext* claim_context(std::int32_t rank, MetricsRegistry* metrics);

/// Parks a claimed context with its ring.  It must not be installed.
void park_context(RankContext* context);

/// Installs `context` on the calling thread and returns the one it
/// replaces (nullptr: none yet; the thread's own is made on first use).
RankContext* install_context(RankContext* context);

/// A rank context on a thread of its own: claims one for `rank` and
/// `metrics` and installs it; the destructor reinstalls the previous
/// context and parks this one with its ring.
class RankContextScope {
 public:
  RankContextScope(std::int32_t rank, MetricsRegistry* metrics)
      : context_(claim_context(rank, metrics)),
        previous_(install_context(context_)) {}
  ~RankContextScope() {
    install_context(previous_);
    park_context(context_);
  }
  RankContextScope(const RankContextScope&) = delete;
  RankContextScope& operator=(const RankContextScope&) = delete;

 private:
  RankContext* context_;
  RankContext* previous_;
};

}  // namespace capsp
