// Ranks as fibers (DESIGN.md decision 15).
//
// Machine::run runs each rank as a stackful ucontext fiber on a pooled
// mmap stack above a PROT_NONE guard page.  The fibers share one run
// queue served by min(p, CPUs in the caller's affinity mask) carrier
// threads; the calling thread is one of them, and the others inherit its
// mask.  A rank that must wait parks: it switches back to its carrier,
// which runs the next runnable fiber.  A carrier installs a fiber's rank
// context (util/context.hpp) for exactly as long as it runs the fiber, so
// log fields, metrics, the flight-recorder ring and the profiler's stack
// and CPU clock follow the rank from carrier to carrier.
//
// Each carrier has an alternate signal stack, so a fiber that overflows
// into its guard page still reaches the flight recorder's crash handler.
// The ASan and TSan builds announce every switch to their runtimes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace capsp {

struct RankContext;

/// A lock with no owning thread.  A parking fiber holds its mailbox's
/// lock across the switch and its carrier releases it afterwards; a
/// std::mutex must be unlocked by the thread that locked it, and TSan
/// treats every fiber as a thread of its own.  Held for one map insert
/// or lookup at a time.
class SpinLock {
 public:
  void lock();
  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

/// One run's fibers, one per rank.  Their stacks go back to the pool
/// when the object is destroyed.
class Fibers {
 public:
  explicit Fibers(int num_fibers);
  ~Fibers();
  Fibers(const Fibers&) = delete;
  Fibers& operator=(const Fibers&) = delete;

  /// Runs body(f) on fiber f for every f, with contexts[f] installed
  /// while fiber f runs and parked once body(f) returns, and returns once
  /// every body has returned.  A body must not throw.
  void run(const std::vector<RankContext*>& contexts,
           const std::function<void(int)>& body);

  /// On running fiber `self`: switch out until wake(self).  `held` is
  /// locked; the carrier releases it once the switch has saved the fiber,
  /// so whoever takes `held` next and sees the fiber parked may wake it.
  void park(int self, SpinLock& held);

  /// Makes parked fiber `fiber` runnable; exactly one wake per park.
  void wake(int fiber);

  /// On running fiber `self`: a timed park.  A sleeping fiber is neither
  /// runnable nor waiting for a message.
  void sleep_for(int self, double seconds);

  /// Carriers a run of `num_fibers` uses: min(num_fibers, CPUs in the
  /// calling thread's affinity mask).
  static int carrier_count(int num_fibers);

 private:
  struct Fiber;
  struct Carrier;
  using Clock = std::chrono::steady_clock;

  static void entry(unsigned high, unsigned low);
  void serve();
  Fiber* next();
  void switch_out(Fiber& fiber);

  std::unique_ptr<Fiber[]> fibers_;
  int num_fibers_;
  const std::function<void(int)>* body_ = nullptr;

  /// The run queue and the timed parks; idle carriers wait on `idle_`.
  std::mutex mutex_;
  std::condition_variable idle_;
  std::deque<Fiber*> runnable_;
  std::vector<Fiber*> sleeping_;
  int idle_carriers_ = 0;
  int finished_ = 0;
};

}  // namespace capsp
