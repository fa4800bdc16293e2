#include "machine/fibers.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/context.hpp"
#include "util/prof.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CAPSP_FIBERS_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CAPSP_FIBERS_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAPSP_FIBERS_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CAPSP_FIBERS_TSAN 1
#endif
#endif
#if defined(CAPSP_FIBERS_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CAPSP_FIBERS_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace capsp {
namespace {

/// Usable bytes of a fiber stack.  A rank's deepest path (kernels,
/// collectives, logging) stays far below 256 KiB; ASan's redzones make
/// its frames several times larger.
#if defined(CAPSP_FIBERS_ASAN)
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
#else
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
#endif

/// A carrier's alternate signal stack: room for the flight recorder's
/// crash dump (util/flightrec.cpp) after a fiber overflowed its stack.
constexpr std::size_t kAltStackBytes = std::size_t{64} << 10;

/// Fiber stacks, each above a PROT_NONE guard page, so a rank that
/// overflows faults instead of writing into another rank's stack.  Kept
/// for the process's lifetime: a second run reuses them.
class StackPool {
 public:
  char* take() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        char* stack = free_.back();
        free_.pop_back();
        return stack;
      }
    }
    const auto guard = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    void* map = ::mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    CAPSP_CHECK_MSG(map != MAP_FAILED,
                    "fiber stack mmap failed: " << std::strerror(errno));
    CAPSP_CHECK_MSG(::mprotect(map, guard, PROT_NONE) == 0,
                    "fiber guard page: " << std::strerror(errno));
    return static_cast<char*>(map) + guard;
  }

  void give(char* stack) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(stack);
  }

 private:
  std::mutex mutex_;
  std::vector<char*> free_;
};

StackPool& stack_pool() {
  static auto* pool = new StackPool();  // outlives every run
  return *pool;
}

/// Installs an alternate signal stack on the calling thread for the
/// object's lifetime and then restores the previous one.
class AltSignalStack {
 public:
  AltSignalStack() : memory_(std::make_unique<char[]>(kAltStackBytes)) {
    stack_t stack{};
    stack.ss_sp = memory_.get();
    stack.ss_size = kAltStackBytes;
    installed_ = ::sigaltstack(&stack, &previous_) == 0;
  }
  ~AltSignalStack() {
    if (installed_) ::sigaltstack(&previous_, nullptr);
  }
  AltSignalStack(const AltSignalStack&) = delete;
  AltSignalStack& operator=(const AltSignalStack&) = delete;

 private:
  std::unique_ptr<char[]> memory_;
  stack_t previous_{};
  bool installed_ = false;
};

}  // namespace

void SpinLock::lock() {
  for (int spins = 0; locked_.exchange(true, std::memory_order_acquire);) {
    while (locked_.load(std::memory_order_relaxed)) {
      // The holder is a carrier a few instructions from unlock(); give its
      // core back only if it was preempted there.
      if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      } else {
        std::this_thread::yield();
      }
    }
  }
}

struct Fibers::Fiber {
  /// Why the fiber last switched out: set by the fiber before the switch,
  /// read by its carrier before the carrier releases `release`.
  enum class Switch : std::uint8_t { kPark, kSleep, kFinish };

  ucontext_t context{};
  char* stack = nullptr;
  int index = 0;
  RankContext* rank_context = nullptr;
  Fibers* owner = nullptr;
  Carrier* carrier = nullptr;  ///< the carrier running it
  Switch why = Switch::kPark;
  SpinLock* release = nullptr;
  Clock::time_point wake_at;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

struct Fibers::Carrier {
  ucontext_t context{};
  /// The carrier's own stack as ASan learns it at the first switch back.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

namespace {

// ASan's half of a switch: announced before swapcontext, finished on the
// stack the switch arrived on.  TSan's half is a call right before each
// swapcontext, in the same frame, as its fiber API requires.
void start_switch(void** fake_stack, const void* bottom, std::size_t size) {
#if defined(CAPSP_FIBERS_ASAN)
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#else
  (void)fake_stack, (void)bottom, (void)size;
#endif
}

void finish_switch(void* fake_stack, const void** from_bottom,
                   std::size_t* from_size) {
#if defined(CAPSP_FIBERS_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, from_bottom, from_size);
#else
  (void)fake_stack, (void)from_bottom, (void)from_size;
#endif
}

}  // namespace

Fibers::Fibers(int num_fibers)
    : fibers_(std::make_unique<Fiber[]>(static_cast<std::size_t>(num_fibers))),
      num_fibers_(num_fibers) {}

Fibers::~Fibers() {
  for (int f = 0; f < num_fibers_; ++f) {
    const Fiber& fiber = fibers_[static_cast<std::size_t>(f)];
    if (fiber.stack != nullptr) stack_pool().give(fiber.stack);
#if defined(CAPSP_FIBERS_TSAN)
    if (fiber.tsan_fiber != nullptr) __tsan_destroy_fiber(fiber.tsan_fiber);
#endif
  }
}

int Fibers::carrier_count(int num_fibers) {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
#endif
  return std::max(1, std::min(num_fibers, cpus));
}

void Fibers::run(const std::vector<RankContext*>& contexts,
                 const std::function<void(int)>& body) {
  CAPSP_CHECK(static_cast<int>(contexts.size()) == num_fibers_ &&
              body_ == nullptr);
  body_ = &body;
  for (int f = 0; f < num_fibers_; ++f) {
    Fiber& fiber = fibers_[static_cast<std::size_t>(f)];
    fiber.index = f;
    fiber.owner = this;
    fiber.rank_context = contexts[static_cast<std::size_t>(f)];
    fiber.stack = stack_pool().take();
    CAPSP_CHECK(::getcontext(&fiber.context) == 0);
    fiber.context.uc_stack.ss_sp = fiber.stack;
    fiber.context.uc_stack.ss_size = kStackBytes;
    fiber.context.uc_link = nullptr;
    // makecontext passes int arguments: the fiber's address in two halves.
    const auto address = reinterpret_cast<std::uintptr_t>(&fiber);
    ::makecontext(&fiber.context, reinterpret_cast<void (*)()>(&entry), 2,
                  static_cast<unsigned>(address >> 32),
                  static_cast<unsigned>(address));
#if defined(CAPSP_FIBERS_TSAN)
    fiber.tsan_fiber = __tsan_create_fiber(0);
#endif
    runnable_.push_back(&fiber);
  }
  std::vector<std::thread> carriers;
  for (int c = 1; c < carrier_count(num_fibers_); ++c) {
    try {
      carriers.emplace_back([this] { serve(); });
    } catch (const std::system_error&) {
      break;  // the carriers already started serve every fiber
    }
  }
  serve();
  for (std::thread& carrier : carriers) carrier.join();
}

void Fibers::entry(unsigned high, unsigned low) {
  auto& fiber = *reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(high) << 32) | low);
  finish_switch(nullptr, &fiber.carrier->stack_bottom,
                &fiber.carrier->stack_size);
  (*fiber.owner->body_)(fiber.index);
  fiber.why = Fiber::Switch::kFinish;
  fiber.owner->switch_out(fiber);  // never resumed
}

void Fibers::serve() {
  Carrier carrier;
#if defined(CAPSP_FIBERS_TSAN)
  carrier.tsan_fiber = __tsan_get_current_fiber();
#endif
  const AltSignalStack alt_stack;
  while (Fiber* fiber = next()) {
    fiber->carrier = &carrier;
    RankContext* const own = install_context(fiber->rank_context);
    prof_switch_in(*fiber->rank_context);
    start_switch(&carrier.asan_fake_stack, fiber->stack, kStackBytes);
#if defined(CAPSP_FIBERS_TSAN)
    __tsan_switch_to_fiber(fiber->tsan_fiber, 0);
#endif
    ::swapcontext(&carrier.context, &fiber->context);
    finish_switch(carrier.asan_fake_stack, nullptr, nullptr);
    prof_switch_out(*fiber->rank_context);
    install_context(own);
    // Everything the carrier needs from the fiber is read before the
    // release: from then on another carrier may already be running it.
    const Fiber::Switch why = fiber->why;
    if (SpinLock* held = std::exchange(fiber->release, nullptr))
      held->unlock();
    if (why == Fiber::Switch::kSleep) {
      const std::lock_guard<std::mutex> lock(mutex_);
      sleeping_.push_back(fiber);
    } else if (why == Fiber::Switch::kFinish) {
      park_context(fiber->rank_context);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (++finished_ == num_fibers_) idle_.notify_all();
    }
  }
}

Fibers::Fiber* Fibers::next() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!sleeping_.empty()) {
      const Clock::time_point now = Clock::now();
      const auto due = std::partition(
          sleeping_.begin(), sleeping_.end(),
          [now](const Fiber* fiber) { return fiber->wake_at > now; });
      runnable_.insert(runnable_.end(), due, sleeping_.end());
      sleeping_.erase(due, sleeping_.end());
    }
    if (!runnable_.empty()) {
      Fiber* fiber = runnable_.front();
      runnable_.pop_front();
      return fiber;
    }
    if (finished_ == num_fibers_) return nullptr;
    ++idle_carriers_;
    if (sleeping_.empty()) {
      idle_.wait(lock);
    } else {
      Clock::time_point earliest = Clock::time_point::max();
      for (const Fiber* fiber : sleeping_)
        earliest = std::min(earliest, fiber->wake_at);
      idle_.wait_until(lock, earliest);
    }
    --idle_carriers_;
  }
}

void Fibers::switch_out(Fiber& fiber) {
  Carrier& carrier = *fiber.carrier;
  start_switch(fiber.why == Fiber::Switch::kFinish ? nullptr
                                                   : &fiber.asan_fake_stack,
               carrier.stack_bottom, carrier.stack_size);
#if defined(CAPSP_FIBERS_TSAN)
  __tsan_switch_to_fiber(carrier.tsan_fiber, 0);
#endif
  ::swapcontext(&fiber.context, &carrier.context);
  // Resumed, perhaps by another carrier.
  finish_switch(fiber.asan_fake_stack, &fiber.carrier->stack_bottom,
                &fiber.carrier->stack_size);
}

void Fibers::park(int self, SpinLock& held) {
  Fiber& fiber = fibers_[static_cast<std::size_t>(self)];
  fiber.why = Fiber::Switch::kPark;
  fiber.release = &held;
  switch_out(fiber);
}

void Fibers::wake(int fiber) {
  Fiber* woken = &fibers_[static_cast<std::size_t>(fiber)];
  bool notify;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    runnable_.push_back(woken);
    notify = idle_carriers_ > 0;
  }
  if (notify) idle_.notify_one();
}

void Fibers::sleep_for(int self, double seconds) {
  Fiber& fiber = fibers_[static_cast<std::size_t>(self)];
  const Clock::time_point now = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  fiber.wake_at =
      span < Clock::time_point::max() - now ? now + span
                                            : Clock::time_point::max();
  fiber.why = Fiber::Switch::kSleep;
  switch_out(fiber);
}

}  // namespace capsp
