#include "util/context.hpp"

#include <thread>
#include <utility>

#include "util/flightrec.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace capsp {
namespace {

constinit NodePool<RankContext> g_contexts;

/// `installed` is what every facility reads; `own` is the thread's
/// default context, parked at thread exit.  A use after that (the main
/// thread's static destructors log) claims a context that stays claimed.
struct Slot {
  RankContext* installed = nullptr;
  RankContext* own = nullptr;
  Slot() = default;
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  ~Slot() {
    if (own != nullptr) park_context(own);
    installed = own = nullptr;
  }
};

thread_local Slot tl_slot;

}  // namespace

std::uint64_t os_thread_id() {
#if defined(__linux__)
  return static_cast<std::uint64_t>(::syscall(SYS_gettid));
#else
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
#endif
}

RankContext& current_context() {
  Slot& slot = tl_slot;
  if (slot.installed == nullptr) {
    if (slot.own == nullptr) slot.own = claim_context(-1, nullptr);
    slot.installed = slot.own;
  }
  return *slot.installed;
}

const NodePool<RankContext>& context_pool() { return g_contexts; }

RankContext* claim_context(std::int32_t rank, MetricsRegistry* metrics) {
  RankContext* context = g_contexts.claim();
  context->rank = rank;
  context->request_id = -1;
  context->phase[0] = '\0';
  context->metrics = metrics;
  context->cpu_seconds = 0;
  context->slice_start_cpu = 0;
  return context;
}

void park_context(RankContext* context) {
  if (context->ring != nullptr) flightrec::park_ring(context->ring);
  context->ring = nullptr;
  g_contexts.park(context);
}

RankContext* install_context(RankContext* context) {
  return std::exchange(tl_slot.installed, context);
}

}  // namespace capsp
