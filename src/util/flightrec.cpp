#include "util/flightrec.hpp"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <vector>

#include "util/context.hpp"
#include "util/log.hpp"

namespace capsp {
namespace flightrec {

// ---------------------------------------------------------------------------
// Ring pool (see header for the locking discipline).

struct Ring {
  std::atomic<bool> in_use{false};
  std::atomic<std::uint64_t> tid{0};
  std::atomic<std::uint64_t> head{0};  ///< events ever recorded here
  std::mutex mutex;                    ///< guards slots (non-crash paths)
  Event slots[kRingCapacity];
  Ring* next = nullptr;  ///< immutable once the node is published
  Ring* next_parked = nullptr;
};

namespace {

constinit NodePool<Ring> g_rings;
std::atomic<std::int64_t> g_recorded{0};

Ring* claim_ring() {
  Ring* ring = g_rings.claim();
  // A reused ring still holds the previous owner's events; reset the
  // head so readers see an empty ring rather than a parked context's
  // history attributed to this one.
  std::lock_guard<std::mutex> lock(ring->mutex);
  ring->head.store(0, std::memory_order_release);
  ring->tid.store(os_thread_id(), std::memory_order_release);
  ring->in_use.store(true, std::memory_order_release);
  return ring;
}

// ---------------------------------------------------------------------------
// Dump path configuration

char g_dump_path[512] = {0};
std::once_flag g_env_once;

void load_env_path() {
  std::call_once(g_env_once, [] {
    if (g_dump_path[0] != '\0') return;  // set_dump_path won the race
    if (const char* path = std::getenv("CAPSP_FLIGHTREC_DUMP")) {
      std::strncpy(g_dump_path, path, sizeof(g_dump_path) - 1);
    }
  });
}

// ---------------------------------------------------------------------------
// Async-signal-safe formatting.  Everything from here down to dump_core
// stays free of allocation, locks, and stdio so the crash path can use
// it from a SIGSEGV handler.  The non-crash paths reuse the same
// renderer (one schema, one implementation) through a different Writer
// and with ring locks held.

std::size_t format_u64(char* buf, std::uint64_t value) {
  char digits[24];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = digits[n - 1 - i];
  return n;
}

std::size_t format_i64(char* buf, std::int64_t value) {
  if (value < 0) {
    buf[0] = '-';
    return 1 + format_u64(buf + 1, static_cast<std::uint64_t>(-value));
  }
  return format_u64(buf, static_cast<std::uint64_t>(value));
}

/// Fixed-point "seconds.microseconds".  Non-finite or out-of-range
/// values become 0 — the dump must stay parseable above all.
std::size_t format_ts(char* buf, double value) {
  if (!(value > 0) || value > 9.0e15) {
    buf[0] = '0';
    return 1;
  }
  const auto whole = static_cast<std::uint64_t>(value);
  auto micros =
      static_cast<std::uint64_t>((value - static_cast<double>(whole)) * 1e6);
  if (micros > 999999) micros = 999999;
  std::size_t n = format_u64(buf, whole);
  buf[n++] = '.';
  char frac[8];
  const std::size_t fn = format_u64(frac, micros);
  for (std::size_t i = fn; i < 6; ++i) buf[n++] = '0';
  for (std::size_t i = 0; i < fn; ++i) buf[n++] = frac[i];
  return n;
}

/// Minimal sink the dump renderer writes through: an fd (crash path)
/// or a growing string (endpoints, tests; it allocates, so never on the
/// crash path).
class Writer {
 public:
  explicit Writer(int fd) : fd_(fd) {}
  explicit Writer(std::string& text) : text_(&text) {}
  bool write(const char* data, std::size_t n) {
    if (text_ != nullptr) {
      text_->append(data, n);
      return true;
    }
    while (n > 0) {
      const ::ssize_t wrote = ::write(fd_, data, n);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data += wrote;
      n -= static_cast<std::size_t>(wrote);
    }
    return true;
  }
  bool str(const char* s) { return write(s, std::strlen(s)); }
  bool u64(std::uint64_t v) {
    char buf[24];
    return write(buf, format_u64(buf, v));
  }
  bool i64(std::int64_t v) {
    char buf[24];
    return write(buf, format_i64(buf, v));
  }
  bool ts(double v) {
    char buf[32];
    return write(buf, format_ts(buf, v));
  }
  /// JSON string literal (quotes included) from a bounded, possibly
  /// unterminated char buffer; nullptr renders as "".
  bool json_str(const char* s, std::size_t max) {
    if (!str("\"")) return false;
    for (std::size_t i = 0; s != nullptr && i < max && s[i] != '\0'; ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      bool ok;
      if (c == '"') {
        ok = str("\\\"");
      } else if (c == '\\') {
        ok = str("\\\\");
      } else if (c < 0x20) {
        const char* hex = "0123456789abcdef";
        const char escaped[6] = {'\\', 'u',          '0',
                                 '0',  hex[c >> 4],  hex[c & 0xf]};
        ok = write(escaped, sizeof(escaped));
      } else {
        ok = write(s + i, 1);
      }
      if (!ok) return false;
    }
    return str("\"");
  }

 private:
  int fd_ = -1;
  std::string* text_ = nullptr;
};

double wall_clock_now() {
  // clock_gettime is async-signal-safe, unlike std::chrono's wrappers.
  struct timespec now;
  if (::clock_gettime(CLOCK_REALTIME, &now) != 0) return 0;
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

bool write_event_json(Writer& out, const Event& event, bool first) {
  if (!first && !out.str(",")) return false;
  bool ok = out.str("{\"ts\":") && out.ts(event.ts) &&
            out.str(",\"level\":") &&
            out.json_str(to_string(static_cast<LogLevel>(event.level)), 8) &&
            out.str(",\"event\":") && out.json_str(event.event, 128) &&
            out.str(",\"file\":") && out.json_str(event.file, 256) &&
            out.str(",\"line\":") && out.i64(event.line) &&
            out.str(",\"tid\":") && out.u64(event.tid);
  if (ok && event.rank >= 0) ok = out.str(",\"rank\":") && out.i64(event.rank);
  if (ok && event.request_id >= 0)
    ok = out.str(",\"req\":") && out.i64(event.request_id);
  if (ok && event.phase[0] != '\0')
    ok = out.str(",\"phase\":") &&
         out.json_str(event.phase, sizeof(event.phase));
  return ok && out.str(",\"detail\":") &&
         out.json_str(event.detail, sizeof(event.detail)) && out.str("}");
}

bool dump_ring_events(Writer& out, const Ring& ring, std::uint64_t head) {
  const std::uint64_t count = std::min<std::uint64_t>(head, kRingCapacity);
  for (std::uint64_t i = 0; i < count; ++i) {
    const Event& event = ring.slots[(head - count + i) % kRingCapacity];
    if (!write_event_json(out, event, i == 0)) return false;
  }
  return true;
}

bool dump_core(Writer& out, const char* reason, bool take_locks) {
  bool ok = out.str("{\"flightrec\":{\"reason\":") &&
            out.json_str(reason, 128) && out.str(",\"ts\":") &&
            out.ts(wall_clock_now()) && out.str(",\"pid\":") &&
            out.u64(static_cast<std::uint64_t>(::getpid())) &&
            out.str(",\"recorded\":") &&
            out.i64(g_recorded.load(std::memory_order_relaxed)) &&
            out.str(",\"ring_capacity\":") && out.i64(kRingCapacity) &&
            out.str(",\"threads\":[");
  bool first_thread = true;
  for (Ring* ring = g_rings.first();
       ok && ring != nullptr; ring = ring->next) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const bool live = ring->in_use.load(std::memory_order_acquire);
    if (head == 0) continue;  // nothing recorded (or freshly reclaimed)
    if (!first_thread && !out.str(",")) return false;
    first_thread = false;
    ok = out.str("{\"tid\":") &&
         out.u64(ring->tid.load(std::memory_order_relaxed)) &&
         out.str(",\"live\":") && out.str(live ? "true" : "false") &&
         out.str(",\"recorded\":") && out.u64(head) &&
         out.str(",\"events\":[");
    if (ok) {
      if (take_locks) {
        std::lock_guard<std::mutex> lock(ring->mutex);
        // Re-read under the lock: the owner may have advanced meanwhile.
        ok = dump_ring_events(out, *ring,
                              ring->head.load(std::memory_order_relaxed));
      } else {
        ok = dump_ring_events(out, *ring, head);
      }
    }
    ok = ok && out.str("]}");
  }
  return ok && out.str("]}}\n");
}

bool dump_to_path(const char* path, const char* reason,
                  bool take_locks) noexcept {
  if (path[0] == '\0') return false;
  const int fd = ::open(path, O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  Writer out(fd);
  const bool ok = dump_core(out, reason, take_locks);
  ::close(fd);
  return ok;
}

// ---------------------------------------------------------------------------
// Crash handlers

const char* signal_reason(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
  }
  return "signal";
}

void crash_handler(int sig) {
  dump_to_path(g_dump_path, signal_reason(sig), /*take_locks=*/false);
  // SA_RESETHAND restored the default disposition on entry; re-raise so
  // the process still dies with the original signal (core dumps, wait
  // status, and CI failure detection all stay intact).
  ::raise(sig);
}

void term_handler(int sig) {
  dump_to_path(g_dump_path, "SIGTERM", /*take_locks=*/false);
  ::raise(sig);  // SA_RESETHAND: the default disposition terminates us
}

std::atomic<bool> g_handlers_installed{false};
std::atomic<bool> g_term_handler_installed{false};

/// Installs `handler` once for `signals` (`installed` latches); false when
/// no dump path is configured.
bool install_handler(void (*handler)(int), std::initializer_list<int> signals,
                     std::atomic<bool>& installed) {
  load_env_path();
  if (g_dump_path[0] == '\0') return false;
  if (installed.exchange(true)) return true;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = handler;
  // On the thread's alternate signal stack where it has one: a rank fiber
  // that overflows into its guard page faults with no stack left, and its
  // carrier's sigaltstack (machine/fibers.cpp) is where the dump runs.
  action.sa_flags = SA_RESETHAND | SA_NODEFER | SA_ONSTACK;
  sigemptyset(&action.sa_mask);
  for (const int sig : signals) ::sigaction(sig, &action, nullptr);
  return true;
}

}  // namespace

void record(const Event& event) {
  RankContext& context = current_context();
  if (context.ring == nullptr) context.ring = claim_ring();
  Ring& ring = *context.ring;
  std::lock_guard<std::mutex> lock(ring.mutex);
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  Event& slot = ring.slots[head % kRingCapacity];
  slot = event;
  if (slot.tid == 0) slot.tid = ring.tid.load(std::memory_order_relaxed);
  if (slot.ts == 0) slot.ts = wall_clock_now();
  ring.head.store(head + 1, std::memory_order_release);
  g_recorded.fetch_add(1, std::memory_order_relaxed);
}

void park_ring(Ring* ring) {
  ring->in_use.store(false, std::memory_order_release);
  g_rings.park(ring);
}

void set_dump_path(const std::string& path) {
  load_env_path();  // consume the once-flag so env cannot overwrite us
  std::strncpy(g_dump_path, path.c_str(), sizeof(g_dump_path) - 1);
  g_dump_path[sizeof(g_dump_path) - 1] = '\0';
}

bool install_crash_handlers() {
  return install_handler(crash_handler, {SIGSEGV, SIGABRT, SIGBUS, SIGFPE},
                         g_handlers_installed);
}

bool install_term_drain_handler() {
  return install_handler(term_handler, {SIGTERM}, g_term_handler_installed);
}

bool dump_file(const std::string& path, const char* reason) {
  return dump_to_path(path.c_str(), reason, /*take_locks=*/true);
}

std::string dump_string(const char* reason) {
  std::string text;
  Writer out(text);
  dump_core(out, reason, /*take_locks=*/true);
  return text;
}

bool dump_if_configured(const char* reason) noexcept {
  load_env_path();
  return dump_to_path(g_dump_path, reason, /*take_locks=*/true);
}

std::string recent_events_json(std::int64_t max_events) {
  // Ordinary code path: copy every ring's tail under its lock, then
  // merge by timestamp.
  std::vector<Event> events;
  for (Ring* ring = g_rings.first();
       ring != nullptr; ring = ring->next) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t count = std::min<std::uint64_t>(head, kRingCapacity);
    for (std::uint64_t i = 0; i < count; ++i) {
      events.push_back(ring->slots[(head - count + i) % kRingCapacity]);
    }
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& a, const Event& b) { return a.ts < b.ts; });
  if (max_events > 0 &&
      events.size() > static_cast<std::size_t>(max_events)) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(max_events));
  }

  std::string text;
  Writer out(text);
  out.str("{\"logs\":{\"recorded\":");
  out.i64(g_recorded.load(std::memory_order_relaxed));
  out.str(",\"returned\":");
  out.i64(static_cast<std::int64_t>(events.size()));
  out.str(",\"events\":[");
  for (std::size_t i = 0; i < events.size(); ++i) {
    write_event_json(out, events[i], i == 0);
  }
  out.str("]}}\n");
  return text;
}

Stats stats() {
  return {g_rings.made(), g_recorded.load(std::memory_order_relaxed)};
}

}  // namespace flightrec
}  // namespace capsp
