#include "util/prof.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "semiring/microkernel.hpp"
#include "util/check.hpp"
#include "util/context.hpp"
#include "util/json.hpp"

#if defined(__linux__)
#include <dirent.h>
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace capsp {

namespace prof_detail {
std::atomic<bool> g_enabled{false};
}  // namespace prof_detail

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Kernel accounting table.  ProfScope destructors record here only while
// a session is live; keys are interned name pointers (striped by pointer
// hash to keep serving worker contention negligible).

struct KernelTable {
  static constexpr std::size_t kStripes = 8;
  struct Stripe {
    std::mutex mutex;
    std::map<const char*, KernelStats> stats;
  };
  std::array<Stripe, kStripes> stripes;

  void record(const char* name, std::int64_t ops, std::int64_t bytes,
              double seconds) {
    Stripe& stripe =
        stripes[(reinterpret_cast<std::uintptr_t>(name) >> 4) % kStripes];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    KernelStats& k = stripe.stats[name];
    k.calls += 1;
    k.ops += ops;
    k.bytes += bytes;
    k.seconds += seconds;
  }
  void clear() {
    for (Stripe& stripe : stripes) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      stripe.stats.clear();
    }
  }
  /// Merge by string name: the same literal may be interned at distinct
  /// addresses across translation units.
  std::map<std::string, KernelStats> collect() {
    std::map<std::string, KernelStats> out;
    for (Stripe& stripe : stripes) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      for (const auto& [name, stats] : stripe.stats) {
        KernelStats& k = out[name];
        k.calls += stats.calls;
        k.ops += stats.ops;
        k.bytes += stats.bytes;
        k.seconds += stats.seconds;
      }
    }
    return out;
  }
};

KernelTable& kernel_table() {
  static KernelTable* t = new KernelTable();
  return *t;
}

/// The calling thread's CPU clock (a syscall, not vDSO: read only while
/// profiling).
double thread_clock() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// On-CPU seconds of `context`: its earlier slices plus the running
/// thread's time since the current slice began.  A kernel's time excludes
/// the time its rank sat runnable or parked.  A slice that began before
/// the session starts its clock at the first read.
double context_cpu_seconds(RankContext& context) {
  const double now = thread_clock();
  if (context.slice_start_cpu == RankContext::kUnclocked)
    context.slice_start_cpu = now;
  return context.cpu_seconds + (now - context.slice_start_cpu);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfScope

void ProfScope::enter(const char* name) {
  name_ = name;
  timed_ = prof_enabled();
  context_ = &current_context();
  const std::int32_t depth = context_->depth.load(std::memory_order_relaxed);
  if (depth < RankContext::kMaxDepth)
    context_->frames[depth].store(name, std::memory_order_release);
  context_->depth.store(depth + 1, std::memory_order_release);
  // The clock reads stay gated: the always-on part of a scope (the
  // frame stack, which CHECK failures report) is just the stores above.
  if (timed_) start_cpu_seconds_ = context_cpu_seconds(*context_);
}

void ProfScope::leave() {
  const double seconds =
      timed_ ? context_cpu_seconds(*context_) - start_cpu_seconds_ : 0;
  const std::int32_t depth = context_->depth.load(std::memory_order_relaxed);
  context_->depth.store(depth - 1, std::memory_order_release);
  // A session may have stopped mid-scope; drop the tail record so the
  // next session starts from a clean table.
  if (timed_ && prof_enabled())
    kernel_table().record(name_, ops_, bytes_, seconds);
}

void prof_switch_in(RankContext& context) {
  context.slice_start_cpu =
      prof_enabled() ? thread_clock() : RankContext::kUnclocked;
}

void prof_switch_out(RankContext& context) {
  if (context.slice_start_cpu == RankContext::kUnclocked) return;
  context.cpu_seconds += thread_clock() - context.slice_start_cpu;
  context.slice_start_cpu = RankContext::kUnclocked;
}

// ---------------------------------------------------------------------------
// Machine peak probe

namespace {

MachinePeak probe_machine_peak_impl() {
  MachinePeak peak;
  // Compute roof: the relaxation tile the kernels dispatch to
  // (semiring/microkernel.hpp), on a 64-column min-plus multiply that
  // fits in L1/L2, best of kTrials.  One "op" is one relaxation,
  // matching the kernels' op accounting.
  {
    constexpr int n = 64, kb = detail::kStepBlock, mr = detail::kTileRows;
    constexpr int kTrials = 5;
    std::vector<double> b(kb * n), c(n * n, 1e30), x(mr * kb);
    for (int i = 0; i < kb * n; ++i) b[i] = static_cast<double>((i * 13) % 89);
    for (int i = 0; i < mr * kb; ++i) x[i] = static_cast<double>((i * 7) % 97);
    const double* p[kb] = {};
    for (int t = 0; t < kb; ++t) p[t] = b.data() + t * n;
    const KernelIsa isa = kernel_isa();
    double best = 0, worst = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < kTrials; ++trial) {
      const Clock::time_point t0 = Clock::now();
      const Clock::time_point deadline = t0 + std::chrono::milliseconds(8);
      std::int64_t ops = 0;
      do {
        for (int i0 = 0; i0 < n; i0 += mr) {
          double* rows[mr] = {};
          for (int r = 0; r < mr; ++r) rows[r] = c.data() + (i0 + r) * n;
          detail::tile<MinPlusSemiring, mr>(isa, false, rows, p, x.data(), kb,
                                            0, n);
        }
        ops += static_cast<std::int64_t>(n) * kb * n;
      } while (Clock::now() < deadline);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      asm volatile("" : : "r,m"(c.data()) : "memory");
      const double rate = seconds > 0 ? static_cast<double>(ops) / seconds : 0;
      best = std::max(best, rate);
      worst = std::min(worst, rate);
    }
    peak.minplus_ops_per_second = best;
    peak.minplus_ops_spread = best > 0 ? (best - worst) / best : 0;
  }
  // Memory roof: streaming elementwise min over arrays far larger than
  // LLC.  Counted bytes are the touched bytes (read a, read+write c).
  {
    constexpr std::size_t n = std::size_t{1} << 21;  // 2M doubles = 16 MiB/array
    std::vector<double> a(n), c(n, 1e30);
    for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i % 1021);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline = t0 + std::chrono::milliseconds(20);
    std::int64_t bytes = 0;
    do {
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] < c[i]) c[i] = a[i];
      bytes += static_cast<std::int64_t>(n) * 3 * sizeof(double);
    } while (Clock::now() < deadline);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    asm volatile("" : : "r,m"(c.data()) : "memory");
    peak.stream_bytes_per_second =
        seconds > 0 ? static_cast<double>(bytes) / seconds : 0;
  }
  return peak;
}

}  // namespace

const MachinePeak& machine_peak() {
  static const MachinePeak peak = probe_machine_peak_impl();
  return peak;
}

// ---------------------------------------------------------------------------
// perf_event counters

namespace {

struct PerfSpec {
  const char* name;
  bool hardware;
  std::uint32_t type;
  std::uint64_t config;
};

#if defined(__linux__)
constexpr PerfSpec kPerfSpecs[] = {
    {"cycles", true, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {"instructions", true, PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {"llc_misses", true, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {"branch_misses", true, PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {"task_clock_ns", false, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
    {"page_faults", false, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
};

/// Tids of every live thread in this process, from /proc/self/task.
std::vector<int> list_self_tids() {
  std::vector<int> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    tids.push_back(std::atoi(entry->d_name));
  }
  ::closedir(dir);
  return tids;
}

int perf_event_open_fd(const PerfSpec& spec, int tid) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;
  attr.inherit = 1;  // threads spawned after open are counted too
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(
      ::syscall(__NR_perf_event_open, &attr, tid, -1, -1, 0));
}

std::int64_t perf_read(int fd) {
  std::int64_t value = 0;
  if (::read(fd, &value, sizeof(value)) != sizeof(value)) return 0;
  return value;
}
#endif  // __linux__

/// Per-counter open file descriptors plus the baseline readings taken at
/// session start (deltas are computed at stop).
struct PerfSession {
  PerfCounterSet set;
  std::vector<std::vector<int>> fds;       // [counter][thread]
  std::vector<std::int64_t> baseline;      // [counter] summed at start

  void open() {
    set.attempted = true;
#if defined(__linux__)
    if (std::getenv("CAPSP_PROF_NO_PERF") != nullptr) {
      for (const PerfSpec& spec : kPerfSpecs) {
        PerfCounter c;
        c.name = spec.name;
        c.hardware = spec.hardware;
        c.error = "disabled by CAPSP_PROF_NO_PERF";
        set.counters.push_back(std::move(c));
      }
      return;
    }
    const std::vector<int> tids = list_self_tids();
    set.threads_covered = static_cast<int>(tids.size());
    for (const PerfSpec& spec : kPerfSpecs) {
      PerfCounter counter;
      counter.name = spec.name;
      counter.hardware = spec.hardware;
      std::vector<int> counter_fds;
      for (const int tid : tids) {
        const int fd = perf_event_open_fd(spec, tid);
        if (fd < 0) {
          if (counter.error.empty()) counter.error = std::strerror(errno);
          // One refusal means the event type is unsupported or denied
          // (perf_event_paranoid, missing PMU); don't retry per thread.
          break;
        }
        counter_fds.push_back(fd);
      }
      counter.available = !counter_fds.empty() && counter.error.empty();
      if (!counter.available) {
        for (const int fd : counter_fds) ::close(fd);
        counter_fds.clear();
        if (counter.error.empty()) counter.error = "no threads found";
      } else {
        set.any_available = true;
      }
      std::int64_t base = 0;
      for (const int fd : counter_fds) base += perf_read(fd);
      fds.push_back(std::move(counter_fds));
      baseline.push_back(base);
      set.counters.push_back(std::move(counter));
    }
#else
    PerfCounter c;
    c.name = "perf_event";
    c.error = "perf_event_open not supported on this platform";
    set.counters.push_back(std::move(c));
#endif
  }

  PerfCounterSet close_and_collect() {
#if defined(__linux__)
    for (std::size_t i = 0; i < fds.size(); ++i) {
      std::int64_t total = 0;
      for (const int fd : fds[i]) {
        total += perf_read(fd);
        ::close(fd);
      }
      if (set.counters[i].available)
        set.counters[i].value = total - baseline[i];
    }
    fds.clear();
#endif
    return set;
  }
};

}  // namespace

const PerfCounter* PerfCounterSet::find(const std::string& name) const {
  for (const PerfCounter& counter : counters)
    if (counter.name == name) return &counter;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Profiler session

namespace {

struct RawSample {
  std::int32_t depth = 0;
  std::array<const char*, RankContext::kMaxDepth> frames{};
};

}  // namespace

struct Profiler::Session {
  ProfOptions options;
  Clock::time_point start_time;
  std::atomic<bool> stop_flag{false};
  std::atomic<std::int64_t> samples{0};
  std::int64_t idle_ticks = 0;  // sampler thread only
  std::int64_t dropped = 0;

  // Raw sample ring: the sampler is the only producer and also drains it
  // into `agg` whenever it reaches half capacity, so long sessions stay
  // bounded; stop() folds the remainder after joining.
  std::vector<RawSample> ring;
  std::size_t ring_used = 0;

  std::mutex agg_mutex;
  std::map<std::vector<const char*>, std::int64_t> agg;

  PerfSession perf;
  std::thread sampler;

  void fold_ring() {
    std::lock_guard<std::mutex> lock(agg_mutex);
    for (std::size_t i = 0; i < ring_used; ++i) {
      const RawSample& sample = ring[i];
      std::vector<const char*> key;
      key.reserve(static_cast<std::size_t>(sample.depth));
      for (std::int32_t d = 0; d < sample.depth; ++d)
        if (sample.frames[d] != nullptr) key.push_back(sample.frames[d]);
      if (!key.empty()) agg[key] += 1;
    }
    ring_used = 0;
  }

  void tick() {
    bool any = false;
    // Lock-free: contexts are never freed, and a parked one has an empty
    // stack.
    for (const RankContext* context = context_pool().first();
         context != nullptr; context = context->next) {
      std::int32_t depth = context->depth.load(std::memory_order_acquire);
      if (depth <= 0) continue;
      depth = std::min(depth, RankContext::kMaxDepth);
      if (ring_used >= ring.size()) {
        ++dropped;  // unreachable while the sampler self-drains
        continue;
      }
      RawSample& sample = ring[ring_used];
      sample.depth = depth;
      for (std::int32_t d = 0; d < depth; ++d)
        sample.frames[d] = context->frames[d].load(std::memory_order_acquire);
      ++ring_used;
      samples.fetch_add(1, std::memory_order_relaxed);
      any = true;
    }
    if (!any) ++idle_ticks;
    if (ring_used >= ring.size() / 2) fold_ring();
  }

  void run() {
    const std::chrono::duration<double> period(1.0 / options.hz);
    Clock::time_point next = Clock::now() + std::chrono::duration_cast<Clock::duration>(period);
    while (!stop_flag.load(std::memory_order_acquire)) {
      std::this_thread::sleep_until(next);
      next += std::chrono::duration_cast<Clock::duration>(period);
      const Clock::time_point now = Clock::now();
      if (next < now)  // overslept (stall/suspend): don't try to catch up
        next = now + std::chrono::duration_cast<Clock::duration>(period);
      tick();
    }
  }
};

Profiler& Profiler::global() {
  static Profiler* p = new Profiler();
  return *p;
}

bool Profiler::start(const ProfOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_) return false;
  CAPSP_CHECK_MSG(options.hz > 0 && options.hz <= 10000,
                  "profile hz out of range: " << options.hz);
  machine_peak();  // probe outside the session so it never pollutes it
  auto session = std::make_unique<Session>();
  session->options = options;
  session->ring.resize(std::max<std::size_t>(options.ring_capacity, 64));
  if (options.perf_counters) session->perf.open();
  kernel_table().clear();
  session->start_time = Clock::now();
  prof_detail::g_enabled.store(true, std::memory_order_release);
  Session* raw = session.get();
  session->sampler = std::thread([raw] { raw->run(); });
  session_ = std::move(session);
  return true;
}

ProfReport Profiler::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  CAPSP_CHECK_MSG(session_ != nullptr, "Profiler::stop without a session");
  Session& session = *session_;
  prof_detail::g_enabled.store(false, std::memory_order_release);
  session.stop_flag.store(true, std::memory_order_release);
  session.sampler.join();
  session.fold_ring();

  ProfReport report;
  report.enabled = true;
  report.hz = session.options.hz;
  report.duration_seconds =
      std::chrono::duration<double>(Clock::now() - session.start_time).count();
  report.samples = session.samples.load(std::memory_order_relaxed);
  report.idle_ticks = session.idle_ticks;
  report.dropped = session.dropped;
  report.peak = machine_peak();
  report.perf = session.perf.close_and_collect();
  report.kernels = kernel_table().collect();

  for (const auto& [key, count] : session.agg) {
    std::string stack;
    for (const char* frame : key) {
      if (!stack.empty()) stack += ';';
      stack += frame;
    }
    report.folded.push_back({std::move(stack), count});
    // Leaf (self) and anywhere-on-stack (total) attribution; a scope
    // counts once per sample even if it recurses.
    report.self_samples[key.back()] += count;
    std::vector<const char*> seen;
    for (const char* frame : key) {
      if (std::find(seen.begin(), seen.end(), frame) != seen.end()) continue;
      seen.push_back(frame);
      report.total_samples[frame] += count;
    }
  }
  std::sort(report.folded.begin(), report.folded.end(),
            [](const FoldedStack& a, const FoldedStack& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.stack < b.stack;
            });

  session_.reset();
  return report;
}

bool Profiler::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return session_ != nullptr;
}

Profiler::Status Profiler::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Status status;
  if (session_) {
    status.running = true;
    status.hz = session_->options.hz;
    status.samples = session_->samples.load(std::memory_order_relaxed);
  }
  return status;
}

// ---------------------------------------------------------------------------
// Report derivations and exporters

double ProfReport::effective_ghz() const {
  const PerfCounter* cycles = perf.find("cycles");
  const PerfCounter* task_clock = perf.find("task_clock_ns");
  if (cycles == nullptr || task_clock == nullptr) return 0;
  if (!cycles->available || !task_clock->available) return 0;
  if (task_clock->value <= 0) return 0;
  return static_cast<double>(cycles->value) /
         static_cast<double>(task_clock->value);
}

double ProfReport::ops_per_cycle(const KernelStats& k) const {
  const double ghz = effective_ghz();
  if (ghz <= 0 || k.seconds <= 0) return 0;
  const double cycles = k.seconds * ghz * 1e9;
  return cycles > 0 ? static_cast<double>(k.ops) / cycles : 0;
}

void ProfReport::write_folded(std::ostream& out) const {
  for (const FoldedStack& entry : folded)
    out << entry.stack << ' ' << entry.count << '\n';
}

void write_prof_fields(JsonWriter& json, const ProfReport& report) {
  json.key("profile");
  json.begin_object();
  json.field("enabled", report.enabled);
  json.field("hz", report.hz);
  json.field("duration_seconds", report.duration_seconds);
  json.field("samples", report.samples);
  json.field("idle_ticks", report.idle_ticks);
  json.field("dropped", report.dropped);

  json.key("machine_peak");
  json.begin_object();
  json.field("minplus_ops_per_second", report.peak.minplus_ops_per_second);
  json.field("minplus_ops_spread", report.peak.minplus_ops_spread);
  json.field("stream_bytes_per_second", report.peak.stream_bytes_per_second);
  json.end_object();

  json.key("perf");
  json.begin_object();
  json.field("attempted", report.perf.attempted);
  json.field("any_available", report.perf.any_available);
  json.field("threads_covered", report.perf.threads_covered);
  json.field("effective_ghz", report.effective_ghz());
  json.key("counters");
  json.begin_object();
  for (const PerfCounter& counter : report.perf.counters) {
    json.key(counter.name);
    json.begin_object();
    json.field("hardware", counter.hardware);
    json.field("available", counter.available);
    json.field("value", counter.value);
    if (!counter.error.empty()) json.field("error", counter.error);
    json.end_object();
  }
  json.end_object();
  json.end_object();

  json.key("scopes");
  json.begin_object();
  for (const auto& [name, total] : report.total_samples) {
    json.key(name);
    json.begin_object();
    const auto self = report.self_samples.find(name);
    json.field("self_samples",
               self != report.self_samples.end() ? self->second : 0);
    json.field("total_samples", total);
    json.end_object();
  }
  json.end_object();

  json.key("kernels");
  json.begin_object();
  for (const auto& [name, k] : report.kernels) {
    json.key(name);
    json.begin_object();
    json.field("calls", k.calls);
    json.field("ops", k.ops);
    json.field("bytes", k.bytes);
    json.field("seconds", k.seconds);
    json.field("ops_per_second", k.ops_per_second());
    json.field("bytes_per_second", k.bytes_per_second());
    json.field("intensity", k.intensity());
    json.field("ops_per_cycle", report.ops_per_cycle(k));
    // Roofline position: fraction of the probed machine roofs this
    // kernel achieved (0 when the kernel reported no ops/bytes).
    json.field("peak_ops_fraction",
               report.peak.minplus_ops_per_second > 0
                   ? k.ops_per_second() / report.peak.minplus_ops_per_second
                   : 0.0);
    json.field("peak_bytes_fraction",
               report.peak.stream_bytes_per_second > 0
                   ? k.bytes_per_second() / report.peak.stream_bytes_per_second
                   : 0.0);
    json.end_object();
  }
  json.end_object();

  // Folded stacks, capped: the full set goes to --profile-folded files;
  // JSON embeds the top entries for the summary tooling.
  constexpr std::size_t kMaxFoldedJson = 100;
  json.key("folded");
  json.begin_array();
  std::size_t emitted = 0;
  for (const FoldedStack& entry : report.folded) {
    if (emitted++ >= kMaxFoldedJson) break;
    json.begin_object();
    json.field("stack", entry.stack);
    json.field("count", entry.count);
    json.end_object();
  }
  json.end_array();
  json.field("folded_truncated",
             report.folded.size() > kMaxFoldedJson);

  json.end_object();
}

void write_prof_report_json(std::ostream& out, const ProfReport& report) {
  JsonWriter json(out);
  json.begin_object();
  write_prof_fields(json, report);
  json.end_object();
  out << '\n';
}

}  // namespace capsp
