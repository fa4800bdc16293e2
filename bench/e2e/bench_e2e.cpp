// bench_e2e — end-to-end solve and serve benchmark (bench/e2e/README.md).
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--tmp-dir <dir>]
//   bench_e2e --smoke [--tmp-dir <dir>]
//
// One process runs one workload.  --trace 0 measures the end-to-end
// metrics with every observability feature off.  --trace 1 is a separate
// run that times each layer from outside, around calls into its public
// functions: min-plus kernel wrappers handed to run_sparse_apsp_semiring,
// nested_dissection and an empty Machine::run timed on their own, and the
// serving layer's own RequestTraceLog switched on.  Nothing inside src/
// is instrumented for this benchmark.
//
// Every solve and every baseline run is compared bit for bit against
// Dijkstra from every source, every served distance against the solved
// matrix, and every served path is walked edge by edge.  The last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics; --out also writes the same
// numbers with provenance, phase durations, sample counts and raw samples.
// --tmp-dir names the directory for temporary snapshot files.
#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baseline/reference.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/machine.hpp"
#include "machine/trace_export.hpp"
#include "partition/nested_dissection.hpp"
#include "semiring/semirings.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/buildinfo.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  Vertex side = 0;  ///< grid side; n = side²
  int height = 0;   ///< eTree height; p = (2^h - 1)² rank threads
  bool serve = false;
  // Serving workloads only.
  bool paths = false;  ///< uniform shortest_path pairs, else Zipf distance
  std::int64_t tile_dim = kDefaultTileDim;
  std::int64_t cache_bytes = 0;
  double rate_qps = 0;  ///< open-loop arrival rate
};

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

// Why each workload (README.md has the long form):
//  * solve_grid_p49 — leaf blocks of ~1000² put most solve CPU in the
//    semiring kernels, with few messages.  The roadmap's reference solve.
//  * solve_grid_p3969 — tiny blocks and 3969 rank threads put most CPU in
//    the machine layer and the core schedule; kernels barely register.
//  * serve_hot_distance — Zipf distance lookups on a fully cached matrix:
//    the queue → worker → future path is the whole cost.
//  * serve_cold_path — uniform path queries against a cache holding ~3% of
//    the matrix: tile misses, snapshot reads and the next-hop walk.
// The serve workloads solve their n=4096 matrix at heights 4 (p=225) and
// 5 (p=961), so the four workloads report L and B of four distinct solver
// configurations.  The open-loop rates are about 5% (hot) and 18% (cold)
// of the capacity measured on a 4-CPU host whose speed drifted by up to
// 2×: a higher rate tipped into saturation in the host's slow spells.
std::vector<WorkloadSpec> workloads(bool smoke) {
  if (smoke) {
    // Tiny sizes that still take every code path (misses included: 81
    // tiles of 16² against a 16-tile cache).
    return {
        {"solve_grid_p49", 12, 2},
        {"solve_grid_p3969", 12, 3},
        {"serve_hot_distance", 12, 2, true, false, 16, kMiB, 5000},
        {"serve_cold_path", 12, 3, true, true, 16, 16 * (16 * 16 * 8 + 64),
         1000},
    };
  }
  return {
      {"solve_grid_p49", 64, 3},
      {"solve_grid_p3969", 32, 6},
      {"serve_hot_distance", 64, 4, true, false, kDefaultTileDim, 192 * kMiB,
       25000},
      {"serve_cold_path", 64, 5, true, true, kDefaultTileDim, 4 * kMiB, 250},
  };
}

// Sample counts and phase shares (README.md, "Sample counts").
constexpr int kSetupRepeats = 5;        // set-up repeats; setup_s is the median
constexpr std::size_t kMinPairs = 3;    // solve/baseline pairs, at least
constexpr int kSpawnRepeats = 3;        // empty Machine::run timings
constexpr int kBaselineSources = 101;   // dijkstra_sssp timings per round
constexpr int kServeWorkers = 2;
constexpr int kCapacityInFlight = 64;
constexpr double kRoundCapacityShare = 0.075;  // of --seconds, per round
constexpr double kTailQuantile = 0.90;
constexpr double kZipfTheta = 0.99;
constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);
constexpr std::size_t kQueryPool = std::size_t{1} << 18;
constexpr std::size_t kWarmPaths = 32;
constexpr std::int64_t kTraceEveryDistance = 64;
constexpr std::int64_t kTraceEveryPath = 4;
constexpr std::size_t kTraceKeep = 50000;
constexpr std::size_t kMaxKernelSpans = 200000;
constexpr std::uint64_t kGraphSalt = 0x6a09e667f3bcc908ull;
constexpr std::uint64_t kQuerySalt = 0xbb67ae8584caa73bull;

// ---------------------------------------------------------------------
// Metrics: the names, units and order BENCHMARK.json lists.
// ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Speed is gated as ratios to a Dijkstra baseline timed in the same
// process, interleaved with the measurement: on a shared host absolute
// times drift with the host's speed from one set of runs to the next
// (README.md).  The absolute figures are per-layer metrics and are in the
// results document.
constexpr MetricDef kEndToEnd[] = {
    {"speedup_vs_dijkstra", "x"},      {"cpu_speedup_vs_dijkstra", "x"},
    {"crit_latency_msgs", "msgs"},     {"crit_bandwidth_words", "words"},
    {"peak_rss_mb", "MB"},             {"setup_s", "s"},
};

// A layer that does no work on a workload reports 0 there (README.md).
constexpr MetricDef kPerLayer[] = {
    {"e2e.solve_s", "s"},
    {"e2e.query_p50_us", "us"},
    {"e2e.query_tail_us", "us"},
    {"e2e.capacity_qps", "1/s"},
    {"semiring.fw_cpu_s", "s"},
    {"semiring.accumulate_cpu_s", "s"},
    {"semiring.combine_cpu_s", "s"},
    {"semiring.calls", "count"},
    {"semiring.ops", "count"},
    {"semiring.gops_per_cpu_s", "Gop/s"},
    {"semiring.cpu_share", "ratio"},
    {"machine.spawn_s", "s"},
    {"machine.nonkernel_cpu_s", "s"},
    {"machine.idle_core_s", "s"},
    {"machine.messages", "count"},
    {"machine.words", "count"},
    {"machine.max_rank_words", "count"},
    {"partition.nd_s", "s"},
    {"partition.separator_size", "count"},
    {"core.solve_cpu_s", "s"},
    {"core.solve_wall_s", "s"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.execute_self_p50_us", "us"},
    {"serve.tiles_per_req", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_req", "count"},
    {"cache.hit_us", "us"},
    {"cache.miss_self_us", "us"},
    {"snapshot.read_us", "us"},
    {"snapshot.checksum_us", "us"},
    {"snapshot.bytes_per_req", "bytes"},
    {"path.hops_per_req", "count"},
    {"path.hop_self_us", "us"},
    {"baseline.dijkstra_s", "s"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.sent", "count"},
    {"trace_overhead", "ratio"},
};

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;
  std::string tmp_dir = ".";
};

struct RunResult {
  std::map<std::string, double> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int ranks = 0;
  // For the results document only.
  std::map<std::string, double> phase_s;              ///< wall seconds
  std::map<std::string, std::int64_t> samples;        ///< sample counts
  std::map<std::string, std::vector<double>> series;  ///< raw samples

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------
// Clocks, memory and statistics
// ---------------------------------------------------------------------

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// CPU clocks leave out the time a thread waits for a CPU, including the
// time a virtual machine's CPU is taken by its host (steal), so CPU-time
// ratios hold steady through the host's slow spells.
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// A field of /proc/self/status in kB (VmRSS, VmHWM), as MiB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
  CAPSP_CHECK_MSG(false, "no " << field << " in /proc/self/status");
  return 0;
}

/// Starts the measured memory phase: hands freed heap pages back to the
/// kernel and resets the peak resident set (VmHWM) to the current one, so
/// that VmHWM afterwards is the peak of the phase alone.  Without the
/// reset the peak could be that of whatever ran before, such as the solve
/// that fed a serve run; without the trim it would count heap pages that
/// earlier work freed but the allocator kept.
void begin_memory_phase() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  CAPSP_CHECK_MSG(clear.good(), "cannot reset VmHWM via clear_refs");
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
  CAPSP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  CAPSP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Per-layer figures over spans that may not occur on a workload (no cache
// misses on a fully cached matrix): 0 when there is no sample.
double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0 : median(v);
}

double quantile_or_zero(const std::vector<double>& v, double q) {
  return v.empty() ? 0 : quantile(v, q);
}

double mean_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio_or_zero(double num, double den) { return den > 0 ? num / den : 0; }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

bool bits_equal(Dist a, Dist b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bit_identical(const DistBlock& a, const DistBlock& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(Dist)) == 0;
}

/// Calls `fn` until `seconds` have passed and at least `min_samples` ran.
template <typename Fn>
void repeat_for(double seconds, std::size_t min_samples, Fn fn) {
  const auto loop_start = Clock::now();
  for (std::size_t i = 0;
       i < min_samples || seconds_since(loop_start) < seconds; ++i)
    fn();
}

template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ~ScopeExit() { f_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F f_;
};

Graph make_grid(Vertex side, std::uint64_t seed) {
  Rng rng(seed ^ kGraphSalt);
  return make_grid2d(side, side, rng);
}

/// Wall and process-CPU seconds of one call.
struct Timed {
  double wall_s = 0;
  double cpu_s = 0;
};

template <typename Fn>
Timed timed(Fn&& fn) {
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  fn();
  return {seconds_since(start), process_cpu_s() - cpu0};
}

// ---------------------------------------------------------------------
// Baseline: Dijkstra from every source, one thread per CPU
// ---------------------------------------------------------------------

/// Runs dijkstra_sssp from every source on `threads` threads and compares
/// each row with `matrix`; true when every row matches bit for bit.  Rows
/// are dropped once compared, so the run adds one row per thread to the
/// resident set.  It uses every CPU, as the solve does, so a host that
/// slows parallel work slows the baseline too.
bool dijkstra_rows_match(const Graph& graph, const DistBlock& matrix,
                         int threads) {
  const Vertex n = graph.num_vertices();
  std::atomic<Vertex> next{0};
  std::atomic<bool> match{true};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        for (Vertex s = next++; s < n; s = next++) {
          const std::vector<Dist> row = dijkstra_sssp(graph, s);
          if (std::memcmp(row.data(), matrix.row(s),
                          row.size() * sizeof(Dist)) != 0)
            match = false;
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return match;
}

// ---------------------------------------------------------------------
// Semiring layer, timed from outside: kernel wrappers
// ---------------------------------------------------------------------

enum KernelKind { kFw, kAccumulate, kCombine, kNumKernels };
constexpr const char* kKernelSpanNames[kNumKernels] = {
    "semiring.fw", "semiring.accumulate", "semiring.combine"};

struct KernelSpan {
  int kind = 0;
  int track = 0;
  double start_us = 0;
  double dur_us = 0;
  double cpu_us = 0;
};

/// Per-call thread CPU time of the min-plus kernels.  Thread CPU, not wall
/// time: with up to 3969 rank threads on a few cores a wall-clock span
/// also counts the time its thread sat descheduled.
class KernelLedger {
 public:
  struct Totals {
    double cpu_s[kNumKernels] = {};
    std::int64_t calls = 0;
    std::int64_t ops = 0;
  };

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    totals_ = Totals{};
    spans_.clear();
    epoch_ = Clock::now();
    next_track_ = 0;
    ++generation_;
  }

  void record(KernelKind kind, Clock::time_point start, Clock::time_point end,
              double cpu_s, std::int64_t ops) {
    // Rank threads are fresh per solve: number them in order of their
    // first kernel call, once per reset().
    thread_local std::uint64_t generation = 0;
    thread_local int track = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    if (generation != generation_) {
      generation = generation_;
      track = next_track_++;
    }
    totals_.cpu_s[kind] += cpu_s;
    ++totals_.calls;
    totals_.ops += ops;
    if (spans_.size() < kMaxKernelSpans)
      spans_.push_back({kind, track, micros_between(epoch_, start),
                        micros_between(start, end), cpu_s * 1e6});
  }

  Totals totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
  }
  std::vector<KernelSpan> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  Totals totals_;
  std::vector<KernelSpan> spans_;
  Clock::time_point epoch_ = Clock::now();
  int next_track_ = 0;
  std::uint64_t generation_ = 0;
};

KernelLedger& kernel_ledger() {
  static KernelLedger ledger;
  return ledger;
}

class KernelCall {
 public:
  explicit KernelCall(KernelKind kind)
      : kind_(kind), start_(Clock::now()), cpu_start_(thread_cpu_s()) {}
  void finish(std::int64_t ops) {
    const double cpu = thread_cpu_s() - cpu_start_;
    kernel_ledger().record(kind_, start_, Clock::now(), cpu, ops);
  }

 private:
  KernelKind kind_;
  Clock::time_point start_;
  double cpu_start_;
};

std::int64_t traced_fw(DistBlock& a) {
  KernelCall call(kFw);
  const std::int64_t ops = semiring_fw<MinPlusSemiring>(a);
  call.finish(ops);
  return ops;
}

std::int64_t traced_accumulate(DistBlock& c, const DistBlock& a,
                               const DistBlock& b) {
  KernelCall call(kAccumulate);
  const std::int64_t ops = semiring_accumulate<MinPlusSemiring>(c, a, b);
  call.finish(ops);
  return ops;
}

void traced_combine(DistBlock& c, const DistBlock& other) {
  KernelCall call(kCombine);
  semiring_elementwise_plus<MinPlusSemiring>(c, other);
  call.finish(0);
}

/// The solver's min-plus bundle with every kernel behind a timing wrapper.
SemiringKernels traced_kernels() {
  SemiringKernels kernels = SemiringKernels::of<MinPlusSemiring>();
  kernels.fw = &traced_fw;
  kernels.accumulate = &traced_accumulate;
  kernels.combine = &traced_combine;
  return kernels;
}

void write_kernel_trace(const std::string& path, const std::string& workload,
                        const std::vector<KernelSpan>& spans) {
  std::ofstream out(path);
  CAPSP_CHECK_MSG(out.good(), "cannot write " << path);
  ChromeTraceWriter writer(out);
  writer.process_name(1, workload + " traced solve: kernel calls");
  int tracks = 0;
  for (const KernelSpan& s : spans) tracks = std::max(tracks, s.track + 1);
  for (int t = 0; t < tracks; ++t)
    writer.thread_name(1, t, "rank thread " + std::to_string(t));
  for (const KernelSpan& s : spans) {
    JsonWriter& json = writer.begin_event(kKernelSpanNames[s.kind], "kernel",
                                          "X", 1, s.track, s.start_us);
    json.field("dur", s.dur_us);
    json.key("args");
    json.begin_object();
    json.field("cpu_us", s.cpu_us);
    json.end_object();
    writer.end_event();
  }
  JsonWriter& meta = writer.begin_meta();
  meta.field("workload", workload);
  meta.field("spans", static_cast<std::int64_t>(spans.size()));
  writer.close();
}

// ---------------------------------------------------------------------
// Solve workloads
// ---------------------------------------------------------------------

struct TracedSolve {
  Timed time;
  KernelLedger::Totals kernels;

  double kernel_cpu_s() const {
    return kernels.cpu_s[kFw] + kernels.cpu_s[kAccumulate] +
           kernels.cpu_s[kCombine];
  }
};

RunResult run_solve(const WorkloadSpec& spec, const RunArgs& args,
                    const std::string& trace_path) {
  RunResult r;
  const int cpus = online_cpus();
  SparseApspOptions options;
  options.height = spec.height;
  // Set-up builds the input graph and its nested dissection, the solver's
  // pre-processing, which every solve on that graph reuses.  It is
  // repeated so its median is steady.  The ND seed is the solver's
  // default, so the dissection is the one run_sparse_apsp(graph, options)
  // would compute.
  Graph graph;
  std::optional<Dissection> nd;
  std::vector<double> setup, nd_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    graph = make_grid(spec.side, args.seed);
    const auto t1 = Clock::now();
    Rng nd_rng(options.seed);
    nd.emplace(
        nested_dissection(graph, options.height, nd_rng, options.bisect));
    setup.push_back(seconds_since(t0));
    nd_s.push_back(seconds_since(t1));
  }
  r.series["setup_s"] = setup;

  auto t0 = Clock::now();
  const DistBlock reference = reference_apsp(graph);
  r.phase_s["reference_apsp"] = seconds_since(t0);

  CostReport costs;
  const auto solve = [&] {
    std::optional<SparseApspResult> res;
    const Timed time =
        timed([&] { res.emplace(run_sparse_apsp(graph, *nd, options)); });
    r.check(bit_identical(res->distances, reference));
    costs = res->costs;
    r.ranks = res->num_ranks;
    return time;
  };
  const auto baseline = [&] {
    return timed([&] { r.check(dijkstra_rows_match(graph, reference, cpus)); });
  };
  // The first solve of a process pays one-off costs (thread stacks, malloc
  // arenas) that later solves do not; it is checked but not reported.
  r.phase_s["warmup_solve"] = solve().wall_s;

  if (!args.traced) {
    // Solves alternate with baseline runs, so both kinds meet the same
    // spells of the host.
    std::vector<double> solve_s, solve_cpu_s, base_s, base_cpu_s;
    begin_memory_phase();
    repeat_for(args.seconds, kMinPairs, [&] {
      const Timed s = solve();
      const Timed b = baseline();
      solve_s.push_back(s.wall_s);
      solve_cpu_s.push_back(s.cpu_s);
      base_s.push_back(b.wall_s);
      base_cpu_s.push_back(b.cpu_s);
    });
    r.phase_s["pairs"] = sum(solve_s) + sum(base_s);
    r.series["solve_s"] = solve_s;
    r.series["solve_cpu_s"] = solve_cpu_s;
    r.series["dijkstra_s"] = base_s;
    r.series["dijkstra_cpu_s"] = base_cpu_s;
    r.metrics["speedup_vs_dijkstra"] = median(base_s) / median(solve_s);
    r.metrics["cpu_speedup_vs_dijkstra"] =
        median(base_cpu_s) / median(solve_cpu_s);
    r.metrics["crit_latency_msgs"] = costs.critical_latency;
    r.metrics["crit_bandwidth_words"] = costs.critical_bandwidth;
    r.metrics["peak_rss_mb"] = status_mb("VmHWM");
    r.metrics["setup_s"] = median(setup);
    return r;
  }

  // Traced run: untraced solves for the absolute time, rank-thread
  // spawning on its own, one baseline, then solves whose kernels run
  // through the timing wrappers.
  std::vector<double> solves;
  repeat_for(args.seconds / 2, kMinPairs,
             [&] { solves.push_back(solve().wall_s); });
  r.series["solve_s"] = solves;
  r.phase_s["solves"] = sum(solves);

  std::vector<double> spawn;
  for (int i = 0; i < kSpawnRepeats; ++i) {
    Machine machine(r.ranks);
    t0 = Clock::now();
    machine.run([](Comm&) {});
    spawn.push_back(seconds_since(t0));
  }
  const double baseline_s = baseline().wall_s;

  const SemiringKernels kernels = traced_kernels();
  std::vector<TracedSolve> traced;
  const auto traced_solve = [&] {
    kernel_ledger().reset();
    std::optional<SparseApspResult> res;
    const Timed time = timed([&] {
      res.emplace(run_sparse_apsp_semiring(graph, *nd, kernels, options));
    });
    traced.push_back({time, kernel_ledger().totals()});
    // Bit-identical to the reference, hence to the untraced solves.
    r.check(bit_identical(res->distances, reference) &&
            res->costs.critical_latency == costs.critical_latency &&
            res->costs.critical_bandwidth == costs.critical_bandwidth);
  };
  t0 = Clock::now();
  repeat_for(args.seconds / 2, kMinPairs, traced_solve);
  r.phase_s["traced_solves"] = seconds_since(t0);
  if (!trace_path.empty())
    write_kernel_trace(trace_path, spec.name, kernel_ledger().spans());

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const TracedSolve& t : traced) v.push_back(field(t));
    return median(v);
  };
  const KernelLedger::Totals& last = traced.back().kernels;
  auto& m = r.metrics;
  m["e2e.solve_s"] = median(solves);
  m["semiring.fw_cpu_s"] =
      med([](const TracedSolve& t) { return t.kernels.cpu_s[kFw]; });
  m["semiring.accumulate_cpu_s"] =
      med([](const TracedSolve& t) { return t.kernels.cpu_s[kAccumulate]; });
  m["semiring.combine_cpu_s"] =
      med([](const TracedSolve& t) { return t.kernels.cpu_s[kCombine]; });
  m["semiring.calls"] = static_cast<double>(last.calls);
  m["semiring.ops"] = static_cast<double>(last.ops);
  m["semiring.gops_per_cpu_s"] = med([](const TracedSolve& t) {
    return ratio_or_zero(static_cast<double>(t.kernels.ops) * 1e-9,
                         t.kernels.cpu_s[kFw] + t.kernels.cpu_s[kAccumulate]);
  });
  m["semiring.cpu_share"] = med([](const TracedSolve& t) {
    return ratio_or_zero(t.kernel_cpu_s(), t.time.cpu_s);
  });
  m["machine.spawn_s"] = median(spawn);
  m["machine.nonkernel_cpu_s"] = med(
      [](const TracedSolve& t) { return t.time.cpu_s - t.kernel_cpu_s(); });
  m["machine.idle_core_s"] = med([&](const TracedSolve& t) {
    return std::max(0.0, cpus * t.time.wall_s - t.time.cpu_s);
  });
  m["machine.messages"] = static_cast<double>(costs.total_messages);
  m["machine.words"] = static_cast<double>(costs.total_words);
  m["machine.max_rank_words"] = static_cast<double>(costs.max_rank_words);
  m["partition.nd_s"] = median(nd_s);
  m["partition.separator_size"] =
      static_cast<double>(nd->top_separator_size());
  m["core.solve_cpu_s"] =
      med([](const TracedSolve& t) { return t.time.cpu_s; });
  m["core.solve_wall_s"] =
      med([](const TracedSolve& t) { return t.time.wall_s; });
  m["baseline.dijkstra_s"] = baseline_s;
  m["trace_overhead"] = m["core.solve_wall_s"] / median(solves) - 1;
  return r;
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

struct Query {
  Vertex u = 0;
  Vertex v = 0;
};

/// Zipf-skewed vertex draw: rank r has probability ∝ 1/(r+1)^theta, and a
/// seeded permutation spreads the hot ranks over the matrix so they do not
/// share tiles.  The same construction as serve_tool's sampler, which is
/// local to that tool.
class ZipfSampler {
 public:
  ZipfSampler(Vertex n, double theta, Rng& rng) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double total = 0;
    for (Vertex r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    perm_.resize(static_cast<std::size_t>(n));
    std::iota(perm_.begin(), perm_.end(), Vertex{0});
    for (std::size_t i = perm_.size(); i > 1; --i)
      std::swap(perm_[i - 1], perm_[rng.uniform(i)]);
  }

  Vertex draw(Rng& rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform_real());
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return perm_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<Vertex> perm_;
};

std::vector<Query> make_queries(Vertex n, bool zipf, std::size_t count,
                                Rng& rng) {
  std::vector<Query> queries;
  queries.reserve(count);
  if (zipf) {
    const ZipfSampler sampler(n, kZipfTheta, rng);
    for (std::size_t i = 0; i < count; ++i)
      queries.push_back({sampler.draw(rng), sampler.draw(rng)});
  } else {
    const auto bound = static_cast<std::uint64_t>(n);
    for (std::size_t i = 0; i < count; ++i)
      queries.push_back({static_cast<Vertex>(rng.uniform(bound)),
                         static_cast<Vertex>(rng.uniform(bound))});
  }
  return queries;
}

/// distance_async queries; a reply is right when it equals the matrix
/// entry bit for bit.
struct DistanceQueries {
  using Reply = DistanceReply;
  static std::future<Reply> submit(DistanceService& s, Query q) {
    return s.distance_async(q.u, q.v);
  }
  static bool check(const Graph&, const DistBlock& m, Query q,
                    const Reply& r) {
    return r.error == ServeError::kOk &&
           bits_equal(r.distance, m.at(q.u, q.v));
  }
};

/// shortest_path_async queries; a reply is right when its distance equals
/// the matrix entry and its path runs u → v over real edges whose weights
/// sum to that distance (integer weights, so the sum is exact).
struct PathQueries {
  using Reply = PathReply;
  static std::future<Reply> submit(DistanceService& s, Query q) {
    return s.shortest_path_async(q.u, q.v);
  }
  static bool check(const Graph& g, const DistBlock& m, Query q,
                    const Reply& r) {
    if (r.error != ServeError::kOk || !bits_equal(r.distance, m.at(q.u, q.v)))
      return false;
    if (r.path.empty() || r.path.front() != q.u || r.path.back() != q.v)
      return false;
    Dist length = 0;
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      if (!g.has_edge(r.path[i - 1], r.path[i])) return false;
      length += g.edge_weight(r.path[i - 1], r.path[i]);
    }
    return bits_equal(length, r.distance);
  }
};

/// One serving stack: snapshot file, reader and service.  The snapshot
/// file is removed when the stack goes away.
class ServeStack {
 public:
  ServeStack(const WorkloadSpec& spec, const Graph& graph,
             const DistBlock& matrix, std::string path,
             std::int64_t trace_every)
      : path_(std::move(path)) {
    write_snapshot(path_, matrix, spec.tile_dim);
    auto reader = std::make_shared<SnapshotReader>(path_);
    ServeOptions options;
    options.threads = kServeWorkers;
    options.cache_bytes = spec.cache_bytes;
    // Latency is measured from each request's due time, so a stall shows
    // as a backlog, never as refusals.
    options.max_queue = std::size_t{1} << 24;
    options.trace_sample_every = trace_every;
    options.trace_keep = kTraceKeep;
    service_ = std::make_unique<DistanceService>(std::move(reader), graph,
                                                 options);
  }
  ~ServeStack() {
    service_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  DistanceService& service() { return *service_; }

 private:
  std::string path_;
  std::unique_ptr<DistanceService> service_;
};

/// Fill the cache the way the measured phase will find it: every tile for
/// the distance mix (its budget holds the whole matrix), a few paths for
/// the path mix (its budget holds ~3% of it).
template <typename Kind>
void warm_up(const WorkloadSpec& spec, DistanceService& service,
             const Graph& graph, const DistBlock& matrix,
             const std::vector<Query>& warm, RunResult& r) {
  if constexpr (std::is_same_v<Kind, DistanceQueries>) {
    std::vector<std::pair<Vertex, Vertex>> pairs;
    const auto step = static_cast<Vertex>(spec.tile_dim);
    for (Vertex u = 0; u < graph.num_vertices(); u += step)
      for (Vertex v = 0; v < graph.num_vertices(); v += step)
        pairs.emplace_back(u, v);
    const auto replies = service.distance_batch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
      r.check(Kind::check(graph, matrix, {pairs[i].first, pairs[i].second},
                          replies[i]));
  } else {
    for (const Query& q : warm)
      r.check(Kind::check(graph, matrix, q, Kind::submit(service, q).get()));
  }
}

/// Where each phase takes its queries: one pool, read in order.
struct QueryStream {
  const std::vector<Query>& pool;
  std::size_t cursor = 0;
  Query next() { return pool[cursor++ % pool.size()]; }
};

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< from each request's due time
  std::vector<double> lag_us;      ///< how late the generator sent it
  std::int64_t sent = 0;
  std::int64_t failed = 0;
  double seconds = 0;
};

/// Open loop at a fixed rate: one generator thread issues requests on a
/// schedule through the async API whether or not earlier ones finished;
/// one collector thread waits on the replies in order and times each from
/// its due time, so a stall is charged to every request queued behind it.
template <typename Kind>
OpenLoopResult run_open_loop(DistanceService& service, const Graph& graph,
                             const DistBlock& matrix, double rate,
                             double seconds, QueryStream& queries) {
  struct Pending {
    Clock::time_point due;
    Query query;
    std::future<typename Kind::Reply> reply;
  };
  OpenLoopResult out;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done = false;
  const auto total =
      std::max<std::int64_t>(static_cast<std::int64_t>(rate * seconds), 1);
  out.latency_us.reserve(static_cast<std::size_t>(total));
  out.lag_us.reserve(static_cast<std::size_t>(total));
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  {
    std::thread collector([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return !pending.empty() || done; });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        const typename Kind::Reply reply = p.reply.get();
        out.latency_us.push_back(micros_between(p.due, Clock::now()));
        if (!Kind::check(graph, matrix, p.query, reply)) ++out.failed;
      }
    });
    ScopeExit stop_collector([&] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_one();
      collector.join();
    });
    for (std::int64_t i = 0; i < total; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / rate));
      // Sleep until just before the due time, then spin: a plain sleep
      // overshoots by the timer slack, tens of microseconds, which would
      // dominate the latency of a cached lookup.
      std::this_thread::sleep_until(due - kSpinBeforeDue);
      while (Clock::now() < due) {
      }
      out.lag_us.push_back(micros_between(due, Clock::now()));
      const Query q = queries.next();
      Pending p{due, q, Kind::submit(service, q)};
      {
        std::lock_guard<std::mutex> lock(mutex);
        pending.push_back(std::move(p));
      }
      cv.notify_one();
    }
  }
  out.sent = total;
  out.seconds = seconds_since(start);
  return out;
}

struct CapacityResult {
  double qps = 0;
  double cpu_per_request_s = 0;  ///< process CPU per completed request
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double seconds = 0;
};

/// Capacity: one client thread keeps kCapacityInFlight requests in flight
/// and counts completions per second, and the process CPU they cost.
template <typename Kind>
CapacityResult run_capacity(DistanceService& service, const Graph& graph,
                            const DistBlock& matrix, double seconds,
                            QueryStream& queries) {
  std::deque<std::pair<Query, std::future<typename Kind::Reply>>> inflight;
  const auto submit = [&] {
    const Query q = queries.next();
    inflight.emplace_back(q, Kind::submit(service, q));
  };
  CapacityResult out;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  for (int i = 0; i < kCapacityInFlight; ++i) submit();
  // Completions inside the window count; the requests still in flight
  // when it closes are drained and checked but not counted.
  std::int64_t in_window = 0;
  double cpu_s = 0;
  bool window_open = true;
  while (!inflight.empty()) {
    auto [q, future] = std::move(inflight.front());
    inflight.pop_front();
    if (!Kind::check(graph, matrix, q, future.get())) ++out.failed;
    ++out.completed;
    if (!window_open) continue;
    ++in_window;
    const double elapsed = seconds_since(start);
    if (elapsed < seconds) {
      submit();
    } else {
      window_open = false;
      out.seconds = elapsed;
      cpu_s = process_cpu_s() - cpu0;
    }
  }
  out.qps = static_cast<double>(in_window) / out.seconds;
  out.cpu_per_request_s = cpu_s / static_cast<double>(in_window);
  return out;
}

struct SpanSummary {
  std::map<std::string, std::vector<double>> self_us;  ///< by span name
  std::int64_t requests = 0;
};

/// Self time of every span of every kept trace numbered `first_id` or
/// later (earlier ones are the warm-up): its duration minus the part its
/// child spans cover.
SpanSummary summarize_spans(const RequestTraceLog& log,
                            std::int64_t first_id) {
  SpanSummary s;
  for (const auto& trace : log.kept()) {
    if (trace->id() < first_id) continue;
    ++s.requests;
    const std::vector<TraceSpan>& spans = trace->spans();
    std::vector<double> child_us(spans.size(), 0);
    for (const TraceSpan& span : spans)
      if (span.parent >= 0)
        child_us[static_cast<std::size_t>(span.parent)] +=
            span.end_us - span.start_us;
    for (std::size_t i = 0; i < spans.size(); ++i)
      s.self_us[spans[i].name].push_back(spans[i].end_us - spans[i].start_us -
                                         child_us[i]);
  }
  return s;
}

std::int64_t counter_of(const MetricsSnapshot& snapshot,
                        const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second.counter;
}

/// Per-round figures of a serve run.
struct ServeRounds {
  std::vector<double> qps, cpu_per_request_s, sssp_s, sssp_cpu_s;
};

template <typename Kind>
RunResult run_serve(const WorkloadSpec& spec, const RunArgs& args,
                    const std::string& trace_path) {
  RunResult r;
  const Graph graph = make_grid(spec.side, args.seed);
  // The matrix comes from one solve that feeds set-up but is not part of
  // it.  It is checked against Dijkstra from every source.
  SparseApspOptions options;
  options.height = spec.height;
  auto t0 = Clock::now();
  const SparseApspResult solved = run_sparse_apsp(graph, options);
  r.phase_s["solve"] = seconds_since(t0);
  r.ranks = solved.num_ranks;
  const DistBlock& matrix = solved.distances;
  t0 = Clock::now();
  r.check(dijkstra_rows_match(graph, matrix, online_cpus()));
  r.phase_s["check_solve"] = seconds_since(t0);

  const bool zipf = !spec.paths;
  Rng rng(args.seed ^ kQuerySalt);
  const std::vector<Query> pool =
      make_queries(graph.num_vertices(), zipf, kQueryPool, rng);
  const std::vector<Query> warm =
      make_queries(graph.num_vertices(), zipf, kWarmPaths, rng);
  QueryStream queries{pool};

  const std::string snapshot_path = args.tmp_dir + "/" + spec.name + "-" +
                                    std::to_string(::getpid()) + ".db2";
  const auto build = [&](std::int64_t trace_every) {
    auto stack = std::make_unique<ServeStack>(spec, graph, matrix,
                                              snapshot_path, trace_every);
    warm_up<Kind>(spec, stack->service(), graph, matrix, warm, r);
    return stack;
  };
  const auto open_loop = [&](DistanceService& service, double seconds) {
    OpenLoopResult o = run_open_loop<Kind>(service, graph, matrix,
                                           spec.rate_qps, seconds, queries);
    r.attempted += o.sent;
    r.failed += o.failed;
    return o;
  };
  // Rounds of a capacity window and a baseline chunk, so the service and
  // the baseline meet the same spells of the host.  The baseline answers a
  // query with a fresh single-source Dijkstra, the way a server without
  // the matrix would.
  const auto run_rounds = [&](DistanceService& service, double seconds) {
    ServeRounds rounds;
    std::size_t source = 0;
    repeat_for(seconds, 1, [&] {
      const CapacityResult capacity = run_capacity<Kind>(
          service, graph, matrix, args.seconds * kRoundCapacityShare,
          queries);
      r.attempted += capacity.completed;
      r.failed += capacity.failed;
      std::vector<double> wall, cpu;
      for (int i = 0; i < kBaselineSources; ++i) {
        const Query q = pool[source++ % pool.size()];
        const double cpu0 = thread_cpu_s();
        const auto start = Clock::now();
        const std::vector<Dist> row = dijkstra_sssp(graph, q.u);
        wall.push_back(seconds_since(start));
        cpu.push_back(thread_cpu_s() - cpu0);
        r.check(bits_equal(row[static_cast<std::size_t>(q.v)],
                           matrix.at(q.u, q.v)));
      }
      rounds.qps.push_back(capacity.qps);
      rounds.cpu_per_request_s.push_back(capacity.cpu_per_request_s);
      rounds.sssp_s.push_back(median(wall));
      rounds.sssp_cpu_s.push_back(median(cpu));
    });
    r.samples["rounds"] = static_cast<std::int64_t>(rounds.qps.size());
    r.samples["round_baseline_sources"] = kBaselineSources;
    r.series["round_capacity_qps"] = rounds.qps;
    r.series["round_cpu_per_request_s"] = rounds.cpu_per_request_s;
    r.series["round_sssp_s"] = rounds.sssp_s;
    r.series["round_sssp_cpu_s"] = rounds.sssp_cpu_s;
    return rounds;
  };

  if (!args.traced) {
    // Set-up: snapshot write, open, service start and cache warm-up,
    // repeated so its median is steady; one stack is alive at a time.  The
    // memory phase starts after the solve, so its peak counts the serving
    // stack, not the solve that made the matrix.
    begin_memory_phase();
    std::unique_ptr<ServeStack> stack;
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
      stack.reset();
      t0 = Clock::now();
      stack = build(0);
      setup.push_back(seconds_since(t0));
    }
    r.series["setup_s"] = setup;
    t0 = Clock::now();
    const ServeRounds rounds = run_rounds(stack->service(), args.seconds);
    r.phase_s["rounds"] = seconds_since(t0);
    // Queries the service answers in the time Dijkstra answers one.
    r.metrics["speedup_vs_dijkstra"] =
        median(rounds.sssp_s) * median(rounds.qps);
    r.metrics["cpu_speedup_vs_dijkstra"] =
        median(rounds.sssp_cpu_s) / median(rounds.cpu_per_request_s);
    r.metrics["crit_latency_msgs"] = solved.costs.critical_latency;
    r.metrics["crit_bandwidth_words"] = solved.costs.critical_bandwidth;
    r.metrics["peak_rss_mb"] = status_mb("VmHWM");
    r.metrics["setup_s"] = median(setup);
    return r;
  }

  // Traced run: on an untraced stack, the open loop for a quarter of the
  // time and rounds for another quarter give the absolute figures; then
  // the open loop runs alone on a traced stack for the other half.  The
  // p50 difference between the two open loops is the tracing overhead.
  auto& m = r.metrics;
  {
    auto stack = build(0);
    const OpenLoopResult open = open_loop(stack->service(), args.seconds / 4);
    r.phase_s["open_loop"] = open.seconds;
    t0 = Clock::now();
    const ServeRounds rounds = run_rounds(stack->service(), args.seconds / 4);
    r.phase_s["rounds"] = seconds_since(t0);
    m["e2e.query_p50_us"] = median(open.latency_us);
    m["e2e.query_tail_us"] = quantile(open.latency_us, kTailQuantile);
    m["e2e.capacity_qps"] = median(rounds.qps);
    m["baseline.dijkstra_s"] = median(rounds.sssp_s);
  }
  auto stack = build(spec.paths ? kTraceEveryPath : kTraceEveryDistance);
  DistanceService& service = stack->service();
  const std::int64_t first_id = service.trace_log().stats().started + 1;
  const TileCache::Stats cache0 = service.cache_stats();
  const std::int64_t bytes0 =
      counter_of(service.metrics_snapshot(), "serve.io.bytes_read");
  const OpenLoopResult open = open_loop(service, args.seconds / 2);
  const TileCache::Stats cache1 = service.cache_stats();
  const std::int64_t bytes1 =
      counter_of(service.metrics_snapshot(), "serve.io.bytes_read");
  r.phase_s["traced_open_loop"] = open.seconds;
  r.samples["traced_open_loop_requests"] = open.sent;
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    CAPSP_CHECK_MSG(out.good(), "cannot write " << trace_path);
    service.trace_log().write_chrome_json(out);
  }
  const SpanSummary spans = summarize_spans(service.trace_log(), first_id);
  r.samples["traced_requests_kept"] = spans.requests;
  const auto self = [&](const char* name) {
    const auto it = spans.self_us.find(name);
    return it == spans.self_us.end() ? std::vector<double>{} : it->second;
  };
  const auto requests = static_cast<double>(open.sent);
  const auto hits = static_cast<double>(cache1.hits - cache0.hits);
  const auto misses = static_cast<double>(cache1.misses - cache0.misses);
  m["serve.queue_wait_p50_us"] = median_or_zero(self("queue_wait"));
  m["serve.queue_wait_p99_us"] = quantile_or_zero(self("queue_wait"), 0.99);
  m["serve.execute_self_p50_us"] = median_or_zero(self("execute"));
  m["serve.tiles_per_req"] = (hits + misses) / requests;
  m["cache.hit_ratio"] = ratio_or_zero(hits, hits + misses);
  m["cache.evictions_per_req"] =
      static_cast<double>(cache1.evictions - cache0.evictions) / requests;
  m["cache.hit_us"] = mean_or_zero(self("tile.cache_hit"));
  m["cache.miss_self_us"] = mean_or_zero(self("tile.cache_miss"));
  m["snapshot.read_us"] = mean_or_zero(self("tile.snapshot_read"));
  m["snapshot.checksum_us"] = mean_or_zero(self("tile.checksum"));
  m["snapshot.bytes_per_req"] =
      static_cast<double>(bytes1 - bytes0) / requests;
  m["path.hops_per_req"] =
      ratio_or_zero(static_cast<double>(self("path.hop").size()),
                    static_cast<double>(spans.requests));
  m["path.hop_self_us"] = mean_or_zero(self("path.hop"));
  m["loadgen.lag_p99_us"] = quantile(open.lag_us, 0.99);
  m["loadgen.sent"] = requests;
  m["trace_overhead"] = median(open.latency_us) / m["e2e.query_p50_us"] - 1;
  return r;
}

RunResult run_workload(const WorkloadSpec& spec, const RunArgs& args,
                       const std::string& trace_path) {
  if (!spec.serve) return run_solve(spec, args, trace_path);
  return spec.paths ? run_serve<PathQueries>(spec, args, trace_path)
                    : run_serve<DistanceQueries>(spec, args, trace_path);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void write_metrics(JsonWriter& json, const RunResult& r, bool traced) {
  json.field("correct", r.failed == 0 && r.attempted > 0);
  json.field("attempted", r.attempted);
  json.field("failed", r.failed);
  json.key("metrics");
  json.begin_object();
  const auto emit = [&](const MetricDef& def, double value) {
    json.key(def.name);
    json.begin_object();
    json.field("value", value);
    json.field("unit", def.unit);
    json.end_object();
  };
  if (traced) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = r.metrics.find(def.name);
      emit(def, it == r.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, r.metrics.at(def.name));
  }
  json.end_object();
}

void write_results_document(const std::string& path, const WorkloadSpec& spec,
                            const RunArgs& args, const RunResult& r) {
  std::ofstream out(path);
  CAPSP_CHECK_MSG(out.good(), "cannot write " << path);
  JsonWriter json(out);
  const int cpus = online_cpus();
  json.begin_object();
  json.field("workload", spec.name);
  json.field("seed", static_cast<std::int64_t>(args.seed));
  json.field("trace", args.traced);
  json.field("seconds", args.seconds);
  write_build_info_fields(json);
  json.field("nproc", cpus);
  json.field("ranks", r.ranks);
  json.field("oversubscription", static_cast<double>(r.ranks) / cpus);
  json.key("phase_s");
  json.begin_object();
  for (const auto& [name, s] : r.phase_s) json.field(name, s);
  json.end_object();
  json.key("samples");
  json.begin_object();
  for (const auto& [name, n] : r.samples) json.field(name, n);
  for (const auto& [name, values] : r.series)
    json.field(name, static_cast<std::int64_t>(values.size()));
  json.end_object();
  json.key("series");
  json.begin_object();
  for (const auto& [name, values] : r.series) {
    json.key(name);
    json.begin_array();
    for (double v : values) json.value(v);
    json.end_array();
  }
  json.end_object();
  write_metrics(json, r, args.traced);
  json.end_object();
  out << '\n';
}

bool all_finite(const RunResult& r) {
  return std::all_of(r.metrics.begin(), r.metrics.end(),
                     [](const auto& kv) { return std::isfinite(kv.second); });
}

bool passed(const RunResult& r) {
  return r.failed == 0 && r.attempted > 0 && all_finite(r);
}

/// Every workload at tiny sizes, untraced and traced: the build-time check
/// that the benchmark still runs end to end and its checks still pass.
int run_smoke(const std::string& tmp_dir) {
  bool ok = true;
  for (const WorkloadSpec& spec : workloads(true)) {
    for (bool traced : {false, true}) {
      const RunResult r = run_workload(spec, {7, 0.3, traced, tmp_dir}, "");
      std::cout << (passed(r) ? "ok   " : "FAIL ") << spec.name
                << (traced ? " traced" : "") << "  attempted=" << r.attempted
                << " failed=" << r.failed << "\n";
      ok = ok && passed(r);
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace capsp

int main(int argc, char** argv) {
  using namespace capsp;
  const Cli cli(argc, argv);
  const std::string tmp_dir = cli.get_string("tmp-dir", ".");
  if (cli.get_bool("smoke", false)) {
    cli.check_unused();
    return run_smoke(tmp_dir);
  }
  const std::string name = cli.get_string("workload", "");
  RunArgs args;
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", args.seconds);
  args.traced = cli.get_int("trace", 0) != 0;
  args.tmp_dir = tmp_dir;
  const std::string out_dir = cli.get_string("out", "");
  cli.check_unused();

  const std::vector<WorkloadSpec> all = workloads(false);
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [&](const WorkloadSpec& w) { return w.name == name; });
  if (it == all.end()) {
    std::cerr << "bench_e2e: unknown --workload '" << name << "'; one of:";
    for (const WorkloadSpec& w : all) std::cerr << ' ' << w.name;
    std::cerr << "\n";
    return 2;
  }
  const std::string stem =
      out_dir.empty()
          ? std::string()
          : out_dir + "/" + it->name + (args.traced ? ".traced" : "");
  const RunResult r = run_workload(
      *it, args,
      args.traced && !stem.empty() ? stem + ".chrome.json" : std::string());
  if (!stem.empty()) write_results_document(stem + ".json", *it, args, r);
  JsonWriter json(std::cout);
  json.begin_object();
  write_metrics(json, r, args.traced);
  json.end_object();
  std::cout << std::endl;
  return passed(r) ? 0 : 1;
}
