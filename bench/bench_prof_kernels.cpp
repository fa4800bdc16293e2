// Experiment PROF — per-kernel throughput and roofline position of the
// Sec. 3.3 primitives (the `<MinPlusSemiring>` instantiations the solvers
// run), measured by the sampling profiler's own kernel accounting
// (docs/profiling.md).  Each kernel runs alone under a Profiler session;
// the BENCH record carries exact work counts (calls, ops, bytes — gated
// at zero tolerance like every other logical cost) plus throughput
// numbers that are inherently hardware-noisy and are gated through
// bench_diff tolerance classes
// (--metric-class 'ops_per_*=...,bytes_per_*=...').
#include "bench_common.hpp"
#include "semiring/semirings.hpp"
#include "util/prof.hpp"

namespace capsp::bench {
namespace {

/// Deterministic dense rows × cols block: finite pseudo-random weights
/// so the kernels take the real (no-infinity-shortcut) path.
DistBlock make_panel(std::int64_t rows, std::int64_t cols, Rng& rng) {
  DistBlock block(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i)
    for (std::int64_t j = 0; j < cols; ++j)
      block.at(i, j) = 1.0 + static_cast<double>(rng.uniform(1024));
  return block;
}

/// Square make_panel with a zero diagonal.
DistBlock make_block(std::int64_t n, Rng& rng) {
  DistBlock block = make_panel(n, n, rng);
  block.zero_diagonal();
  return block;
}

/// Separator width of the panel-update records: A(k,j) ⊕= A(k,k) ⊗ A(k,j)
/// and A(i,k) ⊕= A(i,k) ⊗ A(k,k) with A(k,k) an n × n leaf closure.
constexpr std::int64_t kPanelWidth = 64;

struct Measured {
  KernelStats stats;
  double ops_per_cycle = 0;
};

/// Run `body` (which exercises exactly one top-level ProfScope name) in
/// its own profiler session and return that kernel's accounting.  A
/// composite kernel (semiring_blocked_fw) attributes its ops to the nested
/// primitive scopes, so `inclusive` folds the whole session's work into
/// the named scope's wall time.
template <typename Body>
Measured measure(const char* scope_name, bool inclusive, Body&& body) {
  ProfOptions options;
  options.hz = 97;  // accounting is synchronous; sampling is incidental
  CAPSP_CHECK_MSG(Profiler::global().start(options),
                  "profiler already running");
  body();
  const ProfReport report = Profiler::global().stop();
  const auto it = report.kernels.find(scope_name);
  CAPSP_CHECK_MSG(it != report.kernels.end(),
                  "kernel " << scope_name << " not recorded");
  KernelStats stats = it->second;
  if (inclusive) {
    for (const auto& [name, nested] : report.kernels) {
      if (name == scope_name) continue;
      stats.ops += nested.ops;
      stats.bytes += nested.bytes;
    }
  }
  return {stats, report.ops_per_cycle(stats)};
}

/// `kernel` is the record label; the labels predate the semiring-generic
/// names and stay as they are because the committed baselines key on them.
void add_row(TextTable& table, const std::string& kernel, std::int64_t n,
             const Measured& m) {
  const MachinePeak& peak = machine_peak();
  const double peak_fraction =
      peak.minplus_ops_per_second > 0
          ? m.stats.ops_per_second() / peak.minplus_ops_per_second
          : 0;
  table.add_row({kernel, TextTable::num(n), TextTable::num(m.stats.calls),
                 TextTable::num(m.stats.ops), TextTable::num(m.stats.bytes),
                 TextTable::num(m.stats.ops_per_second(), 3),
                 TextTable::num(100 * peak_fraction, 1)});
  BenchJson::get("prof_kernels")
      .add({{"kernel", kernel},
            {"n", n},
            {"calls", m.stats.calls},
            {"ops", m.stats.ops},
            {"bytes", m.stats.bytes},
            // Hardware-dependent: gate via tolerance classes, not exactly.
            {"ops_per_second", m.stats.ops_per_second()},
            {"bytes_per_second", m.stats.bytes_per_second()},
            {"ops_per_cycle", m.ops_per_cycle}});
}

void run() {
  TextTable table(
      {"kernel", "n", "calls", "ops", "bytes", "ops/s", "% peak"});
  for (std::int64_t n : {128, 256}) {
    Rng rng(7);
    {
      DistBlock a = make_block(n, rng);
      const Measured m = measure("semiring.fw", false, [&] {
        semiring_fw<MinPlusSemiring>(a);
      });
      add_row(table, "classical_fw", n, m);
    }
    {
      DistBlock a = make_block(n, rng);
      const Measured m = measure("semiring.blocked_fw", true, [&] {
        semiring_blocked_fw<MinPlusSemiring>(a, 64);
      });
      add_row(table, "blocked_fw", n, m);
    }
    {
      const DistBlock a = make_block(n, rng);
      const DistBlock b = make_block(n, rng);
      DistBlock c = make_block(n, rng);
      const Measured m = measure("semiring.accumulate", false, [&] {
        semiring_accumulate<MinPlusSemiring>(c, a, b);
      });
      add_row(table, "minplus_accumulate", n, m);
    }
    {
      const DistBlock other = make_block(n, rng);
      DistBlock c = make_block(n, rng);
      const Measured m = measure("semiring.combine", false, [&] {
        semiring_elementwise_plus<MinPlusSemiring>(c, other);
      });
      add_row(table, "elementwise_min", n, m);
    }
    {
      const DistBlock akk = make_block(n, rng);
      DistBlock c = make_panel(n, kPanelWidth, rng);
      const Measured m = measure("semiring.accumulate", false, [&] {
        semiring_accumulate<MinPlusSemiring>(c, akk, c);
      });
      add_row(table, "panel_row", n, m);
    }
    {
      const DistBlock akk = make_block(n, rng);
      DistBlock c = make_panel(kPanelWidth, n, rng);
      const Measured m = measure("semiring.accumulate", false, [&] {
        semiring_accumulate<MinPlusSemiring>(c, c, akk);
      });
      add_row(table, "panel_col", n, m);
    }
  }
  table.print(std::cout);

  const MachinePeak& peak = machine_peak();
  std::cout << "\nmachine peak (startup probe): "
            << TextTable::num(peak.minplus_ops_per_second, 3)
            << " min-plus ops/s, "
            << TextTable::num(peak.stream_bytes_per_second, 3)
            << " stream bytes/s\n";
  // The peaks live in their own record so the gate can class-skip them
  // together with the other per-host throughput numbers.
  BenchJson::get("prof_kernels")
      .add({{"kernel", "machine_peak"},
            {"n", std::int64_t{0}},
            {"calls", std::int64_t{0}},
            {"ops", std::int64_t{0}},
            {"bytes", std::int64_t{0}},
            {"ops_per_second", peak.minplus_ops_per_second},
            {"bytes_per_second", peak.stream_bytes_per_second},
            {"ops_per_cycle", 0.0}});
}

}  // namespace
}  // namespace capsp::bench

int main() {
  using namespace capsp::bench;
  print_header("Profiler kernel accounting and roofline position",
               "Sec. 3.3 kernels under docs/profiling.md's sampler");
  run();
  std::cout <<
      "\nreading: calls/ops/bytes are exact logical work (deterministic, "
      "zero-tolerance gate); ops/s and %-of-peak locate each kernel "
      "against the startup-probed machine roofline and vary with the "
      "host.\n";
  return 0;
}
