// The front end apsp_tool and serve_tool share: the flags every mode
// reads (--mode, --help, --version, logging, the flight recorder,
// profiling, --seed and the graph input), parsing, mode dispatch and the
// exit-code mapping.  A tool supplies its modes and its own flags.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/cli.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace capsp {

/// One --mode: its name, a summary line for --help, what runs it, and
/// the flags only it reads.  A mode reads its flags, calls
/// cli.check_unused() before any work, and returns the exit code.
struct ToolMode {
  const char* name;
  const char* summary;
  int (*run)(const Cli& cli, Rng& rng);
  std::vector<Flag> flags = {};
};

struct Tool {
  const char* name;
  /// "<tool>.usage" and "<tool>.fatal": literals, as log event names are.
  const char* usage_event;
  const char* fatal_event;
  std::vector<ToolMode> modes;  ///< the first is the default
  std::vector<Flag> flags;      ///< those several of its modes read
  const char* exit_codes;       ///< the table --help ends with
};

/// Parses argv against the tool's declarations and runs the selected mode.
/// A UsageError exits 2 with a <tool>.usage event before any work; a
/// failed CHECK or another error exits 1 with a <tool>.fatal event.
int run_tool(int argc, const char* const* argv, const Tool& tool);

/// The graph the shared --file / --graph / --n / --seed flags name.
Graph build_graph(const Cli& cli, Rng& rng);

/// Unless `path` is empty: writes the --`flag` file there with
/// `write(out)`, then prints "wrote <what> to <path>".
template <class Write>
void write_output(const std::string& path, const char* flag,
                  const std::string& what, const Write& write) {
  if (path.empty()) return;
  std::ofstream out(path);
  CAPSP_CHECK_MSG(out, "cannot write --" << flag << " file " << path);
  write(out);
  std::cout << "wrote " << what << " to " << path << "\n";
}

/// Ends the --profile session (idempotent) and keeps its report, so a
/// mode's metrics file and the digest run_tool prints describe the same
/// window.  nullptr without --profile.
const ProfReport* finish_profiler();

}  // namespace capsp
