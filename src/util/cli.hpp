// Minimal command-line flag parsing for the examples and bench harnesses.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unknown flags are an error so typos surface immediately.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace capsp {

/// A contradictory or incomplete flag combination (e.g. --mode query
/// without a snapshot, --tier approx without --sketch).  Tools throw this
/// from their mode functions instead of CHECK-crashing; main() catches it,
/// emits a structured <tool>.usage log event, and exits 2 — the same code
/// an unknown --mode already uses — so operators and CI can tell "you
/// asked for something impossible" from "the run failed".
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parsed command line: flag lookup with typed accessors and defaults.
class Cli {
 public:
  Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      CAPSP_CHECK_MSG(arg.rfind("--", 0) == 0, "expected --flag, got " << arg);
      arg.erase(0, 2);
      if (auto eq = arg.find('='); eq != std::string::npos) {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[arg] = argv[++i];
      } else {
        flags_[arg] = "true";  // boolean switch
      }
    }
  }

  bool has(const std::string& name) const { return flags_.count(name) > 0; }

  std::string get_string(const std::string& name,
                         const std::string& fallback) const {
    mark_known(name);
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    mark_known(name);
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : std::stoll(it->second);
  }

  double get_double(const std::string& name, double fallback) const {
    mark_known(name);
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : std::stod(it->second);
  }

  bool get_bool(const std::string& name, bool fallback) const {
    mark_known(name);
    auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  /// Call after all get_* calls: throws if the user passed a flag that no
  /// accessor ever asked about (i.e. a typo).
  void check_unused() const {
    for (const auto& [name, value] : flags_) {
      CAPSP_CHECK_MSG(known_.count(name) > 0, "unknown flag --" << name);
    }
  }

  /// check_unused() for the tools: a typo is a UsageError, which their
  /// main() reports as a <tool>.usage event and exit code 2.
  void check_flags() const {
    for (const auto& [name, value] : flags_)
      if (known_.count(name) == 0) throw UsageError("unknown flag --" + name);
  }

 private:
  void mark_known(const std::string& name) const { known_.insert(name); }

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> known_;
};

}  // namespace capsp
