// Command-line flags for the tools, examples and bench harnesses.
//
// `--name value`, `--name=value`, or a bare `--name` (a switch set to
// true).  Values parse strictly: the whole token must convert and fit the
// type the caller stores it in, else UsageError.  A tool declares each
// flag once (Flag): --help, the default a run uses, value parsing and the
// unknown-flag check all read that declaration.  The examples and benches
// use the undeclared form, with defaults at the call site.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace capsp {

/// A command line the tool cannot run: an unknown flag, a value that does
/// not parse, a contradictory or incomplete combination.  The tools log it
/// as a <tool>.usage event and exit 2, telling "you asked for something
/// impossible" apart from "the run failed".
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One declared flag.
struct Flag {
  enum Kind { kText, kInt, kReal, kSwitch, kChoice };
  std::string name;
  Kind kind;
  /// What --help shows for the value: a placeholder such as "<path>", or,
  /// for kChoice, every value the flag accepts.
  std::vector<std::string> arg;
  /// What a run uses when the flag is absent ("" = none, or off).
  std::string fallback;
  std::string help;
  /// The --modes that read the flag; empty = every mode.
  std::vector<std::string> modes = {};
};

/// `flags`, then --help, --log-level and --log-json, which every tool
/// declares.
inline std::vector<Flag> with_help_and_log(std::vector<Flag> flags) {
  flags.insert(
      flags.end(),
      {{"help", Flag::kSwitch, {}, "", "print this help and exit"},
       {"log-level", Flag::kText, {"<level>"}, "",
        "trace|debug|info|warn|error|off (or CAPSP_LOG_LEVEL)"},
       {"log-json", Flag::kSwitch, {}, "",
        "JSON-lines logs (or CAPSP_LOG_JSON=1)"}});
  return flags;
}

class Cli {
 public:
  /// With `flags`, they are the whole surface, and a flag named "mode"
  /// selects which of the others apply.  Without, any --name is accepted
  /// and the reads supply the defaults.
  Cli(int argc, const char* const* argv, std::vector<Flag> flags = {})
      : flags_(std::move(flags)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      if (arg.rfind("--", 0) != 0) {
        if (stray_.empty()) stray_ = arg;
      } else if (eq != std::string::npos) {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg.substr(2)] = argv[++i];
      } else {
        values_[arg.substr(2)] = "true";  // a bare switch
      }
    }
  }

  /// Whether the command line names the flag (not a read).
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// The selected --mode: its value, else its default ("" if undeclared).
  std::string mode() const {
    const Flag* flag = find("mode");
    if (flag == nullptr) return "";
    read_.insert("mode");
    return has("mode") ? values_.at("mode") : flag->fallback;
  }

  /// A declared flag's value, or its declared default.  T is the type the
  /// caller stores it in: std::string, bool, an integer or a floating type.
  template <class T>
  T get(const std::string& name) const {
    [[maybe_unused]] const Flag& flag = declaration(name);
    if constexpr (std::is_same_v<T, bool>) {
      return get<T>(name, false);  // a switch is off unless given
    } else {
      return get<T>(name, parse<T>(name, flag.fallback));
    }
  }

  /// The flag's value, or `fallback` when it is absent: the undeclared
  /// form, and the declared form for a default the run computes.
  template <class T>
  T get(const std::string& name, T fallback) const {
    if (!flags_.empty()) declaration(name);
    read_.insert(name);
    return has(name) ? parse<T>(name, values_.at(name)) : fallback;
  }

  std::string get_string(const std::string& name,
                         const std::string& fallback) const {
    return get<std::string>(name, fallback);
  }
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    return get<std::int64_t>(name, fallback);
  }
  double get_double(const std::string& name, double fallback) const {
    return get<double>(name, fallback);
  }
  bool get_bool(const std::string& name, bool fallback) const {
    return get<bool>(name, fallback);
  }

  /// Declared form, before any work: throws UsageError for a positional
  /// argument, an undeclared flag, a flag the selected mode does not read
  /// (--mode itself is checked first), or a value that does not parse as
  /// its flag's kind.
  void validate() const {
    if (!stray_.empty()) throw stray_error();
    std::vector<std::string> names{"mode"};
    for (const auto& entry : values_) names.push_back(entry.first);
    for (const std::string& name : names) {
      if (!has(name)) continue;
      const Flag* flag = find(name);
      if (flag == nullptr) throw UsageError("unknown flag --" + name);
      if (!applies(*flag))
        throw UsageError("--" + name + " is not read by --mode " + mode());
      const std::string& text = values_.at(name);
      switch (flag->kind) {
        case Flag::kText: break;
        case Flag::kInt: parse<std::int64_t>(name, text); break;
        case Flag::kReal: parse<double>(name, text); break;
        case Flag::kSwitch: parse<bool>(name, text); break;
        case Flag::kChoice:
          if (!contains(flag->arg, text))
            throw UsageError("--" + name + " expects " + join(flag->arg) +
                             ", got '" + text + "'");
      }
    }
  }

  /// Call after every read: throws UsageError for a positional argument or
  /// a flag nothing read (a typo, or one the other flags leave unused).
  void check_unused() const {
    if (!stray_.empty()) throw stray_error();
    for (const auto& [name, text] : values_)
      if (read_.count(name) == 0)
        throw UsageError(find(name) == nullptr
                             ? "unknown flag --" + name
                             : "--" + name + " does not apply to these flags");
  }

  /// One line per declared flag, with the default a run uses: first those
  /// every mode reads, then a section per mode (the selected one only when
  /// --mode is given).
  void print_flags(std::ostream& out) const {
    const Flag* mode_flag = find("mode");
    print_section(out, mode_flag == nullptr ? "flags:" : "every mode:", "");
    if (mode_flag == nullptr) return;
    for (const std::string& name : mode_flag->arg)
      if (!has("mode") || name == mode())
        print_section(out, "--mode " + name + ":", name);
  }

  /// One value of flag `name`, converted strictly: the whole token must
  /// convert and fit T.  Switches take true|false|1|0|yes|no.
  template <class T>
  static T parse(const std::string& name, const std::string& text) {
    [[maybe_unused]] const auto refuse = [&](const std::string& want) {
      return UsageError("--" + name + " expects " + want + ", got '" + text +
                        "'");
    };
    [[maybe_unused]] const char* end = text.data() + text.size();
    if constexpr (std::is_same_v<T, std::string>) {
      return text;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (text == "true" || text == "1" || text == "yes") return true;
      if (text == "false" || text == "0" || text == "no") return false;
      throw refuse("true|false|1|0|yes|no");
    } else if constexpr (std::is_integral_v<T>) {
      std::int64_t value = 0;
      const auto [stop, ec] = std::from_chars(text.data(), end, value);
      if (ec == std::errc::invalid_argument || stop != end)
        throw refuse("an integer");
      if (ec != std::errc() || !std::in_range<T>(value))
        throw refuse("an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) + "]");
      return static_cast<T>(value);
    } else {
      double value = 0;
      const auto [stop, ec] = std::from_chars(text.data(), end, value);
      if (ec != std::errc() || stop != end || !std::isfinite(value))
        throw refuse("a finite number");
      return static_cast<T>(value);
    }
  }

 private:
  UsageError stray_error() const {
    return UsageError("unexpected argument '" + stray_ +
                      "' (flags are --name value or --name=value)");
  }

  static bool contains(const std::vector<std::string>& list,
                       const std::string& item) {
    return std::find(list.begin(), list.end(), item) != list.end();
  }

  static std::string join(const std::vector<std::string>& items) {
    std::string joined;
    for (const std::string& item : items)
      joined += (joined.empty() ? "" : "|") + item;
    return joined;
  }

  const Flag* find(const std::string& name) const {
    for (const Flag& flag : flags_)
      if (flag.name == name) return &flag;
    return nullptr;
  }

  bool applies(const Flag& flag) const {
    return flag.modes.empty() || contains(flag.modes, mode());
  }

  /// Reading a flag the selected mode does not declare is a program
  /// error, caught by any run of the mode.
  const Flag& declaration(const std::string& name) const {
    const Flag* flag = find(name);
    CAPSP_CHECK_MSG(flag != nullptr && applies(*flag),
                    "--" << name << " is not declared for --mode " << mode());
    return *flag;
  }

  /// `mode_name` "" selects the flags every mode reads.
  void print_section(std::ostream& out, const std::string& title,
                     const std::string& mode_name) const {
    out << "\n" << title << "\n";
    for (const Flag& flag : flags_) {
      if (mode_name.empty() ? !flag.modes.empty()
                            : !contains(flag.modes, mode_name))
        continue;
      // Appended piece by piece: GCC 12 at -O3 reports a false -Wrestrict
      // in an inlined "literal" + std::string.
      std::string label = "--";
      label += flag.name;
      if (!flag.arg.empty()) {
        label += ' ';
        label += join(flag.arg);
      }
      out << "  " << std::left << std::setw(24) << label << " " << flag.help;
      if (!flag.fallback.empty() && flag.kind != Flag::kSwitch)
        out << " (default " << flag.fallback << ")";
      out << "\n";
    }
  }

  std::vector<Flag> flags_;
  std::map<std::string, std::string> values_;
  std::string stray_;  ///< the first positional argument, if any
  mutable std::set<std::string> read_;
};

}  // namespace capsp
