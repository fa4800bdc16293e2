// Runtime invariant checking that stays on in release builds.
//
// The simulator and the scheduling machinery rely on structural invariants
// (injective processor maps, matched message tags, partition balance).  A
// violated invariant means a wrong answer, not a recoverable condition, so
// CAPSP_CHECK throws capsp::check_error with file/line context and the
// failed expression; callers are not expected to catch it except in tests.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace capsp {

/// Thrown when a CAPSP_CHECK invariant fails.
class check_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Out of line (util/check.cpp) so failures can gather context this
/// header cannot depend on: the OS thread id, the installed rank
/// context's rank, phase and ProfScope stack (util/context.hpp), and a
/// flight-recorder event + crash dump when one is configured
/// (util/flightrec.hpp).
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);

}  // namespace detail
}  // namespace capsp

/// Check `expr`; on failure throw capsp::check_error with location info.
#define CAPSP_CHECK(expr)                                              \
  do {                                                                 \
    if (!(expr))                                                       \
      ::capsp::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
  } while (false)

/// Like CAPSP_CHECK but with a streamed message, e.g.
/// CAPSP_CHECK_MSG(a == b, "a=" << a << " b=" << b).
#define CAPSP_CHECK_MSG(expr, stream_expr)                             \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream os_;                                          \
      os_ << stream_expr;                                              \
      ::capsp::detail::check_failed(#expr, __FILE__, __LINE__,         \
                                    os_.str());                        \
    }                                                                  \
  } while (false)
