#include "util/check.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/context.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace capsp {
namespace detail {

[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg) {
  // Self-locating context: which thread and rank, doing what.  The
  // ProfScope stack is maintained even without a profiling session
  // (prof.hpp), so a CHECK deep in a kernel names the kernel.  Only the
  // owner writes the installed context, so reading it needs no
  // synchronization.
  const RankContext& context = current_context();
  const std::int32_t depth = std::min(
      context.depth.load(std::memory_order_relaxed), RankContext::kMaxDepth);
  std::string scopes;
  for (std::int32_t i = 0; i < depth; ++i) {
    const char* frame = context.frames[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    scopes += ' ';
    scopes += frame != nullptr ? frame : "?";
  }

  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  os << " [tid " << os_thread_id();
  if (context.rank >= 0) os << "; rank " << context.rank;
  if (context.phase[0] != '\0') os << "; phase " << context.phase;
  if (!scopes.empty()) os << "; scopes:" << scopes;
  os << ']';

  // Black-box record: the failed expression and the scope stack join the
  // context's ring (the event carries rank, phase and request id), so a
  // dump written later (or right now, when a dump path is configured)
  // shows what preceded the failure.
  flightrec::Event event;
  event.request_id = context.request_id;
  event.rank = context.rank;
  std::memcpy(event.phase, context.phase, sizeof(event.phase));
  event.file = file;
  event.event = "check.failed";
  event.line = line;
  event.level = static_cast<std::int32_t>(LogLevel::kError);
  std::snprintf(event.detail, sizeof(event.detail), "%s%s%s", expr,
                scopes.empty() ? "" : " scopes:", scopes.c_str());
  flightrec::record(event);
  flightrec::dump_if_configured("check_failure");

  throw check_error(os.str());
}

}  // namespace detail
}  // namespace capsp
