#include "util/log.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "util/check.hpp"
#include "util/context.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"

namespace capsp {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

LogLevel log_level_from_string(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  CAPSP_CHECK_MSG(false, "unknown log level '"
                             << name
                             << "' (trace|debug|info|warn|error|off)");
  return LogLevel::kOff;  // unreachable
}

void log_set_phase(const std::string& phase) {
  RankContext& context = current_context();
  const std::size_t n =
      std::min(phase.size(), sizeof(context.phase) - 1);
  std::memcpy(context.phase, phase.data(), n);
  context.phase[n] = '\0';
}

void log_configure_tool(const std::string& flag_level, bool flag_json,
                        const char* default_level) {
  Logger& logger = Logger::global();
  if (!flag_level.empty()) {
    logger.set_level(log_level_from_string(flag_level));
  } else if (const char* env = std::getenv("CAPSP_LOG_LEVEL")) {
    logger.set_level(log_level_from_string(env));
  } else {
    logger.set_level(log_level_from_string(default_level));
  }
  if (flag_json) logger.set_json(true);
}

namespace {

void append_value_text(std::string& out, const LogValue& value) {
  char buf[32];
  switch (value.kind()) {
    case LogValue::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(value.as_int()));
      out += buf;
      break;
    case LogValue::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", value.as_double());
      out += buf;
      break;
    case LogValue::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case LogValue::Kind::kString:
      out += value.as_string();
      break;
  }
}

void write_value_json(JsonWriter& json, const LogValue& value) {
  switch (value.kind()) {
    case LogValue::Kind::kInt: json.value(value.as_int()); break;
    case LogValue::Kind::kDouble: json.value(value.as_double()); break;
    case LogValue::Kind::kBool: json.value(value.as_bool()); break;
    case LogValue::Kind::kString: json.value(value.as_string()); break;
  }
}

}  // namespace

Logger& Logger::global() {
  // Leaky singleton: log calls may run during static destruction (the
  // BenchJson registry logs from its destructor), so the logger must
  // never be destroyed.
  static Logger* logger = [] {
    auto* instance = new Logger();
    instance->configure_from_env();
    return instance;
  }();
  return *logger;
}

void Logger::set_sink(std::ostream* sink) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = sink;
}

void Logger::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  clock_ = std::move(clock);
}

double Logger::now() const {
  {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    if (clock_) return clock_();
  }
  const auto since_epoch =
      std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(since_epoch).count();
}

void Logger::configure_from_env() {
  if (const char* level = std::getenv("CAPSP_LOG_LEVEL")) {
    set_level(log_level_from_string(level));
  }
  if (const char* json = std::getenv("CAPSP_LOG_JSON")) {
    set_json(json[0] != '\0' && json[0] != '0');
  }
}

void Logger::log(LogLevel level, log_detail::Site& site, const char* file,
                 int line, const char* event,
                 std::initializer_list<LogField> fields) {
  const double ts = now();

  // Per-call-site token bucket over one-second windows.  Racy counts
  // under contention can let a few extra events through; the limit is a
  // throttle, not an exact quota.
  std::int64_t drained_suppressed = 0;
  const std::int64_t limit = site_limit_per_second();
  if (limit > 0) {
    const auto now_us = static_cast<std::int64_t>(ts * 1e6);
    const std::int64_t window =
        site.window_start_us.load(std::memory_order_relaxed);
    if (now_us - window >= 1000000) {
      site.window_start_us.store(now_us, std::memory_order_relaxed);
      site.emitted_in_window.store(0, std::memory_order_relaxed);
    }
    if (site.emitted_in_window.fetch_add(1, std::memory_order_relaxed) >=
        limit) {
      site.suppressed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    drained_suppressed = site.suppressed.exchange(0);
  }

  const RankContext& context = current_context();

  // Render once for the flight recorder: fixed-size, "k=v k=v" detail.
  if (static_cast<std::int32_t>(level) >=
      ring_level_.load(std::memory_order_relaxed)) {
    flightrec::Event record;
    record.ts = ts;
    record.tid = os_thread_id();
    record.request_id = context.request_id;
    record.file = file;
    record.event = event;
    record.line = line;
    record.level = static_cast<std::int32_t>(level);
    record.rank = context.rank;
    std::memcpy(record.phase, context.phase, sizeof(record.phase));
    std::string detail;
    for (const LogField& field : fields) {
      if (!detail.empty()) detail += ' ';
      detail += field.key;
      detail += '=';
      append_value_text(detail, field.value);
    }
    const std::size_t n =
        std::min(detail.size(), sizeof(record.detail) - 1);
    std::memcpy(record.detail, detail.data(), n);
    record.detail[n] = '\0';
    flightrec::record(record);
  }

  if (static_cast<std::int32_t>(level) <
          level_.load(std::memory_order_relaxed) &&
      level != LogLevel::kError) {
    return;  // ring-only event
  }

  // Render the sink line outside the lock, write it under the lock.
  std::ostringstream line_out;
  if (json()) {
    JsonWriter json_writer(line_out);
    json_writer.begin_object();
    json_writer.field("ts", ts);
    json_writer.field("level", to_string(level));
    json_writer.field("event", event);
    json_writer.field("tid",
                      static_cast<std::int64_t>(os_thread_id()));
    json_writer.field("file", file);
    json_writer.field("line", line);
    if (context.rank >= 0) json_writer.field("rank", context.rank);
    if (context.request_id >= 0)
      json_writer.field("req", context.request_id);
    if (context.phase[0] != '\0')
      json_writer.field("phase", context.phase);
    if (drained_suppressed > 0)
      json_writer.field("suppressed", drained_suppressed);
    json_writer.key("fields");
    json_writer.begin_object();
    for (const LogField& field : fields) {
      json_writer.key(field.key);
      write_value_json(json_writer, field.value);
    }
    json_writer.end_object();
    json_writer.end_object();
  } else {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "%.6f", ts);
    line_out << stamp << ' ' << to_string(level) << ' ' << event;
    if (context.rank >= 0) line_out << " rank=" << context.rank;
    if (context.request_id >= 0)
      line_out << " req=" << context.request_id;
    if (context.phase[0] != '\0')
      line_out << " phase=" << context.phase;
    for (const LogField& field : fields) {
      std::string value;
      append_value_text(value, field.value);
      line_out << ' ' << field.key << '=' << value;
    }
    if (drained_suppressed > 0)
      line_out << " suppressed=" << drained_suppressed;
    line_out << " (" << file << ':' << line << ')';
  }
  line_out << '\n';

  {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    std::ostream& out = sink_ != nullptr ? *sink_ : std::cerr;
    out << line_out.str();
    out.flush();
  }
  sink_lines_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace capsp
