#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace invarnetx::obs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

// Guarded by SinkMutex(); empty function means "write to stderr".
LogSink& SinkSlot() {
  static LogSink* sink = new LogSink();
  return *sink;
}

// Values render bare when they are already safe tokens; everything that
// came in as a string is quoted so parsers never guess.
void AppendValue(const LogField& field, std::string* out) {
  if (field.quoted) {
    AppendJsonString(field.value, out);
  } else {
    *out += field.value;
  }
}

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonString(std::string_view s) {
  std::string out;
  AppendJsonString(s, &out);
  return out;
}

LogField::LogField(std::string k, double v) : key(std::move(k)) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  value = buf;
}

std::string LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

Result<LogLevel> LogLevelFromName(std::string_view name) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    if (name == LogLevelName(level)) return level;
  }
  return Status::InvalidArgument("unknown log level: " + std::string(name));
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

uint64_t UptimeMicros() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            start)
          .count());
}

std::string FormatLogLine(LogLevel level, std::string_view message,
                          const std::vector<LogField>& fields) {
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%.3f",
                static_cast<double>(UptimeMicros()) / 1e6);
  std::string line = "ts=";
  line += ts;
  line += " level=";
  line += LogLevelName(level);
  line += " msg=";
  AppendValue(LogField("msg", std::string(message)), &line);
  for (const LogField& field : fields) {
    line.push_back(' ');
    line += field.key;
    line.push_back('=');
    AppendValue(field, &line);
  }
  return line;
}

void Log(LogLevel level, std::string_view message,
         std::initializer_list<LogField> fields) {
  if (!LogEnabled(level)) return;
  const std::string line = FormatLogLine(
      level, message, std::vector<LogField>(fields.begin(), fields.end()));
  std::lock_guard<std::mutex> lock(SinkMutex());
  const LogSink& sink = SinkSlot();
  if (sink) {
    sink(level, line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  SinkSlot() = std::move(sink);
}

}  // namespace invarnetx::obs
