#ifndef INVARNETX_OBS_LOG_H_
#define INVARNETX_OBS_LOG_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// Structured, leveled logging for the diagnosis engine itself. Lines are
// `ts=<uptime s> level=<name> msg="..." key=value ...` - grep-friendly
// key=value telemetry rather than free prose, so analysis-cost questions
// ("which context retrained?", "how long did mining take?") are answerable
// from the log alone. Thread-safe; the level gate is one relaxed atomic
// load, so disabled levels cost nothing but the argument evaluation.
namespace invarnetx::obs {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  // silences everything; not a valid line level
};

std::string LogLevelName(LogLevel level);
// Accepts "debug", "info", "warn", "error", "off" (case-sensitive).
Result<LogLevel> LogLevelFromName(std::string_view name);

// One key=value field of a structured log line (also reused as span
// annotations). String values are quoted and escaped on render; numeric and
// boolean values render bare.
struct LogField {
  std::string key;
  std::string value;
  bool quoted = false;

  LogField(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)), quoted(true) {}
  LogField(std::string k, const char* v)
      : key(std::move(k)), value(v), quoted(true) {}
  LogField(std::string k, double v);
  LogField(std::string k, int v) : LogField(std::move(k), int64_t{v}) {}
  LogField(std::string k, int64_t v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, uint64_t v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, unsigned int v)
      : LogField(std::move(k), uint64_t{v}) {}
  LogField(std::string k, bool v)
      : key(std::move(k)), value(v ? "true" : "false") {}
};

// Minimum level that reaches the sink (default kInfo).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();
inline bool LogEnabled(LogLevel level) {
  return level >= GetLogLevel() && level != LogLevel::kOff;
}

// Emits one structured line if `level` clears the current threshold.
void Log(LogLevel level, std::string_view message,
         std::initializer_list<LogField> fields = {});

// Renders the line without emitting it (exposed for tests).
std::string FormatLogLine(LogLevel level, std::string_view message,
                          const std::vector<LogField>& fields);

// Redirects rendered lines (tests, embedders). A null sink restores the
// default stderr writer. The sink is called with the lock held: keep it
// cheap and non-reentrant (it must not call Log).
using LogSink = std::function<void(LogLevel, const std::string& line)>;
void SetLogSink(LogSink sink);

// Monotonic microseconds since process start - the shared clock for log
// timestamps and trace-span times, so both line up in one timeline.
uint64_t UptimeMicros();

// Appends `s` as a quoted JSON string: `"` and `\` are escaped, newline and
// tab become \n and \t, and every other control character becomes \u00XX
// (RFC 8259 allows none of them raw). The one quoter behind log lines, the
// event journal, the metrics and trace exports and the campaign scoreboard.
void AppendJsonString(std::string_view s, std::string* out);
std::string JsonString(std::string_view s);

}  // namespace invarnetx::obs

// Evaluates the message/fields only when the level is enabled.
#define INVARNETX_OBS_LOG(level, ...)                    \
  do {                                                   \
    if (::invarnetx::obs::LogEnabled(level)) {           \
      ::invarnetx::obs::Log(level, __VA_ARGS__);         \
    }                                                    \
  } while (0)

#endif  // INVARNETX_OBS_LOG_H_
