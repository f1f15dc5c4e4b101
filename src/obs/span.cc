#include "obs/span.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"

namespace invarnetx::obs {
namespace {

// ------------------------------------------------------------------------
// Minimal recursive-descent JSON parser used only for validation: the
// golden-file tests and the CI smoke check must be able to parse traces
// back without external dependencies.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  Status Validate() {
    INVARNETX_RETURN_IF_ERROR(ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return Status::Ok();
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::Corruption("invalid JSON at offset " +
                              std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    if (text_.compare(pos_, 4, "true") == 0) { pos_ += 4; return Status::Ok(); }
    if (text_.compare(pos_, 5, "false") == 0) { pos_ += 5; return Status::Ok(); }
    if (text_.compare(pos_, 4, "null") == 0) { pos_ += 4; return Status::Ok(); }
    return Fail("unexpected character");
  }

  Status ParseObject() {
    ++pos_;  // '{'
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      INVARNETX_RETURN_IF_ERROR(ParseString());
      if (!Consume(':')) return Fail("expected ':'");
      INVARNETX_RETURN_IF_ERROR(ParseValue());
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray() {
    ++pos_;  // '['
    if (Consume(']')) return Status::Ok();
    for (;;) {
      INVARNETX_RETURN_IF_ERROR(ParseValue());
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  Status ParseString() {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      // RFC 8259: control characters inside a string must be escaped.
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return Fail("bad escape");
        }
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  Status ParseNumber() {
    if (text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("bad number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Locates the "traceEvents" array and counts its top-level elements; runs
// after full syntax validation, so scanning is safe.
Status CountTraceEvents(const std::string& json, size_t* num_events) {
  const size_t key = json.find("\"traceEvents\"");
  if (key == std::string::npos) return Status::Corruption("no traceEvents");
  size_t pos = json.find('[', key);
  if (pos == std::string::npos) {
    return Status::Corruption("traceEvents is not an array");
  }
  size_t count = 0;
  int depth = 0;
  bool in_string = false;
  for (; pos < json.size(); ++pos) {
    const char c = json[pos];
    if (in_string) {
      if (c == '\\') ++pos;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '[' || c == '{') {
      if (c == '{' && depth == 1) ++count;  // one top-level event object
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
      if (depth == 0) break;
    }
  }
  if (num_events != nullptr) *num_events = count;
  return Status::Ok();
}

}  // namespace

void TraceRecorder::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    MetricsRegistry::Shared()
        .GetCounter("obs.trace_events_dropped")
        .Increment();
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t TraceRecorder::NumEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string TraceRecorder::RenderChromeTrace() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + JsonString(event.name) +
           ",\"ph\":\"X\",\"cat\":\"invarnetx\",\"pid\":1,\"tid\":" +
           std::to_string(event.tid) + ",\"ts\":" +
           std::to_string(event.ts_us) + ",\"dur\":" +
           std::to_string(event.dur_us);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += JsonString(key) + ":" + JsonString(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open trace file " + path);
  file << RenderChromeTrace();
  if (!file.good()) return Status::IoError("trace write failed for " + path);
  return Status::Ok();
}

TraceRecorder& TraceRecorder::Shared() {
  // Leaked for the same reason as the shared thread pool: spans on worker
  // threads must never race static destruction.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

int CurrentThreadTid() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, int>* ids =
      new std::unordered_map<std::thread::id, int>();
  thread_local int tid = [] {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<int>(
        ids->emplace(std::this_thread::get_id(),
                     static_cast<int>(ids->size()) + 1)
            .first->second);
  }();
  return tid;
}

void SlowSpanSampler::Offer(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++offered_;
  std::vector<TraceEvent>& kept = by_stage_[event.name];
  if (kept.size() >= kPerStage && event.dur_us <= kept.back().dur_us) {
    return;
  }
  // Sorted insert by descending duration; the vector is at most
  // kPerStage long, so a linear scan is the whole cost.
  auto it = kept.begin();
  while (it != kept.end() && it->dur_us >= event.dur_us) ++it;
  if (kept.size() < kPerStage) {
    kept.insert(it, event);
    return;
  }
  // A full stage evicts its fastest span: copy-assign into that slot, which
  // reuses its name and args buffers, and rotate it into place.
  kept.back() = event;
  std::rotate(it, kept.end() - 1, kept.end());
}

std::vector<TraceEvent> SlowSpanSampler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  for (const auto& [stage, kept] : by_stage_) {
    out.insert(out.end(), kept.begin(), kept.end());
  }
  return out;
}

uint64_t SlowSpanSampler::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}

void SlowSpanSampler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_stage_.clear();
  offered_ = 0;
}

std::string SlowSpanSampler::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "tracez: slowest spans per stage (keeping " +
                    std::to_string(kPerStage) + ", offered " +
                    std::to_string(offered_) + ")\n";
  for (const auto& [stage, kept] : by_stage_) {
    out += "\nstage " + stage + "\n";
    for (const TraceEvent& event : kept) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  dur_ms=%.3f ts=%.3f tid=%d",
                    static_cast<double>(event.dur_us) / 1e3,
                    static_cast<double>(event.ts_us) / 1e6, event.tid);
      out += line;
      for (const auto& [key, value] : event.args) {
        out += " " + key + "=" + JsonString(value);
      }
      out.push_back('\n');
    }
  }
  return out;
}

SlowSpanSampler& SlowSpanSampler::Shared() {
  // Leaked: spans end on pool workers that may outlive static teardown.
  static SlowSpanSampler* sampler = new SlowSpanSampler();
  return *sampler;
}

Span::Span(std::string name, std::initializer_list<LogField> fields)
    : name_(std::move(name)), start_us_(UptimeMicros()) {
  args_.reserve(fields.size());
  for (const LogField& field : fields) {
    args_.emplace_back(field.key, field.value);
  }
}

Span::~Span() { End(); }

void Span::End() {
  if (ended_) return;
  ended_ = true;
  end_us_ = UptimeMicros();
  const uint64_t dur_us = end_us_ - start_us_;
  MetricsRegistry::Shared()
      .GetHistogram("span." + name_)
      .Record(static_cast<double>(dur_us) / 1e6);
  TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  event.dur_us = dur_us;
  event.tid = CurrentThreadTid();
  event.args = std::move(args_);
  SlowSpanSampler::Shared().Offer(event);
  TraceRecorder& recorder = TraceRecorder::Shared();
  if (recorder.enabled()) {
    recorder.Record(std::move(event));
  }
}

double Span::Seconds() const {
  const uint64_t end = ended_ ? end_us_ : UptimeMicros();
  return static_cast<double>(end - start_us_) / 1e6;
}

Status ValidateChromeTrace(const std::string& json, size_t* num_events) {
  INVARNETX_RETURN_IF_ERROR(ValidateJson(json));
  // Schema: the viewer needs these keys on every event.
  for (const char* key : {"\"traceEvents\"", "\"ph\"", "\"ts\"", "\"pid\"",
                          "\"tid\"", "\"name\""}) {
    if (json.find(key) == std::string::npos &&
        json.find("\"traceEvents\":[]") == std::string::npos) {
      return Status::Corruption(std::string("trace JSON missing ") + key);
    }
  }
  return CountTraceEvents(json, num_events);
}

Status ValidateJson(const std::string& json) {
  return JsonValidator(json).Validate();
}

}  // namespace invarnetx::obs
