#ifndef INVARNETX_OBS_SPAN_H_
#define INVARNETX_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/log.h"

// Stage-level wall-time tracing. A Span times one pipeline stage (RAII:
// construction starts the clock, destruction or End() stops it), always
// feeds the `span.<name>` latency histogram in the shared MetricsRegistry,
// and - when the process-wide TraceRecorder is enabled - records a complete
// ("ph":"X") Chrome trace event viewable in chrome://tracing or Perfetto.
namespace invarnetx::obs {

// One completed trace event. Times are microseconds on the UptimeMicros()
// clock, so events line up with log timestamps.
struct TraceEvent {
  std::string name;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

// Process-wide event collector. Disabled by default so unexercised spans
// cost a relaxed atomic load; enabling is what `--trace-out` does. Bounded
// (kMaxEvents) - a runaway loop degrades to dropped events plus the
// `obs.trace_events_dropped` counter, never to unbounded memory.
class TraceRecorder {
 public:
  static constexpr size_t kMaxEvents = 1 << 20;

  void SetEnabled(bool enabled);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void Record(TraceEvent event);
  std::vector<TraceEvent> Events() const;
  size_t NumEvents() const;
  void Clear();

  // Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string RenderChromeTrace() const;
  Status WriteChromeTrace(const std::string& path) const;

  static TraceRecorder& Shared();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// Small dense id for the calling thread (Chrome traces want integer tids;
// std::thread::id is opaque). Stable for the thread's lifetime.
int CurrentThreadTid();

// Tail sampler: keeps only the slowest-N completed spans per stage name, so
// a long-running serve process can always answer "what were the worst
// detect/diagnose calls lately?" without recording every span the way the
// TraceRecorder does. Always on (per-span cost is one mutex plus a bounded
// sorted insert, in line with the histogram update every span already
// pays); stage cardinality is bounded by the code's span names.
class SlowSpanSampler {
 public:
  static constexpr size_t kPerStage = 8;

  SlowSpanSampler() = default;
  SlowSpanSampler(const SlowSpanSampler&) = delete;
  SlowSpanSampler& operator=(const SlowSpanSampler&) = delete;

  // Considers one completed span; kept only if the stage has fewer than
  // kPerStage samples or the span outlasts the stage's current fastest.
  void Offer(const TraceEvent& event);

  // All retained spans, grouped by stage name (sorted), slowest first
  // within a stage.
  std::vector<TraceEvent> Snapshot() const;

  // Total spans offered (kept or not) since the last Clear.
  uint64_t offered() const;
  void Clear();

  // Plain-text table for the /tracez endpoint.
  std::string RenderText() const;

  static SlowSpanSampler& Shared();

 private:
  mutable std::mutex mu_;
  // Per stage, sorted by descending duration; bounded at kPerStage.
  std::map<std::string, std::vector<TraceEvent>> by_stage_;
  uint64_t offered_ = 0;
};

// RAII stage timer. Annotations reuse LogField so call sites write
//   obs::Span span("mine_invariants", {{"context", ctx.name}});
// and the same fields appear in the trace event's args.
class Span {
 public:
  explicit Span(std::string name, std::initializer_list<LogField> fields = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Stops the clock early; later End() calls and the destructor are no-ops.
  void End();

  // Elapsed seconds so far (after End(): the final duration).
  double Seconds() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> args_;
  uint64_t start_us_ = 0;
  uint64_t end_us_ = 0;
  bool ended_ = false;
};

// Strict validation of a Chrome trace-event JSON document: full JSON syntax
// check plus the schema the viewer needs (top-level object, "traceEvents"
// array, each event an object with name/ph/ts/pid/tid). On success reports
// the event count. This is what the golden-file tests and the CI smoke step
// parse traces back with.
Status ValidateChromeTrace(const std::string& json, size_t* num_events);

// JSON syntax check alone (used for the metrics JSON export).
Status ValidateJson(const std::string& json);

}  // namespace invarnetx::obs

#endif  // INVARNETX_OBS_SPAN_H_
