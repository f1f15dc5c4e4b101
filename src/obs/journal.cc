#include "obs/journal.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace invarnetx::obs {
std::string EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kAlarm: return "alarm";
    case EventKind::kRetrain: return "retrain";
    case EventKind::kEpochPublish: return "epoch_publish";
    case EventKind::kDiagnosis: return "diagnosis";
    case EventKind::kCacheEviction: return "cache_eviction";
    case EventKind::kRingOverflow: return "ring_overflow";
    case EventKind::kAlarmStorm: return "alarm_storm";
    case EventKind::kSlowTick: return "slow_tick";
    case EventKind::kLifecycle: return "lifecycle";
    case EventKind::kCausalFallback: return "causal_fallback";
    case EventKind::kBackpressure: return "backpressure";
  }
  return "unknown";
}

EventJournal::EventJournal(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void EventJournal::Record(EventKind kind, std::string message,
                          std::vector<LogField> fields) {
  Event event;
  event.uptime_us = UptimeMicros();
  event.kind = kind;
  event.message = std::move(message);
  event.fields = std::move(fields);
  {
    std::lock_guard<std::mutex> lock(mu_);
    event.seq = next_seq_++;
    if (ring_.size() == capacity_) {
      ring_.pop_front();
      ++evicted_;
      MetricsRegistry::Shared().GetCounter("journal.evicted").Increment();
    }
    ring_.push_back(event);
  }
  MetricsRegistry::Shared().GetCounter("journal.events").Increment();
  // Mirror to the debug log so the journal and the log stream agree on
  // every state change without double bookkeeping at the call sites.
  if (LogEnabled(LogLevel::kDebug)) {
    Log(LogLevel::kDebug, event.message,
        {LogField("event", EventKindName(kind)), LogField("seq", event.seq)});
  }
}

std::vector<Event> EventJournal::Snapshot(size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t skip = 0;
  if (last_n != 0 && last_n < ring_.size()) skip = ring_.size() - last_n;
  return std::vector<Event>(ring_.begin() + static_cast<ptrdiff_t>(skip),
                            ring_.end());
}

size_t EventJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t EventJournal::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

uint64_t EventJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

void EventJournal::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  evicted_ = 0;
}

EventJournal& EventJournal::Shared() {
  // Leaked for the same reason as the metrics registry: hooks may fire
  // from detached pool workers during static destruction.
  static EventJournal* journal = new EventJournal();
  return *journal;
}

std::string RenderEventsText(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(e.uptime_us) / 1e6);
    out += "ts=";
    out += ts;
    out += " seq=" + std::to_string(e.seq);
    out += " kind=" + EventKindName(e.kind);
    out += " msg=";
    AppendJsonString(e.message, &out);
    for (const LogField& f : e.fields) {
      out.push_back(' ');
      out += f.key;
      out.push_back('=');
      if (f.quoted) {
        AppendJsonString(f.value, &out);
      } else {
        out += f.value;
      }
    }
    out.push_back('\n');
  }
  return out;
}

std::string RenderEventsJson(const std::vector<Event>& events) {
  std::string out = "[";
  bool first_event = true;
  for (const Event& e : events) {
    if (!first_event) out += ",";
    first_event = false;
    out += "\n  {\"seq\": " + std::to_string(e.seq);
    out += ", \"uptime_us\": " + std::to_string(e.uptime_us);
    out += ", \"kind\": ";
    AppendJsonString(EventKindName(e.kind), &out);
    out += ", \"msg\": ";
    AppendJsonString(e.message, &out);
    out += ", \"fields\": {";
    bool first_field = true;
    for (const LogField& f : e.fields) {
      if (!first_field) out += ", ";
      first_field = false;
      AppendJsonString(f.key, &out);
      out += ": ";
      if (f.quoted) {
        AppendJsonString(f.value, &out);
      } else {
        // Bare numeric/boolean tokens are already valid JSON scalars.
        out += f.value;
      }
    }
    out += "}}";
  }
  out += events.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace invarnetx::obs
