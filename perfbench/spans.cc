// The traced run's span recorder and the shared statistics helpers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "perfbench/servebench.h"

namespace invarnetx::perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           const char* layer, int64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr || !recorder_->enabled) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  span.request = request;
  index_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(index_);
  recorder_->spans_[static_cast<size_t>(index_)].start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  recorder_->open_.pop_back();
}

void SpanRecorder::Add(Span span) {
  if (enabled) spans_.push_back(std::move(span));
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) * 1e-9);
  }
  return out;
}

std::map<std::string, std::pair<uint64_t, double>>
SpanRecorder::SelfTimeByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.track == 0 && span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::pair<uint64_t, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].track != 0) continue;
    auto& [calls, seconds] = out[spans_[i].layer];
    ++calls;
    seconds += (spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

std::string SpanRecorder::RenderChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%lld}}",
                  i == 0 ? "" : ",", span.name, span.layer,
                  span.start_ns * 1e-3, (span.end_ns - span.start_ns) * 1e-3,
                  span.track + 1, i, span.parent,
                  static_cast<long long>(span.request));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace invarnetx::perfbench
