#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "obs/log.h"

namespace invarnetx::obs {
namespace {

std::string DoubleToStr(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

size_t BucketIndex(double value) {
  if (value <= Histogram::kMinBucket) return 0;
  double bound = Histogram::kMinBucket;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (value <= bound) return i;
    bound *= 2.0;
  }
  return Histogram::kNumBuckets;  // overflow
}

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
// `<area>.<noun>` names map onto that by replacing everything else with '_'.
std::string OpenMetricsName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

// Label values escape `\`, `"` and newline per the exposition format.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += OpenMetricsName(key) + "=\"" + EscapeLabelValue(value) + "\"";
  }
  out += "}";
  return out;
}

MetricLabels SortedLabels(const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

void Histogram::Record(double value) {
  if (!(value >= 0.0)) value = 0.0;  // negatives and NaN clamp to zero
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t next =
        std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + value);
    if (sum_bits_.compare_exchange_weak(cur, next,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::BucketUpperBound(size_t i) {
  double bound = kMinBucket;
  for (size_t b = 0; b < i && b < kNumBuckets - 1; ++b) bound *= 2.0;
  return bound;
}

double Histogram::Percentile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, ceil), then walk the cumulative
  // distribution to its bucket.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= rank) {
      const double upper = BucketUpperBound(i >= kNumBuckets ? kNumBuckets - 1
                                                             : i);
      const double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
      const double fraction = static_cast<double>(rank - cumulative) /
                              static_cast<double>(in_bucket);
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  return BucketUpperBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::string MetricsRegistry::SeriesKey(const std::string& name,
                                       const MetricLabels& labels) {
  if (labels.empty()) return name;
  return name + RenderLabels(SortedLabels(labels));
}

template <typename T>
MetricsRegistry::Entry<T>& MetricsRegistry::GetEntry(
    std::map<std::string, Entry<T>>* entries, const std::string& name,
    const MetricLabels& labels) {
  Entry<T>& entry = (*entries)[SeriesKey(name, labels)];
  if (!entry.metric) {
    entry.metric = std::make_unique<T>();
    entry.family = name;
    entry.labels = SortedLabels(labels);
  }
  return entry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  return GetCounter(name, {});
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *GetEntry(&counters_, name, labels).metric;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  return GetGauge(name, {});
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *GetEntry(&gauges_, name, labels).metric;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, {});
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *GetEntry(&histograms_, name, labels).metric;
}

bool MetricsRegistry::HasGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_.count(name) > 0;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  // Metric objects are pointer-stable and never deregistered, so the lock
  // only needs to cover copying the index - values (and the histogram
  // percentile walks, the expensive part) are read lock-free afterwards.
  // A scrape therefore can never stall a hot path blocked on Get*.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.reserve(counters_.size());
    for (const auto& [key, entry] : counters_) {
      counters.emplace_back(key, entry.metric.get());
    }
    gauges.reserve(gauges_.size());
    for (const auto& [key, entry] : gauges_) {
      gauges.emplace_back(key, entry.metric.get());
    }
    histograms.reserve(histograms_.size());
    for (const auto& [key, entry] : histograms_) {
      histograms.emplace_back(key, entry.metric.get());
    }
  }
  Snapshot snap;
  for (const auto& [key, counter] : counters) {
    snap.counters[key] = counter->value();
  }
  for (const auto& [key, gauge] : gauges) {
    snap.gauges[key] = gauge->value();
  }
  for (const auto& [key, hist] : histograms) {
    HistogramStats stats;
    stats.count = hist->count();
    stats.sum = hist->sum();
    stats.p50 = hist->Percentile(0.50);
    stats.p95 = hist->Percentile(0.95);
    stats.p99 = hist->Percentile(0.99);
    snap.histograms[key] = stats;
  }
  return snap;
}

std::string MetricsRegistry::RenderText() const {
  const Snapshot snap = Snap();
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << " " << DoubleToStr(value) << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "histogram " << name << " count=" << h.count
        << " sum=" << DoubleToStr(h.sum) << " p50=" << DoubleToStr(h.p50)
        << " p95=" << DoubleToStr(h.p95) << " p99=" << DoubleToStr(h.p99)
        << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::RenderJson() const {
  const Snapshot snap = Snap();
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":" << DoubleToStr(value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":{\"count\":" << h.count
        << ",\"sum\":" << DoubleToStr(h.sum)
        << ",\"p50\":" << DoubleToStr(h.p50)
        << ",\"p95\":" << DoubleToStr(h.p95)
        << ",\"p99\":" << DoubleToStr(h.p99) << "}";
  }
  out << "}}";
  return out.str();
}

std::string MetricsRegistry::RenderOpenMetrics() {
  GetCounter("obs.export_total").Increment();

  // Short-lock index copy, exactly like Snap(): families grouped so each
  // `# TYPE` appears once even when labeled and unlabeled series interleave
  // in display-key order.
  struct CounterSeries {
    std::string labels;
    const Counter* metric;
  };
  struct GaugeSeries {
    std::string labels;
    const Gauge* metric;
  };
  struct HistSeries {
    std::string labels;
    const Histogram* metric;
  };
  std::map<std::string, std::vector<CounterSeries>> counter_families;
  std::map<std::string, std::vector<GaugeSeries>> gauge_families;
  std::map<std::string, std::vector<HistSeries>> hist_families;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, entry] : counters_) {
      counter_families[entry.family].push_back(
          {RenderLabels(entry.labels), entry.metric.get()});
    }
    for (const auto& [key, entry] : gauges_) {
      gauge_families[entry.family].push_back(
          {RenderLabels(entry.labels), entry.metric.get()});
    }
    for (const auto& [key, entry] : histograms_) {
      hist_families[entry.family].push_back(
          {RenderLabels(entry.labels), entry.metric.get()});
    }
  }

  std::ostringstream out;

  for (const auto& [family, series] : counter_families) {
    std::string name = OpenMetricsName(family);
    if (name.size() < 6 || name.compare(name.size() - 6, 6, "_total") != 0) {
      name += "_total";
    }
    out << "# TYPE " << name << " counter\n";
    for (const CounterSeries& s : series) {
      out << name << s.labels << " " << s.metric->value() << "\n";
    }
  }
  for (const auto& [family, series] : gauge_families) {
    const std::string name = OpenMetricsName(family);
    out << "# TYPE " << name << " gauge\n";
    for (const GaugeSeries& s : series) {
      out << name << s.labels << " " << DoubleToStr(s.metric->value())
          << "\n";
    }
  }
  for (const auto& [family, series] : hist_families) {
    const std::string name = OpenMetricsName(family);
    out << "# TYPE " << name << " histogram\n";
    for (const HistSeries& s : series) {
      // Labels on a histogram series merge with the `le` bucket label:
      // `{shard="3"}` becomes `{shard="3",le="..."}`.
      const std::string prefix =
          s.labels.empty() ? "{" : s.labels.substr(0, s.labels.size() - 1) +
                                       ",";
      uint64_t cumulative = 0;
      for (size_t i = 0; i <= Histogram::kNumBuckets; ++i) {
        cumulative += s.metric->bucket_count(i);
        if (i < Histogram::kNumBuckets) {
          out << name << "_bucket" << prefix << "le=\""
              << DoubleToStr(Histogram::BucketUpperBound(i)) << "\"} "
              << cumulative << "\n";
        } else {
          out << name << "_bucket" << prefix << "le=\"+Inf\"} " << cumulative
              << "\n";
        }
      }
      out << name << "_sum" << s.labels << " " << DoubleToStr(s.metric->sum())
          << "\n";
      out << name << "_count" << s.labels << " " << cumulative << "\n";
    }
  }
  out << "# EOF\n";
  return out.str();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : counters_) entry.metric->Reset();
  for (auto& [name, entry] : gauges_) entry.metric->Reset();
  for (auto& [name, entry] : histograms_) entry.metric->Reset();
}

MetricsRegistry& MetricsRegistry::Shared() {
  // Leaked so instrumented code (including detached pool workers) can
  // report during static destruction without racing teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

// Parses `name{k="v",...} value` into its parts; returns false on any
// syntax violation. `labels` gets the canonical rendered label block
// (exactly the input text between the braces).
bool ParseSampleLine(const std::string& line, std::string* name,
                     std::string* labels, std::string* value) {
  size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  *name = line.substr(0, pos);
  if (!ValidMetricName(*name)) return false;
  labels->clear();
  if (pos < line.size() && line[pos] == '{') {
    const size_t open = pos++;
    bool in_string = false;
    // Walk to the matching close brace; quotes may contain '}'.
    while (pos < line.size()) {
      const char c = line[pos];
      if (in_string) {
        if (c == '\\') ++pos;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '}') {
        break;
      }
      ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') return false;
    const std::string block = line.substr(open + 1, pos - open - 1);
    ++pos;
    // Validate each `key="value"` pair.
    size_t p = 0;
    while (p < block.size()) {
      size_t eq = block.find('=', p);
      if (eq == std::string::npos) return false;
      const std::string key = block.substr(p, eq - p);
      if (!ValidMetricName(key)) return false;
      p = eq + 1;
      if (p >= block.size() || block[p] != '"') return false;
      ++p;
      while (p < block.size() && block[p] != '"') {
        if (block[p] == '\\') {
          ++p;
          if (p >= block.size()) return false;
          if (block[p] != '\\' && block[p] != '"' && block[p] != 'n') {
            return false;
          }
        }
        ++p;
      }
      if (p >= block.size()) return false;  // unterminated value
      ++p;
      if (p < block.size()) {
        if (block[p] != ',') return false;
        ++p;
        if (p >= block.size()) return false;  // trailing comma
      }
    }
    *labels = block;
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  *value = line.substr(pos + 1);
  if (value->empty() || value->find(' ') != std::string::npos) return false;
  return true;
}

bool ParseSampleValue(const std::string& text, double* out) {
  if (text == "+Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

// Strips the `le` label from a histogram bucket's label block so buckets of
// one series group together; returns the le value text via `le`.
bool SplitLeLabel(const std::string& labels, std::string* rest,
                  std::string* le) {
  rest->clear();
  le->clear();
  size_t p = 0;
  bool found = false;
  while (p < labels.size()) {
    size_t eq = labels.find('=', p);
    if (eq == std::string::npos) return false;
    const std::string key = labels.substr(p, eq - p);
    size_t q = eq + 2;  // skip ="
    while (q < labels.size() && labels[q] != '"') {
      if (labels[q] == '\\') ++q;
      ++q;
    }
    if (q >= labels.size()) return false;
    const std::string pair = labels.substr(p, q + 1 - p);
    if (key == "le") {
      *le = labels.substr(eq + 2, q - eq - 2);
      found = true;
    } else {
      if (!rest->empty()) *rest += ",";
      *rest += pair;
    }
    p = q + 1;
    if (p < labels.size() && labels[p] == ',') ++p;
  }
  return found;
}

}  // namespace

Status ValidateOpenMetrics(const std::string& text, size_t* num_samples) {
  if (text.empty()) return Status::Corruption("empty exposition");
  if (text.size() < 6 || text.compare(text.size() - 6, 6, "# EOF\n") != 0) {
    return Status::Corruption("exposition does not end with '# EOF'");
  }

  std::map<std::string, std::string> families;  // name -> type
  std::map<std::string, bool> family_sampled;
  std::map<std::string, uint64_t> seen_series;  // name{labels} -> line no
  struct HistSeriesState {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    bool has_inf = false;
    double inf_count = 0.0;
    bool has_sum = false;
    bool has_count = false;
    double count = 0.0;
  };
  std::map<std::string, HistSeriesState> hist_series;  // family|labels

  size_t samples = 0;
  size_t line_no = 0;
  std::istringstream lines(text);
  std::string line;
  bool saw_eof = false;
  auto fail = [&](const std::string& what) {
    return Status::Corruption("line " + std::to_string(line_no) + ": " +
                              what + ": " + line);
  };
  while (std::getline(lines, line)) {
    ++line_no;
    if (saw_eof) return fail("content after '# EOF'");
    if (line.empty()) continue;
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      std::string type;
      std::string extra;
      fields >> name >> type >> extra;
      if (!ValidMetricName(name)) return fail("bad family name");
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return fail("bad family type");
      }
      if (!extra.empty()) return fail("trailing text after type");
      if (families.count(name) != 0) return fail("duplicate # TYPE");
      if (type == "counter" &&
          (name.size() < 6 ||
           name.compare(name.size() - 6, 6, "_total") != 0)) {
        return fail("counter family does not end in _total");
      }
      families[name] = type;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      if (!ValidMetricName(name)) return fail("bad family name in HELP");
      if (family_sampled.count(name) != 0) {
        return fail("HELP after samples of the family");
      }
      continue;
    }
    if (line[0] == '#') return fail("unknown comment directive");

    std::string name;
    std::string labels;
    std::string value_text;
    if (!ParseSampleLine(line, &name, &labels, &value_text)) {
      return fail("malformed sample line");
    }
    double value = 0.0;
    if (!ParseSampleValue(value_text, &value)) return fail("bad value");

    // Resolve the sample's family: exact, or a histogram suffix.
    std::string family = name;
    std::string suffix;
    if (families.count(family) == 0) {
      for (const char* s : {"_bucket", "_sum", "_count"}) {
        const size_t len = std::string(s).size();
        if (name.size() > len &&
            name.compare(name.size() - len, len, s) == 0) {
          const std::string stem = name.substr(0, name.size() - len);
          auto it = families.find(stem);
          if (it != families.end() && it->second == "histogram") {
            family = stem;
            suffix = s;
            break;
          }
        }
      }
    }
    auto family_it = families.find(family);
    if (family_it == families.end()) {
      return fail("sample without a preceding # TYPE");
    }
    if (family_it->second == "histogram" && suffix.empty()) {
      return fail("bare sample of a histogram family");
    }
    if (family_it->second != "histogram" && !suffix.empty()) {
      return fail("suffixed sample of a non-histogram family");
    }
    family_sampled[family] = true;

    const std::string series = name + "{" + labels + "}";
    if (!seen_series.emplace(series, line_no).second) {
      return fail("duplicate series");
    }
    ++samples;

    if (family_it->second == "histogram") {
      if (suffix == "_bucket") {
        std::string rest;
        std::string le_text;
        if (!SplitLeLabel(labels, &rest, &le_text)) {
          return fail("bucket sample without le label");
        }
        HistSeriesState& state = hist_series[family + "|" + rest];
        if (le_text == "+Inf") {
          state.has_inf = true;
          state.inf_count = value;
        } else {
          double le = 0.0;
          if (!ParseSampleValue(le_text, &le)) return fail("bad le value");
          if (state.has_inf) return fail("finite bucket after +Inf");
          state.buckets.emplace_back(le, value);
        }
      } else {
        HistSeriesState& state = hist_series[family + "|" + labels];
        if (suffix == "_sum") {
          state.has_sum = true;
        } else {
          state.has_count = true;
          state.count = value;
        }
      }
    }
  }
  if (!saw_eof) return Status::Corruption("missing '# EOF'");

  for (const auto& [key, state] : hist_series) {
    const std::string where = "histogram series " + key;
    if (!state.has_inf) {
      return Status::Corruption(where + ": no le=\"+Inf\" bucket");
    }
    if (!state.has_sum || !state.has_count) {
      return Status::Corruption(where + ": missing _sum or _count");
    }
    double prev_le = -1.0;
    double prev_count = 0.0;
    for (const auto& [le, cumulative] : state.buckets) {
      if (le <= prev_le) {
        return Status::Corruption(where + ": le bounds not increasing");
      }
      if (cumulative < prev_count) {
        return Status::Corruption(where + ": bucket counts not cumulative");
      }
      prev_le = le;
      prev_count = cumulative;
    }
    if (state.inf_count < prev_count) {
      return Status::Corruption(where + ": +Inf bucket below last bucket");
    }
    if (state.inf_count != state.count) {
      return Status::Corruption(where + ": _count != +Inf bucket");
    }
  }
  if (num_samples != nullptr) *num_samples = samples;
  return Status::Ok();
}

}  // namespace invarnetx::obs
