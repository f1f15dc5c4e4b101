#ifndef INVARNETX_OBS_METRICS_H_
#define INVARNETX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

// Process-wide metrics for the diagnosis engine's own behaviour: counters
// (monotonic event tallies), gauges (instantaneous values), and fixed-bucket
// latency histograms (p50/p95/p99). Handles returned by the registry are
// pointer-stable for the registry's lifetime, so hot paths look a metric up
// once and then pay only relaxed atomics per update - cheap enough to leave
// on in production runs, which is what makes the Table 1 overhead numbers
// measurable instead of estimated.
//
// Metrics may carry low-cardinality labels (per-shard, per-workload - never
// per-monitor or per-request); each distinct (name, labels) pair is its own
// series with its own handle. The registry exports in three shapes: the
// original text table, JSON, and Prometheus/OpenMetrics text exposition for
// the embedded /metrics endpoint.
namespace invarnetx::obs {

// Sorted-by-key on registration, so {a=1,b=2} and {b=2,a=1} name the same
// series. Keep cardinality low: labels multiply series counts.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous double value with atomic set/add (CAS loop - portable even
// where std::atomic<double>::fetch_add is not lock-free).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed exponential-bucket histogram for non-negative values (seconds in
// this codebase). Buckets double from kMinBucket; values above the last
// bound land in the overflow bucket. Percentiles interpolate linearly
// inside the owning bucket, so they are exact to within one bucket width.
// All updates are relaxed atomics; readers may see a mid-update snapshot,
// which for monitoring is fine.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 44;  // 1us .. ~2.3 days, then overflow
  static constexpr double kMinBucket = 1e-6;

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  // q in [0, 1]; returns 0 when empty.
  double Percentile(double q) const;
  // Samples in bucket i (i == kNumBuckets is the overflow bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Upper bound of bucket i (inclusive); the overflow bucket reports the
  // last finite bound.
  static double BucketUpperBound(size_t i);

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets + 1> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double stored as bits, CAS-added
};

// Name -> metric maps with idempotent registration: the first Get* creates,
// later calls return the same object, so components that race to register
// (several pipelines sharing the process-wide thread pool) cannot create
// duplicates. Names follow `<area>.<noun>` (see DESIGN.md). The labeled
// overloads register one series per distinct label set under the same
// family name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Counter& GetCounter(const std::string& name, const MetricLabels& labels);
  Gauge& GetGauge(const std::string& name);
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels);
  Histogram& GetHistogram(const std::string& name);
  Histogram& GetHistogram(const std::string& name, const MetricLabels& labels);

  bool HasGauge(const std::string& name) const;

  // Point-in-time copy for programmatic consumers (CLI stats, reports,
  // tests). Labeled series appear under their display key
  // `name{key="value",...}` with label keys sorted.
  struct HistogramStats {
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;
  };
  Snapshot Snap() const;

  // Human-readable table and a JSON object {"counters":{...},"gauges":{...},
  // "histograms":{...}}; both sorted by name.
  std::string RenderText() const;
  std::string RenderJson() const;

  // Prometheus/OpenMetrics text exposition: a `# TYPE` line per family,
  // one sample line per series (counters gain the `_total` suffix,
  // histograms expand to cumulative `_bucket{le=...}` + `_sum` + `_count`),
  // terminated by `# EOF`. Dots in names become underscores. Every call
  // increments this registry's `obs.export_total` counter. The exported
  // values are a point-in-time snapshot taken under a short lock - a scrape
  // never holds the registry lock while formatting, so it cannot stall the
  // serve ingest hot path.
  std::string RenderOpenMetrics();

  // Zeroes every value but keeps the handles valid (benches isolate
  // measurement phases with this).
  void ResetAll();

  // The process-wide registry all built-in instrumentation reports to.
  static MetricsRegistry& Shared();

  // Display key of a labeled series: `name{k="v",...}` with keys sorted and
  // values escaped; just `name` when labels are empty.
  static std::string SeriesKey(const std::string& name,
                               const MetricLabels& labels);

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    std::string family;   // unlabeled metric name
    MetricLabels labels;  // sorted by key
  };
  template <typename T>
  static Entry<T>& GetEntry(std::map<std::string, Entry<T>>* entries,
                            const std::string& name,
                            const MetricLabels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

// Strict validation of a Prometheus/OpenMetrics text exposition as produced
// by RenderOpenMetrics: name/label syntax, `# TYPE` before samples, no
// duplicate series, cumulative non-decreasing histogram buckets with an
// le="+Inf" bucket matching `_count`, and a terminal `# EOF`. On success
// reports the number of sample lines. Shared by tools/openmetrics_check and
// the exposition tests.
Status ValidateOpenMetrics(const std::string& text, size_t* num_samples);

}  // namespace invarnetx::obs

#endif  // INVARNETX_OBS_METRICS_H_
