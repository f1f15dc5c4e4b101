// Tests for the self-observability layer: structured logging, the metrics
// registry, and stage-level trace spans - plus the registry wiring of the
// association score cache and the shared thread pool.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/assoc_cache.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"

#include "alloc_counter.h"

namespace invarnetx {
namespace {

// Restores the global log level and sink on scope exit so tests cannot leak
// configuration into each other.
class ScopedLogCapture {
 public:
  ScopedLogCapture() : previous_level_(obs::GetLogLevel()) {
    obs::SetLogSink([this](obs::LogLevel level, const std::string& line) {
      levels_.push_back(level);
      lines_.push_back(line);
    });
  }
  ~ScopedLogCapture() {
    obs::SetLogSink(nullptr);
    obs::SetLogLevel(previous_level_);
  }

  const std::vector<std::string>& lines() const { return lines_; }
  const std::vector<obs::LogLevel>& levels() const { return levels_; }

 private:
  obs::LogLevel previous_level_;
  std::vector<obs::LogLevel> levels_;
  std::vector<std::string> lines_;
};

TEST(LogTest, LevelNamesRoundTrip) {
  for (obs::LogLevel level :
       {obs::LogLevel::kDebug, obs::LogLevel::kInfo, obs::LogLevel::kWarn,
        obs::LogLevel::kError, obs::LogLevel::kOff}) {
    Result<obs::LogLevel> parsed =
        obs::LogLevelFromName(obs::LogLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), level);
  }
  EXPECT_FALSE(obs::LogLevelFromName("verbose").ok());
  EXPECT_FALSE(obs::LogLevelFromName("").ok());
}

TEST(LogTest, LevelFiltering) {
  ScopedLogCapture capture;
  obs::SetLogLevel(obs::LogLevel::kWarn);
  obs::Log(obs::LogLevel::kDebug, "dropped");
  obs::Log(obs::LogLevel::kInfo, "dropped");
  obs::Log(obs::LogLevel::kWarn, "kept warn");
  obs::Log(obs::LogLevel::kError, "kept error");
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.levels()[0], obs::LogLevel::kWarn);
  EXPECT_EQ(capture.levels()[1], obs::LogLevel::kError);

  obs::SetLogLevel(obs::LogLevel::kOff);
  obs::Log(obs::LogLevel::kError, "silenced");
  EXPECT_EQ(capture.lines().size(), 2u);
}

TEST(LogTest, StructuredLineFormat) {
  ScopedLogCapture capture;
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::Log(obs::LogLevel::kInfo, "trained context",
           {{"context", "wordcount@10.0.0.2"},
            {"examples", 3},
            {"ratio", 0.5},
            {"ok", true}});
  ASSERT_EQ(capture.lines().size(), 1u);
  const std::string& line = capture.lines()[0];
  EXPECT_NE(line.find("level=info"), std::string::npos);
  EXPECT_NE(line.find("msg=\"trained context\""), std::string::npos);
  // String values are quoted; numbers and booleans are bare.
  EXPECT_NE(line.find("context=\"wordcount@10.0.0.2\""), std::string::npos);
  EXPECT_NE(line.find("examples=3"), std::string::npos);
  EXPECT_NE(line.find("ok=true"), std::string::npos);
  EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
}

TEST(LogTest, QuotesAndEscapesStringValues) {
  const std::string line = obs::FormatLogLine(
      obs::LogLevel::kWarn, "weird \"message\"",
      {obs::LogField{"path", std::string("a\\b\"c\nd")}});
  EXPECT_NE(line.find("msg=\"weird \\\"message\\\"\""), std::string::npos);
  EXPECT_NE(line.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(LogTest, MacroSkipsArgumentEvaluationWhenDisabled) {
  ScopedLogCapture capture;
  obs::SetLogLevel(obs::LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("value");
  };
  INVARNETX_OBS_LOG(obs::LogLevel::kDebug, "msg", {{"k", expensive()}});
  EXPECT_EQ(evaluations, 0);
  INVARNETX_OBS_LOG(obs::LogLevel::kError, "msg", {{"k", expensive()}});
  EXPECT_EQ(evaluations, 1);
}

TEST(MetricsTest, CounterConcurrentIncrements) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(MetricsTest, GaugeSetAndConcurrentAdd) {
  obs::Gauge gauge;
  gauge.Set(5.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 1000; ++i) gauge.Add(0.5);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0 + 4 * 1000 * 0.5);
}

TEST(MetricsTest, HistogramPercentiles) {
  obs::Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 0.0);

  // 100 samples in a known ascending pattern: 1ms, 2ms, ..., 100ms.
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_NEAR(histogram.sum(), 5.050, 1e-9);
  // Percentiles are exact to within one exponential bucket: the bucket
  // holding the true quantile has bounds within a factor of two of it.
  const double p50 = histogram.Percentile(0.5);
  EXPECT_GE(p50, 0.025);
  EXPECT_LE(p50, 0.105);
  const double p99 = histogram.Percentile(0.99);
  EXPECT_GE(p99, 0.05);
  EXPECT_LE(p99, 0.21);
  EXPECT_LE(histogram.Percentile(0.5), histogram.Percentile(0.95));
  EXPECT_LE(histogram.Percentile(0.95), histogram.Percentile(0.99));

  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
}

TEST(MetricsTest, HistogramClampsNegativeAndOverflow) {
  obs::Histogram histogram;
  histogram.Record(-1.0);  // clamps to 0, still counted
  histogram.Record(1e12);  // overflow bucket
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_GT(histogram.Percentile(0.99), 0.0);
}

TEST(MetricsTest, RegistryHandlesAreIdempotent) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("test.counter");
  obs::Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = registry.GetGauge("test.gauge");
  obs::Gauge& g2 = registry.GetGauge("test.gauge");
  EXPECT_EQ(&g1, &g2);
  EXPECT_TRUE(registry.HasGauge("test.gauge"));
  EXPECT_FALSE(registry.HasGauge("test.other"));

  a.Increment(3);
  const obs::MetricsRegistry::Snapshot snapshot = registry.Snap();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters.at("test.counter"), 3u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
}

TEST(MetricsTest, RenderTextAndJson) {
  obs::MetricsRegistry registry;
  registry.GetCounter("pipeline.train_calls").Increment(2);
  registry.GetGauge("threadpool.workers").Set(4.0);
  registry.GetHistogram("span.detect").Record(0.005);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("counter pipeline.train_calls 2"), std::string::npos);
  EXPECT_NE(text.find("gauge threadpool.workers 4"), std::string::npos);
  EXPECT_NE(text.find("histogram span.detect count=1"), std::string::npos);

  const std::string json = registry.RenderJson();
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"pipeline.train_calls\":2"), std::string::npos);

  registry.ResetAll();
  EXPECT_EQ(registry.Snap().counters.at("pipeline.train_calls"), 0u);
}

TEST(SpanTest, RecordsHistogramAlways) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  const uint64_t before =
      registry.GetHistogram("span.obs_test_stage").count();
  {
    obs::Span span("obs_test_stage");
  }
  EXPECT_EQ(registry.GetHistogram("span.obs_test_stage").count(), before + 1);
}

TEST(SpanTest, EndIsIdempotentAndFreezesDuration) {
  obs::Span span("obs_test_end");
  span.End();
  const double first = span.Seconds();
  span.End();
  EXPECT_DOUBLE_EQ(span.Seconds(), first);
}

TEST(SpanTest, RecorderCapturesEventsOnlyWhenEnabled) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Shared();
  recorder.SetEnabled(false);
  recorder.Clear();
  {
    obs::Span span("obs_test_disabled");
  }
  EXPECT_EQ(recorder.NumEvents(), 0u);

  recorder.SetEnabled(true);
  {
    obs::Span span("obs_test_enabled", {{"context", "wordcount@10.0.0.2"}});
  }
  recorder.SetEnabled(false);
  const std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "obs_test_enabled");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "context");
  recorder.Clear();
}

TEST(SpanTest, ChromeTraceRoundTrip) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Shared();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    obs::Span outer("outer", {{"k", "v with \"quotes\""}});
    obs::Span inner("inner");
  }
  recorder.SetEnabled(false);

  const std::string json = recorder.RenderChromeTrace();
  size_t num_events = 0;
  ASSERT_TRUE(obs::ValidateChromeTrace(json, &num_events).ok()) << json;
  EXPECT_EQ(num_events, 2u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  recorder.Clear();
}

TEST(SpanTest, WriteChromeTraceGoldenFile) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Shared();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    obs::Span span("golden_stage", {{"ticks", 60}});
  }
  recorder.SetEnabled(false);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "invarnetx_obs_golden.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path.string()).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  size_t num_events = 0;
  ASSERT_TRUE(obs::ValidateChromeTrace(buffer.str(), &num_events).ok());
  EXPECT_EQ(num_events, 1u);
  EXPECT_NE(buffer.str().find("golden_stage"), std::string::npos);
  std::filesystem::remove(path);
  recorder.Clear();
}

TEST(SpanTest, ValidatorRejectsMalformedDocuments) {
  size_t num_events = 0;
  EXPECT_FALSE(obs::ValidateChromeTrace("", &num_events).ok());
  EXPECT_FALSE(obs::ValidateChromeTrace("{", &num_events).ok());
  EXPECT_FALSE(obs::ValidateChromeTrace("[]", &num_events).ok());
  EXPECT_FALSE(
      obs::ValidateChromeTrace("{\"traceEvents\":{}}", &num_events).ok());
  EXPECT_FALSE(obs::ValidateJson("{\"a\":1,}").ok());
  EXPECT_TRUE(obs::ValidateJson("{\"a\":[1,2,{\"b\":null}]}").ok());
  // RFC 8259: a control character inside a string must be escaped.
  EXPECT_FALSE(obs::ValidateJson("{\"a\":\"x\x01y\"}").ok());
  EXPECT_TRUE(obs::ValidateJson("{\"a\":\"x\\u0001y\"}").ok());
}

TEST(CacheMetricsTest, FlushAndEvictionCounters) {
  // One-entry shards: any second insert landing in an occupied shard flushes
  // it. 64 distinct keys over 16 shards guarantee collisions by pigeonhole.
  core::AssociationScoreCache cache(1);
  std::vector<double> base{1.0, 2.0, 3.0, 4.0};
  for (int i = 0; i < 64; ++i) {
    std::vector<double> y = base;
    y[0] = static_cast<double>(i);
    const core::PairScoreKey key = core::HashSeriesPair("mic", base, y);
    cache.Lookup(key);
    cache.Insert(key, 0.5);
  }
  EXPECT_EQ(cache.misses(), 64u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cache.flushes(), 0u);
  EXPECT_GT(cache.evicted(), 0u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.0);

  // A re-lookup of the last key hits (its shard was not flushed after it).
  std::vector<double> y = base;
  y[0] = 63.0;
  const core::PairScoreKey key = core::HashSeriesPair("mic", base, y);
  EXPECT_TRUE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_GT(cache.HitRate(), 0.0);
}

TEST(ThreadPoolMetricsTest, SharedPoolReportsTasksAndSingleWorkerGauge) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  const uint64_t before =
      registry.GetCounter("threadpool.tasks_executed").value();

  // Force pool participation even on single-core machines.
  std::atomic<int> sum{0};
  ASSERT_TRUE(ParallelFor(64, 4, [&sum](size_t i) -> Status {
                sum.fetch_add(static_cast<int>(i));
                return Status::Ok();
              }).ok());
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  // Runner tasks report their metrics after the caller's ParallelFor has
  // already returned (the caller can drain every index itself); give the
  // workers a bounded moment to finish accounting.
  obs::Counter& tasks = registry.GetCounter("threadpool.tasks_executed");
  for (int i = 0; i < 5000 && tasks.value() <= before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(tasks.value(), before);

  // Growing the pool repeatedly must update the one workers gauge, not
  // register duplicates.
  ThreadPool::Shared().EnsureSize(2);
  ThreadPool::Shared().EnsureSize(3);
  EXPECT_TRUE(registry.HasGauge("threadpool.workers"));
  EXPECT_FALSE(registry.HasGauge("threadpool.workers.1"));
  EXPECT_GE(registry.GetGauge("threadpool.workers").value(), 3.0);
}

// ------------------------------------------------- labeled series --------

TEST(MetricsTest, SeriesKeySortsLabelKeysAndEscapesValues) {
  const obs::MetricLabels labels = {{"z", "quote\"q"},
                                    {"a", "back\\b"},
                                    {"m", "line\nn"}};
  EXPECT_EQ(obs::MetricsRegistry::SeriesKey("serve.x", labels),
            "serve.x{a=\"back\\\\b\",m=\"line\\nn\",z=\"quote\\\"q\"}");
  // No labels: the key is just the family name.
  EXPECT_EQ(obs::MetricsRegistry::SeriesKey("serve.x", {}), "serve.x");
}

TEST(MetricsTest, LabeledHandlesAreIdempotentAcrossKeyOrder) {
  obs::MetricsRegistry registry;
  obs::Counter& a =
      registry.GetCounter("serve.shard_samples", {{"shard", "3"}, {"w", "x"}});
  // Same labels in a different order name the same series.
  obs::Counter& b =
      registry.GetCounter("serve.shard_samples", {{"w", "x"}, {"shard", "3"}});
  EXPECT_EQ(&a, &b);
  // A different label value is its own series under the same family.
  obs::Counter& other =
      registry.GetCounter("serve.shard_samples", {{"shard", "4"}, {"w", "x"}});
  EXPECT_NE(&a, &other);
  // The unlabeled series is distinct from every labeled one.
  obs::Counter& bare = registry.GetCounter("serve.shard_samples");
  EXPECT_NE(&bare, &a);

  a.Increment(2);
  other.Increment(5);
  const auto snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("serve.shard_samples{shard=\"3\",w=\"x\"}"), 2u);
  EXPECT_EQ(snap.counters.at("serve.shard_samples{shard=\"4\",w=\"x\"}"), 5u);
  EXPECT_EQ(snap.counters.at("serve.shard_samples"), 0u);
}

// --------------------------------------------- OpenMetrics exposition ----

TEST(MetricsTest, OpenMetricsExpositionIsValidAndWellFormed) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve.ticks").Increment(3);
  registry.GetCounter("serve.shard_samples", {{"shard", "0"}}).Increment(7);
  registry.GetCounter("serve.shard_samples", {{"shard", "1"}}).Increment(9);
  registry.GetGauge("serve.active_monitors").Set(2.5);
  obs::Histogram& hist = registry.GetHistogram("serve.ingest_seconds");
  hist.Record(0.001);
  hist.Record(0.002);
  hist.Record(1e12);  // lands in the overflow bucket; only +Inf counts it

  const std::string text = registry.RenderOpenMetrics();
  size_t samples = 0;
  const Status valid = obs::ValidateOpenMetrics(text, &samples);
  ASSERT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;
  EXPECT_GT(samples, 0u);

  // Counters gain `_total`, dots become underscores, and labels survive.
  EXPECT_NE(text.find("# TYPE serve_ticks_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_ticks_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("serve_shard_samples_total{shard=\"0\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_shard_samples_total{shard=\"1\"} 9\n"),
            std::string::npos);
  // One TYPE line per family even with several labeled series.
  const std::string type_line = "# TYPE serve_shard_samples_total counter\n";
  const size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);

  EXPECT_NE(text.find("# TYPE serve_active_monitors gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_active_monitors 2.5\n"), std::string::npos);

  // Histograms expand to cumulative buckets + _sum + _count, and +Inf
  // carries the overflow sample the finite buckets cannot.
  EXPECT_NE(text.find("# TYPE serve_ingest_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_ingest_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_ingest_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("serve_ingest_seconds_sum "), std::string::npos);

  // Rendering increments the registry's own export counter, so the scrape
  // observes itself.
  EXPECT_NE(text.find("obs_export_total 1\n"), std::string::npos);
  // The document terminates with the OpenMetrics EOF marker.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(MetricsTest, OpenMetricsValidatorRejectsCorruptedDocuments) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.b").Increment();
  registry.GetHistogram("lat.s").Record(0.5);
  const std::string good = registry.RenderOpenMetrics();
  size_t n = 0;
  ASSERT_TRUE(obs::ValidateOpenMetrics(good, &n).ok());

  // Missing terminal # EOF.
  EXPECT_FALSE(
      obs::ValidateOpenMetrics(good.substr(0, good.rfind("# EOF")), &n).ok());
  // Content after # EOF.
  EXPECT_FALSE(obs::ValidateOpenMetrics(good + "late 1\n", &n).ok());
  // Duplicate series line.
  std::string dup = good;
  dup.insert(dup.rfind("# EOF"), "a_b_total 1\n");
  EXPECT_FALSE(obs::ValidateOpenMetrics(dup, &n).ok());
  // Sample with no # TYPE for its family.
  EXPECT_FALSE(obs::ValidateOpenMetrics("mystery 1\n# EOF\n", &n).ok());
  // Counter family must carry the _total suffix.
  EXPECT_FALSE(
      obs::ValidateOpenMetrics("# TYPE foo counter\nfoo 1\n# EOF\n", &n)
          .ok());
  // Histogram buckets must be cumulative and must include le="+Inf".
  EXPECT_FALSE(obs::ValidateOpenMetrics(
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"0.1\"} 5\n"
                   "h_bucket{le=\"+Inf\"} 3\n"
                   "h_sum 1.0\nh_count 3\n# EOF\n",
                   &n)
                   .ok());
  EXPECT_FALSE(obs::ValidateOpenMetrics(
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"0.1\"} 2\n"
                   "h_sum 1.0\nh_count 2\n# EOF\n",
                   &n)
                   .ok());
  // Malformed label block.
  EXPECT_FALSE(obs::ValidateOpenMetrics(
                   "# TYPE x_total counter\nx_total{shard=3} 1\n# EOF\n", &n)
                   .ok());
}

// ------------------------------------------------------ event journal ----

TEST(JournalTest, BoundedRingEvictsOldestAndSequenceSurvives) {
  obs::EventJournal journal(4);
  EXPECT_EQ(journal.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    journal.Record(obs::EventKind::kAlarm, "event " + std::to_string(i),
                   {{"i", i}});
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.evicted(), 6u);
  EXPECT_EQ(journal.next_seq(), 10u);

  const std::vector<obs::Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and sequence numbers survive eviction untouched.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, 9u);
  EXPECT_EQ(events.back().message, "event 9");

  const std::vector<obs::Event> tail = journal.Snapshot(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().seq, 8u);
  EXPECT_EQ(tail.back().seq, 9u);

  journal.Reset();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.evicted(), 0u);
  EXPECT_TRUE(journal.Snapshot().empty());
}

TEST(JournalTest, RenderTextAndJsonRoundTrip) {
  obs::EventJournal journal(8);
  journal.Record(obs::EventKind::kEpochPublish, "published \"v2\"",
                 {obs::LogField("context", "wordcount@10.0.0.2"),
                  obs::LogField("epoch", 3)});
  journal.Record(obs::EventKind::kAlarmStorm, "alarm storm started",
                 {obs::LogField("alarms_in_window", 9)});
  const std::vector<obs::Event> events = journal.Snapshot();

  const std::string text = obs::RenderEventsText(events);
  EXPECT_NE(text.find("kind=epoch_publish"), std::string::npos);
  EXPECT_NE(text.find("msg=\"published \\\"v2\\\"\""), std::string::npos);
  EXPECT_NE(text.find("context=\"wordcount@10.0.0.2\""), std::string::npos);
  EXPECT_NE(text.find("epoch=3"), std::string::npos);
  EXPECT_NE(text.find("kind=alarm_storm"), std::string::npos);

  const std::string json = obs::RenderEventsJson(events);
  ASSERT_TRUE(obs::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"kind\": \"epoch_publish\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\": 3"), std::string::npos);
}

TEST(JournalTest, RecordMirrorsToDebugLog) {
  ScopedLogCapture capture;
  obs::SetLogLevel(obs::LogLevel::kDebug);
  obs::EventJournal journal(4);
  journal.Record(obs::EventKind::kDiagnosis, "diagnosis done");
  bool mirrored = false;
  for (const std::string& line : capture.lines()) {
    if (line.find("diagnosis done") != std::string::npos &&
        line.find("event=\"diagnosis\"") != std::string::npos) {
      mirrored = true;
    }
  }
  EXPECT_TRUE(mirrored);
}

// -------------------------------------------------- slow-span sampler ----

TEST(SpanTest, SlowSpanSamplerKeepsSlowestPerStage) {
  constexpr uint64_t kKeep = obs::SlowSpanSampler::kPerStage;
  constexpr uint64_t kOffered = kKeep + 3;  // coprime with the stride 7
  obs::SlowSpanSampler sampler;
  // Durations 1..kOffered, offered out of order.
  for (uint64_t i = 0; i < kOffered; ++i) {
    obs::TraceEvent event;
    event.name = "detect";
    event.dur_us = i * 7 % kOffered + 1;
    sampler.Offer(event);
  }
  obs::TraceEvent other;
  other.name = "diagnose";
  other.dur_us = 100;
  other.args = {{"context", "wordcount@10.0.0.2"}};
  sampler.Offer(other);

  EXPECT_EQ(sampler.offered(), kOffered + 1);
  const std::vector<obs::TraceEvent> kept = sampler.Snapshot();
  // The kKeep slowest detect spans plus the lone diagnose span, grouped by
  // stage name in sorted order, slowest first within a stage.
  ASSERT_EQ(kept.size(), kKeep + 1);
  for (uint64_t r = 0; r < kKeep; ++r) {
    EXPECT_EQ(kept[r].name, "detect");
    EXPECT_EQ(kept[r].dur_us, kOffered - r);
  }
  EXPECT_EQ(kept[kKeep].name, "diagnose");

  const std::string text = sampler.RenderText();
  EXPECT_NE(text.find("detect"), std::string::npos);
  EXPECT_NE(text.find("diagnose"), std::string::npos);
  EXPECT_NE(text.find("wordcount@10.0.0.2"), std::string::npos);

  sampler.Clear();
  EXPECT_EQ(sampler.offered(), 0u);
  EXPECT_TRUE(sampler.Snapshot().empty());
}

// Once a stage is full, keeping a slower span reuses the evicted slot's
// buffers: a long tick must not allocate in the sampler.
TEST(SpanTest, FullStageKeepsASlowerSpanWithoutAllocating) {
  constexpr size_t kKeep = obs::SlowSpanSampler::kPerStage;
  obs::SlowSpanSampler sampler;
  obs::TraceEvent event;
  event.name = "a_stage_name_past_the_small_string_buffer";
  event.args = {{"samples", "2000"}};
  // Fills the stage with durations 10, 20, ..., 10 * kKeep.
  for (uint64_t dur = 10; dur <= 10 * kKeep; dur += 10) {
    event.dur_us = dur;
    sampler.Offer(event);
  }
  event.dur_us = 15;
  const uint64_t before = testing_alloc::HeapAllocations();
  sampler.Offer(event);
  EXPECT_EQ(testing_alloc::HeapAllocations() - before, 0u);

  const std::vector<obs::TraceEvent> kept = sampler.Snapshot();
  ASSERT_EQ(kept.size(), kKeep);
  EXPECT_EQ(kept[0].dur_us, 10 * kKeep);
  EXPECT_EQ(kept[kKeep - 2].dur_us, 20u);
  EXPECT_EQ(kept[kKeep - 1].dur_us, 15u);
  EXPECT_EQ(kept[kKeep - 1].name, event.name);
  EXPECT_EQ(kept[kKeep - 1].args, event.args);
}

TEST(SpanTest, EndedSpansFeedTheSharedSampler) {
  const uint64_t before = obs::SlowSpanSampler::Shared().offered();
  {
    obs::Span span("sampler_feed_test", {{"k", "v"}});
  }
  EXPECT_GT(obs::SlowSpanSampler::Shared().offered(), before);
}

}  // namespace
}  // namespace invarnetx
