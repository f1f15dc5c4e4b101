// Tests for the serving layer: the MonitorFleet (batched ingestion, bounded
// windows, alarm-triggered asynchronous diagnosis, retrain safety) and the
// deterministic fleet replay driver.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/scenario.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/anomaly.h"
#include "core/evaluate.h"
#include "obs/http.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/replay.h"
#include "serve/statusz.h"

// Counting operator new: steady-state ingest must not allocate per sample.
#include "alloc_counter.h"

namespace invarnetx {
namespace {

using testing_alloc::HeapAllocations;

using core::InvarNetX;
using core::OperationContext;
using serve::FleetConfig;
using serve::FleetDiagnosis;
using serve::MonitorFleet;
using serve::MonitorHandle;
using serve::TickSample;
using serve::TickSummary;
using workload::WorkloadType;

OperationContext Context(int node) {
  return OperationContext{WorkloadType::kWordCount,
                          "10.0.0." + std::to_string(node + 1)};
}

// One GET over a fresh loopback connection, response discarded; returns
// whether the round trip completed. The full-protocol assertions live in
// http_test - here a scraper only needs to generate real endpoint traffic.
bool ScrapeOverLoopback(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return false;
  }
  char buffer[4096];
  while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
  }
  ::close(fd);
  return true;
}

// One handle-stamped sample for `node` at tick `t` of the trace.
TickSample SampleAt(const telemetry::RunTrace& trace, int node,
                    MonitorHandle handle, size_t t) {
  const telemetry::NodeTrace& series = trace.nodes[static_cast<size_t>(node)];
  TickSample sample;
  sample.monitor = handle;
  sample.cpi = series.cpi[t];
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    sample.metrics[static_cast<size_t>(m)] =
        series.metrics[static_cast<size_t>(m)][t];
  }
  return sample;
}

// One trained pipeline shared by the fleet tests: contexts for slaves 1 and
// 2, with the cpu-hog signature taught to slave 1 (the fault's victim).
class MonitorFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new InvarNetX();
    auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 8, 42);
    ASSERT_TRUE(normal.ok());
    for (int node = 1; node <= 2; ++node) {
      ASSERT_TRUE(pipeline_
                      ->TrainContext(Context(node), normal.value(),
                                     static_cast<size_t>(node))
                      .ok());
    }
    for (uint64_t rep = 0; rep < 2; ++rep) {
      auto run = core::SimulateFaultRun(WorkloadType::kWordCount,
                                        faults::FaultType::kCpuHog, 900 + rep);
      ASSERT_TRUE(run.ok());
      ASSERT_TRUE(
          pipeline_->AddSignature(Context(1), "cpu-hog", run.value(), 1)
              .ok());
    }
  }
  static void TearDownTestSuite() { delete pipeline_; }

  // Streams every tick of the trace into the armed monitors of nodes 1 and
  // 2, stamped with the handles their StartJob assigned.
  static void Stream(MonitorFleet* fleet, const telemetry::RunTrace& trace) {
    const MonitorHandle first = fleet->Resolve(Context(1));
    const MonitorHandle second = fleet->Resolve(Context(2));
    for (size_t t = 0; t < trace.nodes[1].cpi.size(); ++t) {
      Result<TickSummary> summary = fleet->IngestTick(
          {SampleAt(trace, 1, first, t), SampleAt(trace, 2, second, t)});
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    }
  }

  static InvarNetX* pipeline_;
};

InvarNetX* MonitorFleetTest::pipeline_ = nullptr;

TEST_F(MonitorFleetTest, LifecycleAlarmsAndAsyncDiagnosis) {
  MonitorFleet fleet(pipeline_);
  EXPECT_EQ(fleet.active_monitors(), 0u);
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());
  EXPECT_EQ(fleet.active_monitors(), 2u);

  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());
  Stream(&fleet, faulty.value());
  fleet.WaitForDiagnoses();
  EXPECT_EQ(fleet.pending_diagnoses(), 0u);

  // The fault targets node 1; its monitor must alarm and the alarm must
  // have produced exactly one completed diagnosis naming the right cause.
  ASSERT_TRUE(fleet.View(Context(1)).has_value());
  EXPECT_TRUE(fleet.View(Context(1))->alarm_active);
  std::vector<FleetDiagnosis> diagnoses = fleet.TakeDiagnoses();
  bool victim_diagnosed = false;
  for (const FleetDiagnosis& d : diagnoses) {
    if (!(d.context == Context(1))) continue;
    victim_diagnosed = true;
    ASSERT_TRUE(d.status.ok()) << d.status.ToString();
    // The diagnosis ran against the epoch pinned at StartJob: one train
    // publish plus two AddSignature publishes in the fixture = epoch 3.
    EXPECT_EQ(d.epoch, 3u);
    EXPECT_TRUE(d.report.anomaly_detected);
    EXPECT_GE(d.first_alarm_tick, 8);  // fault starts at tick 8
    EXPECT_EQ(d.report.first_alarm_tick, d.first_alarm_tick);
    ASSERT_FALSE(d.report.causes.empty());
    EXPECT_EQ(d.report.causes[0].problem, "cpu-hog");
  }
  EXPECT_TRUE(victim_diagnosed);
  // TakeDiagnoses drains.
  EXPECT_TRUE(fleet.TakeDiagnoses().empty());

  // A mid-job re-arm clears the window, the alarm latch and the alarm tick,
  // and leaves the monitor armed.
  const size_t latched = fleet.alarms_active();
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  const std::optional<serve::MonitorView> rearmed = fleet.View(Context(1));
  EXPECT_TRUE(rearmed->job_active);
  EXPECT_FALSE(rearmed->alarm_active);
  EXPECT_EQ(rearmed->first_alarm_tick, -1);
  EXPECT_EQ(rearmed->ticks_observed, 0);
  EXPECT_EQ(rearmed->window_ticks, 0);
  EXPECT_EQ(fleet.alarms_active(), latched - 1);

  // A clean job after the alarmed one stays quiet: nothing of the previous
  // job's alarm leaks into it.
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());
  auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 780);
  ASSERT_TRUE(clean.ok());
  Stream(&fleet, clean.value()[0]);
  fleet.WaitForDiagnoses();
  for (int node = 1; node <= 2; ++node) {
    const std::optional<serve::MonitorView> view = fleet.View(Context(node));
    EXPECT_FALSE(view->alarm_active) << "node " << node;
    EXPECT_EQ(view->first_alarm_tick, -1) << "node " << node;
    EXPECT_GT(view->ticks_observed, 20) << "node " << node;
  }
  EXPECT_EQ(fleet.alarms_active(), 0u);
  EXPECT_TRUE(fleet.TakeDiagnoses().empty());
}

TEST_F(MonitorFleetTest, IngestRejectsUnknownInactiveAndDuplicate) {
  MonitorFleet fleet(pipeline_);
  auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 777);
  ASSERT_TRUE(clean.ok());

  // No StartJob yet: handle 0 names no monitor, so the batch is rejected
  // and nothing is ingested.
  EXPECT_FALSE(fleet.IngestTick({SampleAt(clean.value()[0], 1, 0, 0)}).ok());
  Result<MonitorHandle> handle = fleet.StartJob(Context(1));
  ASSERT_TRUE(handle.ok());
  const TickSample sample = SampleAt(clean.value()[0], 1, handle.value(), 0);
  // Duplicate monitor in one batch.
  EXPECT_FALSE(fleet.IngestTick({sample, sample}).ok());
  EXPECT_EQ(fleet.View(Context(1))->ticks_observed, 0);
  // A well-formed batch then lands.
  ASSERT_TRUE(fleet.IngestTick({sample}).ok());
  EXPECT_EQ(fleet.View(Context(1))->ticks_observed, 1);
  // Untrained contexts cannot be armed at all.
  EXPECT_FALSE(
      fleet.StartJob(OperationContext{WorkloadType::kSort, "10.0.0.2"}).ok());
}

TEST_F(MonitorFleetTest, SteadyStateMemoryBoundedByMonitorsTimesWindow) {
  FleetConfig config;
  config.window_capacity = 16;
  MonitorFleet fleet(pipeline_, config);
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());

  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());
  Stream(&fleet, faulty.value());
  fleet.WaitForDiagnoses();

  const int total = static_cast<int>(faulty.value().nodes[1].cpi.size());
  ASSERT_GT(total, 16);  // the run must actually overflow the window
  for (int node = 1; node <= 2; ++node) {
    const std::optional<serve::MonitorView> monitor =
        fleet.View(Context(node));
    ASSERT_TRUE(monitor.has_value());
    // Absolute tick accounting survives eviction...
    EXPECT_EQ(monitor->ticks_observed, total);
    // ...while retention stays pinned at the configured window.
    EXPECT_EQ(monitor->window_ticks, 16);
    EXPECT_EQ(monitor->window_capacity, 16u);
    EXPECT_EQ(monitor->window_start_tick, static_cast<int64_t>(total - 16));
  }
  // The victim's first alarm pre-dates the window's current left edge, yet
  // is still reported in absolute job ticks.
  const std::optional<serve::MonitorView> victim = fleet.View(Context(1));
  ASSERT_TRUE(victim->alarm_active);
  EXPECT_LT(victim->first_alarm_tick,
            static_cast<int>(victim->window_start_tick));
  EXPECT_GE(victim->first_alarm_tick, 8);
}

TEST_F(MonitorFleetTest, AutoShardCountKeepsOneSlabBlockPerShard) {
  // A shard's first monitor allocates a whole 16-monitor window block, so
  // an auto shard count never exceeds one shard per expected block; an
  // explicit count or an unknown fleet size is left alone.
  const size_t hardware = static_cast<size_t>(EffectiveThreadCount(0));
  for (size_t expected : {1, 2, 16, 17, 40, 100000}) {
    FleetConfig config;
    config.expected_monitors = expected;
    MonitorFleet fleet(pipeline_, config);
    EXPECT_EQ(static_cast<size_t>(fleet.shard_count()),
              std::min(hardware, (expected + 15) / 16))
        << "expected_monitors=" << expected;
  }
  MonitorFleet unknown(pipeline_, FleetConfig{});
  EXPECT_EQ(static_cast<size_t>(unknown.shard_count()), hardware);
  FleetConfig explicit_count;
  explicit_count.shards = 3;
  explicit_count.expected_monitors = 2;
  MonitorFleet fixed(pipeline_, explicit_count);
  EXPECT_EQ(fixed.shard_count(), 3);
}

TEST_F(MonitorFleetTest, DiagnoseOnAlarmCanBeDisabled) {
  FleetConfig config;
  config.diagnose_on_alarm = false;
  MonitorFleet fleet(pipeline_, config);
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());
  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());
  Stream(&fleet, faulty.value());
  fleet.WaitForDiagnoses();
  EXPECT_TRUE(fleet.View(Context(1))->alarm_active);
  EXPECT_TRUE(fleet.TakeDiagnoses().empty());
}

TEST_F(MonitorFleetTest, SerialAndParallelIngestAgree) {
  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 889);
  ASSERT_TRUE(faulty.ok());
  auto run_with = [&](int threads) {
    FleetConfig config;
    config.threads = threads;
    MonitorFleet fleet(pipeline_, config);
    EXPECT_TRUE(fleet.StartJob(Context(1)).ok());
    EXPECT_TRUE(fleet.StartJob(Context(2)).ok());
    Stream(&fleet, faulty.value());
    fleet.WaitForDiagnoses();
    std::vector<FleetDiagnosis> diagnoses = fleet.TakeDiagnoses();
    std::string rendered;
    for (const FleetDiagnosis& d : diagnoses) {
      rendered += d.context.ToString() + ":" +
                  std::to_string(d.first_alarm_tick) + ":" +
                  std::to_string(d.report.num_violations);
      if (!d.report.causes.empty()) {
        rendered += ":" + d.report.causes[0].problem;
      }
      rendered += "\n";
    }
    return rendered;
  };
  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST_F(MonitorFleetTest, RetrainWhileActivePinsTheOldEpoch) {
  // A private pipeline: this test retrains it mid-flight.
  InvarNetX pipeline;
  auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 6, 43);
  ASSERT_TRUE(normal.ok());
  ASSERT_TRUE(pipeline.TrainContext(Context(1), normal.value(), 1).ok());

  MonitorFleet fleet(&pipeline);
  Result<MonitorHandle> handle = fleet.StartJob(Context(1));
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(fleet.View(Context(1))->epoch, 1u);

  // Retrain under the fleet's feet: the published epoch advances, but the
  // armed monitor keeps the snapshot it pinned at StartJob.
  ASSERT_TRUE(pipeline.TrainContext(Context(1), normal.value(), 1).ok());
  EXPECT_EQ(pipeline.GetContext(Context(1)).value()->epoch, 2u);
  EXPECT_EQ(fleet.View(Context(1))->epoch, 1u);

  // The job keeps detecting and diagnosing against the pinned epoch.
  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 891);
  ASSERT_TRUE(faulty.ok());
  for (size_t t = 0; t < faulty.value().nodes[1].cpi.size(); ++t) {
    ASSERT_TRUE(
        fleet.IngestTick({SampleAt(faulty.value(), 1, handle.value(), t)})
            .ok());
  }
  EXPECT_EQ(fleet.View(Context(1))->epoch, 1u);
  fleet.WaitForDiagnoses();
  const std::vector<FleetDiagnosis> diagnoses = fleet.TakeDiagnoses();
  ASSERT_EQ(diagnoses.size(), 1u);
  ASSERT_TRUE(diagnoses[0].status.ok()) << diagnoses[0].status.ToString();
  EXPECT_EQ(diagnoses[0].epoch, 1u);
  EXPECT_TRUE(diagnoses[0].report.anomaly_detected);
  // The next job picks up the fresh epoch.
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  EXPECT_EQ(fleet.View(Context(1))->epoch, 2u);
}

TEST_F(MonitorFleetTest, SnapshotReflectsIngestAlarmsAndWatchdogs) {
  obs::EventJournal::Shared().Reset();
  FleetConfig config;
  // One alarm in the window trips the storm detector; any nonzero ingest
  // latency beats a sub-nanosecond budget, so the watchdog trips too.
  config.storm_alarm_threshold = 1;
  config.slow_tick_budget_seconds = 1e-12;
  MonitorFleet fleet(pipeline_, config);
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());

  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());
  Stream(&fleet, faulty.value());
  fleet.WaitForDiagnoses();

  const uint64_t total =
      static_cast<uint64_t>(faulty.value().nodes[1].cpi.size());
  const serve::FleetStatus status = fleet.Snapshot();
  EXPECT_EQ(status.active_monitors, 2u);
  EXPECT_EQ(status.ticks_ingested, total);
  EXPECT_EQ(status.samples_ingested, 2 * total);
  EXPECT_GE(status.alarms_raised, 1u);
  EXPECT_EQ(status.alarms_active, fleet.alarms_active());
  EXPECT_EQ(status.pending_diagnoses, 0u);
  EXPECT_GE(status.diagnoses_completed, 1u);
  EXPECT_TRUE(status.slow_ticks_active);
  EXPECT_GT(status.ingest_p99_seconds, 0.0);
  EXPECT_EQ(status.monitors_total, 2u);
  ASSERT_EQ(status.monitors.size(), 2u);  // small fleet: full dump
  EXPECT_FALSE(status.monitors_listed_truncated);
  for (const serve::MonitorStatus& monitor : status.monitors) {
    EXPECT_TRUE(monitor.job_active);
    EXPECT_EQ(monitor.ticks_observed, static_cast<int>(total));
    EXPECT_GE(monitor.shard, 0);
    EXPECT_LT(monitor.shard, fleet.shard_count());
  }
  ASSERT_EQ(status.shards.size(),
            static_cast<size_t>(fleet.shard_count()));
  uint64_t shard_samples = 0;
  size_t shard_monitors = 0;
  for (const serve::ShardStatus& shard : status.shards) {
    shard_samples += shard.samples;
    shard_monitors += shard.monitors;
    EXPECT_EQ(shard.ring_rejects, 0u);
  }
  EXPECT_EQ(shard_samples, 2 * total);
  EXPECT_EQ(shard_monitors, 2u);

  // The watchdog trips and the storm detector's start (and, once the alarm
  // leaves the sliding window, its clear) all land in the journal.
  bool storm_started = false, storm_cleared = false, slow_tick = false;
  bool alarm_logged = false, diagnosis_logged = false;
  for (const obs::Event& event : obs::EventJournal::Shared().Snapshot()) {
    if (event.kind == obs::EventKind::kAlarmStorm) {
      if (event.message.find("started") != std::string::npos) {
        storm_started = true;
      }
      if (event.message.find("cleared") != std::string::npos) {
        storm_cleared = true;
      }
    }
    if (event.kind == obs::EventKind::kSlowTick) slow_tick = true;
    if (event.kind == obs::EventKind::kAlarm) alarm_logged = true;
    if (event.kind == obs::EventKind::kDiagnosis) diagnosis_logged = true;
  }
  EXPECT_TRUE(storm_started);
  EXPECT_TRUE(storm_cleared);
  EXPECT_TRUE(slow_tick);
  EXPECT_TRUE(alarm_logged);
  EXPECT_TRUE(diagnosis_logged);
}

TEST_F(MonitorFleetTest, OverflowIsCountedAndJournaledOncePerJob) {
  obs::EventJournal::Shared().Reset();
  FleetConfig config;
  config.window_capacity = 16;
  MonitorFleet fleet(pipeline_, config);
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());
  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());
  Stream(&fleet, faulty.value());
  fleet.WaitForDiagnoses();

  const uint64_t total =
      static_cast<uint64_t>(faulty.value().nodes[1].cpi.size());
  ASSERT_GT(total, 16u);
  const serve::FleetStatus status = fleet.Snapshot();
  // Every tick past the window overwrote history, on both monitors...
  EXPECT_EQ(status.window_overflows, 2 * (total - 16));
  // ...but each job journals its first overflow only once.
  size_t overflow_events = 0;
  for (const obs::Event& event : obs::EventJournal::Shared().Snapshot()) {
    if (event.kind == obs::EventKind::kRingOverflow) ++overflow_events;
  }
  EXPECT_EQ(overflow_events, 2u);
}

TEST_F(MonitorFleetTest, BackpressureRejectsDeterministicallyAndJournals) {
  obs::EventJournal::Shared().Reset();
  FleetConfig config;
  config.threads = 1;
  config.shards = 1;
  config.ring_capacity = 1;  // fixed capacity: real backpressure
  MonitorFleet fleet(pipeline_, config);
  obs::Counter& overflow_counter = obs::MetricsRegistry::Shared().GetCounter(
      "serve.ring_overflow", {{"shard", "0"}});
  const uint64_t counter_before = overflow_counter.value();

  const MonitorHandle first = fleet.StartJob(Context(1)).value();
  const MonitorHandle second = fleet.StartJob(Context(2)).value();
  auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 779);
  ASSERT_TRUE(clean.ok());
  constexpr int kTicks = 3;
  for (size_t t = 0; t < kTicks; ++t) {
    Result<TickSummary> summary =
        fleet.IngestTick({SampleAt(clean.value()[0], 1, first, t),
                          SampleAt(clean.value()[0], 2, second, t)});
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    // The ring holds one entry, so admission (decided by batch order, never
    // queue timing) accepts the first sample and rejects the second - the
    // same victim every tick.
    EXPECT_EQ(summary.value().samples, 1);
    EXPECT_EQ(summary.value().rejected, 1);
  }
  // The admitted monitor advanced; the rejected one never observed a tick.
  EXPECT_EQ(fleet.View(Context(1))->ticks_observed, kTicks);
  EXPECT_EQ(fleet.View(Context(2))->ticks_observed, 0);

  const serve::FleetStatus status = fleet.Snapshot();
  EXPECT_EQ(status.samples_ingested, static_cast<uint64_t>(kTicks));
  EXPECT_EQ(status.samples_rejected, static_cast<uint64_t>(kTicks));
  ASSERT_EQ(status.shards.size(), 1u);
  EXPECT_EQ(status.shards[0].ring_capacity, 1u);
  EXPECT_EQ(status.shards[0].ring_rejects, static_cast<uint64_t>(kTicks));
  EXPECT_EQ(overflow_counter.value() - counter_before,
            static_cast<uint64_t>(kTicks));

  // Backpressure journals once per shard per job era, not once per reject.
  size_t backpressure_events = 0;
  for (const obs::Event& event : obs::EventJournal::Shared().Snapshot()) {
    if (event.kind == obs::EventKind::kBackpressure) ++backpressure_events;
  }
  EXPECT_EQ(backpressure_events, 1u);
}

TEST_F(MonitorFleetTest, UnknownHandleIsANotFoundNamingIt) {
  MonitorFleet fleet(pipeline_);
  Result<MonitorHandle> handle = fleet.StartJob(Context(1));
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(fleet.Resolve(Context(1)), handle.value());
  auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 780);
  ASSERT_TRUE(clean.ok());
  const TickSample good = SampleAt(clean.value()[0], 1, handle.value(), 0);
  ASSERT_TRUE(fleet.IngestTick({good}).ok());
  EXPECT_EQ(fleet.View(handle.value())->ticks_observed, 1);
  EXPECT_EQ(fleet.View(handle.value())->handle, handle.value());

  // The handle is a sample's only name for its monitor: one the fleet
  // never assigned - an unstamped sample's kInvalidMonitor included -
  // rejects the whole batch with an error that names it.
  for (const MonitorHandle bad :
       {MonitorHandle{12345}, serve::kInvalidMonitor}) {
    const TickSample stray = SampleAt(clean.value()[0], 1, bad, 1);
    Result<TickSummary> rejected = fleet.IngestTick({good, stray});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
    EXPECT_NE(rejected.status().message().find(
                  "handle " + std::to_string(bad)),
              std::string::npos)
        << rejected.status().ToString();
    EXPECT_FALSE(fleet.View(bad).has_value());
  }
  EXPECT_EQ(fleet.View(handle.value())->ticks_observed, 1);
}

TEST_F(MonitorFleetTest, StatusCacheCapsRowsAtTopKInterestingMonitors) {
  FleetConfig config;
  config.status_top_k = 1;
  MonitorFleet fleet(pipeline_, config);
  ASSERT_TRUE(fleet.StartJob(Context(1)).ok());
  ASSERT_TRUE(fleet.StartJob(Context(2)).ok());

  // Quiet fleet with more monitors than top-k: no per-monitor rows at all
  // (nothing is interesting), flagged truncated.
  const serve::FleetStatus quiet = fleet.Snapshot();
  EXPECT_EQ(quiet.monitors_total, 2u);
  EXPECT_TRUE(quiet.monitors.empty());
  EXPECT_TRUE(quiet.monitors_listed_truncated);

  // After the fault the alarmed monitor is interesting and surfaces.
  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());
  Stream(&fleet, faulty.value());
  fleet.WaitForDiagnoses();
  const serve::FleetStatus alarmed = fleet.Snapshot();
  ASSERT_EQ(alarmed.monitors.size(), 1u);
  EXPECT_EQ(alarmed.monitors[0].context, Context(1).ToString());
  EXPECT_TRUE(alarmed.monitors[0].alarm_active);
  EXPECT_TRUE(alarmed.monitors_listed_truncated);
}

TEST_F(MonitorFleetTest, ResidualsAndAlarmTicksMatchAnomalyDetectorScan) {
  // The fleet and core::AnomalyDetector share one detection step; on the
  // same CPI stream they must agree on every residual bit and on the alarm
  // tick, for every shard/thread layout.
  auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 890);
  ASSERT_TRUE(faulty.ok());
  const telemetry::RunTrace& trace = faulty.value();
  for (int layout : {1, 2}) {
    FleetConfig config;
    config.threads = layout;
    config.shards = layout;
    config.diagnose_on_alarm = false;
    MonitorFleet fleet(pipeline_, config);
    const MonitorHandle first = fleet.StartJob(Context(1)).value();
    const MonitorHandle second = fleet.StartJob(Context(2)).value();
    std::vector<std::vector<double>> residuals(3);
    for (size_t t = 0; t < trace.nodes[1].cpi.size(); ++t) {
      ASSERT_TRUE(fleet
                      .IngestTick({SampleAt(trace, 1, first, t),
                                   SampleAt(trace, 2, second, t)})
                      .ok());
      for (int node = 1; node <= 2; ++node) {
        residuals[static_cast<size_t>(node)].push_back(
            fleet.View(Context(node))->last_residual);
      }
    }
    bool any_alarm = false;
    for (int node = 1; node <= 2; ++node) {
      const auto model = pipeline_->GetContext(Context(node)).value();
      core::AnomalyDetector detector(model->perf,
                                     pipeline_->config().threshold_rule,
                                     pipeline_->config().consecutive_required);
      const core::AnomalyScan scan =
          detector.Scan(trace.nodes[static_cast<size_t>(node)].cpi);
      const std::vector<double>& fleet_residuals =
          residuals[static_cast<size_t>(node)];
      ASSERT_EQ(fleet_residuals.size(), scan.residuals.size());
      for (size_t t = 0; t < scan.residuals.size(); ++t) {
        ASSERT_EQ(std::bit_cast<uint64_t>(fleet_residuals[t]),
                  std::bit_cast<uint64_t>(scan.residuals[t]))
            << "node " << node << " tick " << t;
      }
      EXPECT_EQ(fleet.View(Context(node))->first_alarm_tick,
                scan.first_alarm_tick)
          << "node " << node;
      any_alarm = any_alarm || scan.triggered();
    }
    EXPECT_TRUE(any_alarm);  // the comparison covered an alarm tick
  }
}

// A tick never waits for a pool worker: with every shared-pool worker
// blocked (say, each grinding a long diagnosis), the ingesting thread
// claims and drains the shard whose queued task cannot start, and returns.
// The test gives the tick 5 s before it releases the blockers, so a fleet
// that waits for its queued task fails instead of hanging.
TEST_F(MonitorFleetTest, IngestDoesNotWaitForBusyPoolWorkers) {
  FleetConfig config;
  config.threads = 2;
  config.shards = 2;
  config.diagnose_on_alarm = false;
  MonitorFleet fleet(pipeline_, config);
  const MonitorHandle first = fleet.StartJob(Context(1)).value();   // shard 0
  const MonitorHandle second = fleet.StartJob(Context(2)).value();  // shard 1
  auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 781);
  ASSERT_TRUE(clean.ok());
  const std::vector<TickSample> batch = {
      SampleAt(clean.value()[0], 1, first, 0),
      SampleAt(clean.value()[0], 2, second, 0)};

  // Blockers share their gate through a shared_ptr, so one still leaving
  // after the test returned touches nothing of its frame.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    int blocked = 0;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  ThreadPool& pool = ThreadPool::Shared();
  const int workers = pool.size();
  for (int w = 0; w < workers; ++w) {
    pool.Submit([gate] {
      std::unique_lock<std::mutex> lock(gate->mu);
      ++gate->blocked;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return gate->open; });
      --gate->blocked;
      gate->cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->blocked == workers; });
  }

  std::atomic<bool> returned{false};
  Result<TickSummary> summary = Status::Internal("IngestTick did not run");
  std::thread ingest([&] {
    summary = fleet.IngestTick(batch);
    returned.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_blocked = returned.load();
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  ingest.join();
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->blocked == 0; });
  }

  EXPECT_TRUE(returned_while_blocked)
      << "IngestTick waited for a blocked pool worker";
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().samples, 2);
  EXPECT_EQ(fleet.View(first)->ticks_observed, 1);
  EXPECT_EQ(fleet.View(second)->ticks_observed, 1);
}

// A pipeline trained once without operation contexts: every context maps
// to the one pooled model, so a fleet can arm thousands of monitors.
class PooledFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::InvarNetXConfig config;
    config.use_operation_context = false;
    pipeline_ = new InvarNetX(config);
    auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 4, 44);
    ASSERT_TRUE(normal.ok());
    ASSERT_TRUE(pipeline_->TrainContext(Context(1), normal.value(), 1).ok());
    auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 781);
    ASSERT_TRUE(clean.ok());
    clean_ = new telemetry::RunTrace(std::move(clean.value()[0]));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete clean_;
  }

  // Monitor i's sample at tick t: node 1 of the clean run, shifted by i so
  // neighbours differ, with the CPI scaled by `cpi_scale`.
  static TickSample Sample(MonitorFleet& fleet, int i, size_t t,
                           double cpi_scale = 1.0) {
    const size_t ticks = clean_->nodes[1].cpi.size();
    TickSample sample = SampleAt(*clean_, 1, fleet.Resolve(Context(i)),
                                 (t + static_cast<size_t>(i)) % ticks);
    sample.cpi *= cpi_scale;
    return sample;
  }

  // Feeds monitor i alternating CPI spikes and dips until its alarm
  // latches.
  static void LatchAlarm(MonitorFleet& fleet, int i) {
    for (size_t t = 0; t < 64 && !fleet.View(Context(i))->alarm_active; ++t) {
      ASSERT_TRUE(
          fleet.IngestTick({Sample(fleet, i, t, t % 2 == 0 ? 3.0 : 0.3)}).ok());
    }
    ASSERT_TRUE(fleet.View(Context(i))->alarm_active);
  }

  static InvarNetX* pipeline_;
  static telemetry::RunTrace* clean_;
};

InvarNetX* PooledFleetTest::pipeline_ = nullptr;
telemetry::RunTrace* PooledFleetTest::clean_ = nullptr;

TEST_F(PooledFleetTest, IngestTickAllocationsDoNotGrowWithBatchSize) {
  constexpr int kMonitors = 2000;
  FleetConfig config;
  config.threads = 2;
  config.shards = 2;
  config.window_capacity = 32;  // no overflow (or its journal) in this test
  config.expected_monitors = kMonitors;
  MonitorFleet fleet(pipeline_, config);
  for (int i = 0; i < kMonitors; ++i) {
    ASSERT_TRUE(fleet.StartJob(Context(i)).ok());
  }
  std::vector<TickSample> full;
  std::vector<TickSample> pair;
  auto fill = [&](size_t t) {
    full.clear();
    for (int i = 0; i < kMonitors; ++i) full.push_back(Sample(fleet, i, t));
    pair.assign(full.begin(), full.begin() + 2);  // one sample per shard
  };
  // Warm-up grows every per-tick scratch buffer to its steady size.
  size_t t = 0;
  for (; t < 2; ++t) {
    fill(t);
    ASSERT_TRUE(fleet.IngestTick(full).ok());
    ASSERT_TRUE(fleet.IngestTick(pair).ok());
  }
  // A tick's own allocations are a constant; the shared pool's task queue
  // adds one now and then, so compare the fewest over several ticks. One
  // allocation per sample would put the 2000-sample ticks thousands ahead.
  uint64_t full_allocations = UINT64_MAX;
  uint64_t pair_allocations = UINT64_MAX;
  for (int rep = 0; rep < 8; ++rep, ++t) {
    fill(t);
    uint64_t before = HeapAllocations();
    ASSERT_TRUE(fleet.IngestTick(full).ok());
    full_allocations = std::min(full_allocations, HeapAllocations() - before);
    before = HeapAllocations();
    ASSERT_TRUE(fleet.IngestTick(pair).ok());
    pair_allocations = std::min(pair_allocations, HeapAllocations() - before);
  }
  EXPECT_LE(full_allocations, pair_allocations)
      << "a 2000-sample tick allocated more than a 2-sample tick";
  EXPECT_EQ(fleet.alarms_active(), 0u);
}

// Alarm-triggered diagnoses run on the window the slot-major slab
// materializes; each must equal cause inference over the last
// window_capacity samples its monitor observed, oldest first - across slab
// blocks, wrapped windows, and monitors re-armed out of step with their
// block.
TEST_F(PooledFleetTest, DiagnosedWindowsEqualTheObservedSamples) {
  constexpr int kMonitors = 40;
  constexpr size_t kWindow = 12;
  FleetConfig config;
  config.threads = 2;
  config.shards = 2;
  config.window_capacity = kWindow;
  MonitorFleet fleet(pipeline_, config);
  for (int i = 0; i < kMonitors; ++i) {
    ASSERT_TRUE(fleet.StartJob(Context(i)).ok());
  }
  std::vector<std::vector<TickSample>> observed(kMonitors);
  for (size_t t = 0; t < 30; ++t) {
    if (t == 7) {
      for (int i : {10, 17}) {
        ASSERT_TRUE(fleet.StartJob(Context(i)).ok());
        observed[static_cast<size_t>(i)].clear();
      }
    }
    std::vector<TickSample> batch;
    for (int i = 0; i < kMonitors; ++i) {
      const bool spiking = i % 7 == 3 && t >= 14 + static_cast<size_t>(i % 4);
      batch.push_back(
          Sample(fleet, i, t, spiking ? (t % 2 == 0 ? 3.0 : 0.3) : 1.0));
      observed[static_cast<size_t>(i)].push_back(batch.back());
    }
    ASSERT_TRUE(fleet.IngestTick(batch).ok());
  }
  fleet.WaitForDiagnoses();
  const std::vector<FleetDiagnosis> diagnoses = fleet.TakeDiagnoses();
  ASSERT_GE(diagnoses.size(), 4u);
  const auto model = pipeline_->GetContext(Context(0)).value();
  for (const FleetDiagnosis& d : diagnoses) {
    ASSERT_TRUE(d.status.ok()) << d.status.ToString();
    const serve::MonitorHandle handle = fleet.Resolve(d.context);
    const std::vector<TickSample>& seen =
        observed[static_cast<size_t>(handle)];
    const size_t end = static_cast<size_t>(d.first_alarm_tick) + 1;
    ASSERT_LE(end, seen.size());
    telemetry::NodeTrace window;
    window.ip = d.context.node_ip;
    for (size_t k = end - std::min(end, kWindow); k < end; ++k) {
      window.cpi.push_back(seen[k].cpi);
      for (int m = 0; m < telemetry::kNumMetrics; ++m) {
        window.metrics[static_cast<size_t>(m)].push_back(
            seen[k].metrics[static_cast<size_t>(m)]);
      }
    }
    Result<core::DiagnosisReport> expected =
        pipeline_->InferCauseForModel(*model, window);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(d.report.violations, expected.value().violations)
        << d.context.ToString();
    ASSERT_EQ(d.report.deviations.size(), expected.value().deviations.size());
    for (size_t k = 0; k < d.report.deviations.size(); ++k) {
      ASSERT_EQ(std::bit_cast<uint64_t>(d.report.deviations[k]),
                std::bit_cast<uint64_t>(expected.value().deviations[k]))
          << d.context.ToString() << " pair " << k;
    }
  }
}

// The /statusz rows the ordered interesting-monitor index yields equal a
// full scan over every handle (alarm latched or window overflowed this job,
// first status_top_k in handle order), through random re-arms, alarms and
// overflows.
TEST_F(PooledFleetTest, StatusRowsMatchAFullScan) {
  constexpr int kMonitors = 40;
  FleetConfig config;
  config.status_top_k = 5;
  config.window_capacity = 8;
  config.diagnose_on_alarm = false;
  MonitorFleet fleet(pipeline_, config);
  for (int i = 0; i < kMonitors; ++i) {
    ASSERT_TRUE(fleet.StartJob(Context(i)).ok());
  }
  auto expect_rows_match_scan = [&](int step) {
    std::vector<serve::MonitorStatus> expected;
    for (int h = 0; h < kMonitors; ++h) {
      const serve::MonitorView view = *fleet.View(serve::MonitorHandle{h});
      const bool overflowed =
          view.ticks_observed > static_cast<int64_t>(view.window_capacity);
      if (!view.alarm_active && !overflowed) continue;
      if (expected.size() == config.status_top_k) break;
      serve::MonitorStatus row;
      row.context = view.context.ToString();
      row.shard = view.shard;
      row.job_active = view.job_active;
      row.alarm_active = view.alarm_active;
      row.epoch = view.epoch;
      row.first_alarm_tick = view.first_alarm_tick;
      row.ticks_observed = static_cast<int>(view.ticks_observed);
      row.window_ticks = view.window_ticks;
      expected.push_back(row);
    }
    const serve::FleetStatus status = fleet.Snapshot();
    ASSERT_EQ(status.monitors.size(), expected.size()) << "step " << step;
    for (size_t r = 0; r < expected.size(); ++r) {
      const serve::MonitorStatus& got = status.monitors[r];
      const serve::MonitorStatus& want = expected[r];
      EXPECT_EQ(got.context, want.context) << "step " << step;
      EXPECT_EQ(got.shard, want.shard);
      EXPECT_EQ(got.job_active, want.job_active);
      EXPECT_EQ(got.alarm_active, want.alarm_active);
      EXPECT_EQ(got.epoch, want.epoch);
      EXPECT_EQ(got.first_alarm_tick, want.first_alarm_tick);
      EXPECT_EQ(got.ticks_observed, want.ticks_observed);
      EXPECT_EQ(got.window_ticks, want.window_ticks);
    }
    EXPECT_TRUE(status.monitors_listed_truncated);
  };

  Rng rng(4242);
  std::vector<size_t> ticks(kMonitors, 0);
  for (int step = 0; step < 60; ++step) {
    // A few re-arms clear alarms and overflow history...
    for (int k = 0; k < 3; ++k) {
      const int i = static_cast<int>(rng.Uniform() * kMonitors);
      ASSERT_TRUE(fleet.StartJob(Context(i)).ok());
      ticks[static_cast<size_t>(i)] = 0;
    }
    expect_rows_match_scan(step);
    // ...while a random half of the fleet observes a tick, some of it
    // spiking hard enough to alarm.
    std::vector<TickSample> batch;
    for (int i = 0; i < kMonitors; ++i) {
      if (rng.Uniform() < 0.5) continue;
      const size_t t = ticks[static_cast<size_t>(i)]++;
      const bool spiky = i % 7 == 3;
      batch.push_back(
          Sample(fleet, i, t, spiky ? (t % 2 == 0 ? 3.0 : 0.3) : 1.0));
    }
    ASSERT_TRUE(fleet.IngestTick(batch).ok());
    expect_rows_match_scan(step);
  }
  EXPECT_GT(fleet.alarms_active(), 0u);
}

// Re-arming a fleet while one alarm is latched costs about what a quiet
// re-arm does: the status refresh walks the interesting-monitor index, not
// the fleet (a full scan made a fleet re-arm O(N^2)).
TEST_F(PooledFleetTest, RearmWithOneAlarmLatchedStaysNearQuietCost) {
  constexpr int kMonitors = 20000;
  FleetConfig config;
  config.threads = 1;
  config.window_capacity = 4;
  config.diagnose_on_alarm = false;
  config.expected_monitors = kMonitors;
  MonitorFleet fleet(pipeline_, config);
  for (int i = 0; i < kMonitors; ++i) {
    ASSERT_TRUE(fleet.StartJob(Context(i)).ok());
  }
  // Re-arms every monitor but 0 (the one that alarms); best of three.
  auto rearm_seconds = [&] {
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 1; i < kMonitors; ++i) {
        if (!fleet.StartJob(Context(i)).ok()) return -1.0;
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count());
    }
    return best;
  };
  const double quiet = rearm_seconds();
  ASSERT_GT(quiet, 0.0);
  LatchAlarm(fleet, 0);
  ASSERT_EQ(fleet.alarms_active(), 1u);
  const double latched = rearm_seconds();
  ASSERT_GT(latched, 0.0);
  EXPECT_EQ(fleet.alarms_active(), 1u);
  EXPECT_LT(latched, 3.0 * quiet)
      << "re-arm with one alarm latched: " << latched << " s, quiet: "
      << quiet << " s";
}

// ------------------------------------------------------------- replay -----

constexpr char kScenarioText[] =
    "name = serve-replay\n"
    "workload = wordcount\n"
    "fault = cpu-hog\n"
    "seed = 42\n"
    "slaves = 2\n"
    "normal-runs = 4\n"
    "signature-runs = 1\n"
    "test-runs = 2\n"
    "signatures = cpu-hog,mem-hog\n";

TEST(ServeReplayTest, ScenarioReplayIsByteIdenticalAcrossThreadCounts) {
  Result<campaign::Scenario> scenario =
      campaign::ParseScenario(kScenarioText);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  auto render = [&](int threads) {
    serve::ReplayOptions options;
    options.threads = threads;
    Result<std::string> out = serve::ReplayScenario(scenario.value(), options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value() : std::string();
  };
  const std::string serial = render(1);
  const std::string parallel = render(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The replay must actually exercise the alarm path: the victim node's
  // verdict line names the injected cause.
  EXPECT_NE(serial.find("ALARM"), std::string::npos);
  EXPECT_NE(serial.find("cpu-hog"), std::string::npos);
  EXPECT_NE(serial.find("== run 1 =="), std::string::npos);
}

// The tentpole determinism claim: verdicts are a function of the trace
// alone, never of how monitors were sharded or how many workers drained the
// rings. Every (shards, threads) combination must render the same bytes.
TEST(ServeReplayTest, ReplayIsByteIdenticalAcrossShardAndThreadCounts) {
  Result<campaign::Scenario> scenario =
      campaign::ParseScenario(kScenarioText);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  auto render = [&](int shards, int threads) {
    serve::ReplayOptions options;
    options.shards = shards;
    options.threads = threads;
    Result<std::string> out = serve::ReplayScenario(scenario.value(), options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value() : std::string();
  };
  const std::string baseline = render(1, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(baseline.find("ALARM"), std::string::npos);
  for (int shards : {2, 8}) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(baseline, render(shards, threads))
          << "shards=" << shards << " threads=" << threads;
    }
  }
  EXPECT_EQ(baseline, render(1, 4)) << "shards=1 threads=4";
}

TEST(ServeReplayTest, MaxRunsCapsTheReplay) {
  Result<campaign::Scenario> scenario =
      campaign::ParseScenario(kScenarioText);
  ASSERT_TRUE(scenario.ok());
  serve::ReplayOptions options;
  options.threads = 1;
  options.max_runs = 1;
  Result<std::string> out = serve::ReplayScenario(scenario.value(), options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out.value().find("== run 0 =="), std::string::npos);
  EXPECT_EQ(out.value().find("== run 1 =="), std::string::npos);
}

TEST(ServeReplayTest, RetrainEachRunStaysDeterministicAndReusesScores) {
  Result<campaign::Scenario> scenario =
      campaign::ParseScenario(kScenarioText);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  auto render = [&](int threads) {
    serve::ReplayOptions options;
    options.threads = threads;
    options.retrain_each_run = true;
    Result<std::string> out = serve::ReplayScenario(scenario.value(), options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value() : std::string();
  };
  const std::string serial = render(1);
  ASSERT_FALSE(serial.empty());
  // The retrain summary is rendered per run; the training data is unchanged
  // between runs, so every pair score is reused and none rescored - which
  // also keeps the report byte-identical across thread counts.
  EXPECT_NE(serial.find("retrain:"), std::string::npos);
  EXPECT_NE(serial.find("pairs rescored 0"), std::string::npos);
  EXPECT_EQ(serial.find("reused 0\n"), std::string::npos);
  EXPECT_EQ(serial, render(4));

  // Verdict lines are unaffected by the retrain passes.
  serve::ReplayOptions plain;
  plain.threads = 1;
  Result<std::string> baseline =
      serve::ReplayScenario(scenario.value(), plain);
  ASSERT_TRUE(baseline.ok());
  EXPECT_NE(serial.find("ALARM"), std::string::npos);
  std::istringstream with_retrain(serial);
  std::string line;
  std::vector<std::string> verdicts;
  while (std::getline(with_retrain, line)) {
    if (line.find("node ") != std::string::npos) verdicts.push_back(line);
  }
  std::istringstream without(baseline.value());
  std::vector<std::string> baseline_verdicts;
  while (std::getline(without, line)) {
    if (line.find("node ") != std::string::npos) {
      baseline_verdicts.push_back(line);
    }
  }
  EXPECT_EQ(verdicts, baseline_verdicts);
}

// A live scraper pounding every endpoint must never leak into replay
// output: verdicts are computed from the trace alone, and all observability
// traffic stays on the HTTP plane (and stderr). This is the in-process
// version of the CI smoke's `serve --http-port` byte-identity check.
TEST(ServeReplayTest, ReplayIsByteIdenticalUnderLiveScrape) {
  Result<campaign::Scenario> scenario =
      campaign::ParseScenario(kScenarioText);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  serve::ReplayOptions options;
  options.threads = 2;

  Result<std::string> quiet = serve::ReplayScenario(scenario.value(), options);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();

  obs::HttpServer server;
  serve::InstallObsEndpoints(&server);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      ScrapeOverLoopback(port, "/metrics");
      ScrapeOverLoopback(port, "/statusz");
    }
  });

  Result<std::string> scraped =
      serve::ReplayScenario(scenario.value(), options);
  done.store(true);
  scraper.join();
  server.Stop();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(quiet.value(), scraped.value());
}

// An unknown fault at serving time: the injected CPU hog is held out of the
// signature catalog and nothing the victim context learned clears the
// similarity threshold, so the fleet's diagnosis falls back to the causal
// suspect ranking. The ranked-metric block must appear on the verdict line
// and the whole report must stay byte-identical across thread counts (the
// ranking is a deterministic power iteration, not a sampled walk).
TEST(ServeReplayTest, UnknownFaultFallsBackToCausalRankingDeterministically) {
  Result<campaign::Scenario> scenario = campaign::ParseScenario(
      "name = serve-unseen\n"
      "workload = wordcount\n"
      "fault = cpu-hog\n"
      "seed = 7\n"
      "slaves = 2\n"
      "normal-runs = 3\n"
      "signature-runs = 1\n"
      "test-runs = 2\n"
      "signatures = all-except-fault\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ASSERT_TRUE(scenario.value().hold_out);

  auto render = [&](int threads) {
    serve::ReplayOptions options;
    options.threads = threads;
    Result<std::string> out = serve::ReplayScenario(scenario.value(), options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value() : std::string();
  };
  const std::string serial = render(1);
  ASSERT_FALSE(serial.empty());

  // The alarm fired, the best signature match stayed below the similarity
  // threshold, and the causal fallback ranked suspects instead.
  EXPECT_NE(serial.find("ALARM"), std::string::npos);
  EXPECT_NE(serial.find("(below threshold)"), std::string::npos);
  EXPECT_NE(serial.find("; suspects:"), std::string::npos);
  // No verdict line may claim the held-out fault: the catalog genuinely
  // never learned it. (The report header names it; verdicts must not.)
  std::istringstream lines(serial);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("ALARM") == std::string::npos) continue;
    EXPECT_EQ(line.find("-> cpu-hog"), std::string::npos) << line;
    EXPECT_NE(line.find("suspects:"), std::string::npos) << line;
  }

  // Byte-identical across thread counts and across a repeated replay.
  EXPECT_EQ(serial, render(4));
  EXPECT_EQ(serial, render(1));
}

TEST(ServeReplayTest, TraceReplayRejectsEmptyTrace) {
  InvarNetX pipeline;
  telemetry::RunTrace empty;
  EXPECT_FALSE(
      serve::ReplayTrace(pipeline, empty, serve::ReplayOptions()).ok());
}

}  // namespace
}  // namespace invarnetx
