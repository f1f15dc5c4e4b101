#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "telemetry/collector.h"
#include "telemetry/metrics.h"
#include "telemetry/runner.h"
#include "telemetry/trace.h"

namespace invarnetx::telemetry {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(MetricsTest, CatalogSizeAndNames) {
  std::set<std::string> names;
  for (int i = 0; i < kNumMetrics; ++i) {
    const std::string name = MetricName(i);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "invalid_metric");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumMetrics));  // all distinct
  EXPECT_EQ(MetricName(-1), "invalid_metric");
  EXPECT_EQ(MetricName(kNumMetrics), "invalid_metric");
}

TEST(MetricsTest, NameRoundTrip) {
  for (int i = 0; i < kNumMetrics; ++i) {
    Result<int> parsed = MetricFromName(MetricName(i));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), i);
  }
  EXPECT_FALSE(MetricFromName("no_such_metric").ok());
}

TEST(MetricsTest, PairIndexBijection) {
  int index = 0;
  for (int a = 0; a < kNumMetrics; ++a) {
    for (int b = a + 1; b < kNumMetrics; ++b) {
      EXPECT_EQ(PairIndex(a, b), index);
      int ra = 0, rb = 0;
      PairFromIndex(index, &ra, &rb);
      EXPECT_EQ(ra, a);
      EXPECT_EQ(rb, b);
      ++index;
    }
  }
  EXPECT_EQ(index, kNumMetricPairs);
}

// -------------------------------------------------------------- collector --

cluster::SimNode BusyNode() {
  cluster::SimNode node;
  node.drivers.cpu_task = 0.6;
  node.drivers.io_read = 0.4;
  node.drivers.io_write = 0.2;
  node.drivers.net_in = 0.3;
  node.drivers.net_out = 0.3;
  node.drivers.mem_task_mb = 3000.0;
  node.drivers.task_churn = 0.5;
  node.drivers.rpc_rate = 0.4;
  node.drivers.cpi_base = 1.0;
  return node;
}

TEST(CollectorTest, MetricsAreNonNegative) {
  Rng rng(1);
  const auto metrics = ObserveMetrics(BusyNode(), &rng);
  for (int i = 0; i < kNumMetrics; ++i) {
    EXPECT_GE(metrics[static_cast<size_t>(i)], 0.0) << MetricName(i);
  }
}

TEST(CollectorTest, CpuAccountsRoughlySumTo100) {
  Rng rng(2);
  const auto metrics = ObserveMetrics(BusyNode(), &rng);
  const double total = metrics[kCpuUserPct] + metrics[kCpuSysPct] +
                       metrics[kCpuIdlePct] + metrics[kCpuIowaitPct];
  EXPECT_NEAR(total, 100.0, 12.0);  // observation noise applies per metric
}

TEST(CollectorTest, MemoryAccountsRoughlySumToTotal) {
  Rng rng(3);
  cluster::SimNode node = BusyNode();
  const auto metrics = ObserveMetrics(node, &rng);
  const double total =
      metrics[kMemUsedMb] + metrics[kMemFreeMb] + metrics[kMemCachedMb];
  EXPECT_NEAR(total, node.spec.mem_total_mb, node.spec.mem_total_mb * 0.15);
}

TEST(CollectorTest, DemandMovesUtilizationMetrics) {
  Rng rng(4);
  cluster::SimNode idle;
  idle.drivers.cpi_base = 1.0;
  cluster::SimNode busy = BusyNode();
  const auto m_idle = ObserveMetrics(idle, &rng);
  const auto m_busy = ObserveMetrics(busy, &rng);
  EXPECT_GT(m_busy[kCpuUserPct], m_idle[kCpuUserPct] + 20.0);
  EXPECT_GT(m_busy[kDiskReadKbps], m_idle[kDiskReadKbps] + 5000.0);
  EXPECT_GT(m_busy[kNetRxKbps], m_idle[kNetRxKbps] + 5000.0);
  EXPECT_GT(m_busy[kCtxSwitchesPerSec], m_idle[kCtxSwitchesPerSec]);
}

TEST(CollectorTest, SuspensionCollapsesActivityButKeepsMemory) {
  Rng rng(5);
  cluster::SimNode busy = BusyNode();
  cluster::SimNode suspended = BusyNode();
  suspended.drivers.suspended = true;
  const auto m_busy = ObserveMetrics(busy, &rng);
  const auto m_susp = ObserveMetrics(suspended, &rng);
  EXPECT_LT(m_susp[kCpuUserPct], m_busy[kCpuUserPct] * 0.3);
  EXPECT_LT(m_susp[kDiskReadKbps], m_busy[kDiskReadKbps] * 0.3);
  // Resident memory survives a SIGSTOP.
  EXPECT_NEAR(m_susp[kMemUsedMb], m_busy[kMemUsedMb],
              m_busy[kMemUsedMb] * 0.2);
}

TEST(CollectorTest, PacketLossInflatesRetransmissions) {
  Rng rng(6);
  cluster::SimNode clean = BusyNode();
  cluster::SimNode lossy = BusyNode();
  lossy.drivers.pkt_loss = 0.06;
  const auto m_clean = ObserveMetrics(clean, &rng);
  const auto m_lossy = ObserveMetrics(lossy, &rng);
  EXPECT_GT(m_lossy[kTcpRetransPerSec], m_clean[kTcpRetransPerSec] + 20.0);
  EXPECT_LT(m_lossy[kNetRxKbps], m_clean[kNetRxKbps]);
}

TEST(CollectorTest, DelayShrinksThroughputWithoutRetransStorm) {
  Rng rng(7);
  cluster::SimNode delayed = BusyNode();
  delayed.drivers.net_delay_ms = 800.0;
  cluster::SimNode lossy = BusyNode();
  lossy.drivers.pkt_loss = 0.06;
  const auto m_delay = ObserveMetrics(delayed, &rng);
  const auto m_lossy = ObserveMetrics(lossy, &rng);
  // Delay crushes throughput harder than ~6% loss...
  EXPECT_LT(m_delay[kNetRxKbps], m_lossy[kNetRxKbps]);
  // ...but produces far fewer retransmissions.
  EXPECT_LT(m_delay[kTcpRetransPerSec], m_lossy[kTcpRetransPerSec] * 0.5);
}

TEST(CollectorTest, SwapStaysZeroUntilPressure) {
  Rng rng(8);
  cluster::SimNode node = BusyNode();
  const auto normal = ObserveMetrics(node, &rng);
  EXPECT_LT(normal[kSwapUsedMb], 16.0);
  node.drivers.mem_extra_mb = 12000.0;
  const auto pressured = ObserveMetrics(node, &rng);
  EXPECT_GT(pressured[kSwapUsedMb], 200.0);
  EXPECT_GT(pressured[kPageFaultsPerSec], normal[kPageFaultsPerSec] * 2.0);
}

TEST(CollectorTest, CounterMetricsAreIntegers) {
  Rng rng(9);
  const auto metrics = ObserveMetrics(BusyNode(), &rng);
  EXPECT_DOUBLE_EQ(metrics[kTcpRetransPerSec],
                   std::floor(metrics[kTcpRetransPerSec]));
  EXPECT_DOUBLE_EQ(metrics[kProcsRunning],
                   std::floor(metrics[kProcsRunning]));
  EXPECT_DOUBLE_EQ(metrics[kSwapUsedMb], std::floor(metrics[kSwapUsedMb]));
}

TEST(CollectorTest, MetricNoiseSlotInjectsJitter) {
  // Variance of a metric must grow when its fault-noise slot is set.
  auto spread = [](double slot_noise) {
    Rng rng(10);
    cluster::SimNode node = BusyNode();
    node.drivers.metric_noise[kCpuUserPct] = slot_noise;
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
      samples.push_back(ObserveMetrics(node, &rng)[kCpuUserPct]);
    }
    return std::sqrt(Variance(samples));
  };
  EXPECT_GT(spread(0.4), spread(0.0) * 3.0);
}

// ----------------------------------------------------------------- runner --

TEST(RunnerTest, BatchRunCompletes) {
  RunConfig config;
  config.workload = workload::WorkloadType::kWordCount;
  config.seed = 42;
  Result<RunTrace> trace = SimulateRun(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace.value().finished);
  EXPECT_GT(trace.value().ticks, 20);
  EXPECT_LT(trace.value().ticks, 120);
  EXPECT_EQ(trace.value().nodes.size(), 5u);
  for (const NodeTrace& node : trace.value().nodes) {
    EXPECT_EQ(node.cpi.size(), static_cast<size_t>(trace.value().ticks));
    for (int m = 0; m < kNumMetrics; ++m) {
      EXPECT_EQ(node.metrics[static_cast<size_t>(m)].size(),
                static_cast<size_t>(trace.value().ticks));
    }
  }
  EXPECT_FALSE(trace.value().fault.has_value());
}

TEST(RunnerTest, InteractiveRunsExactlyObservationWindow) {
  RunConfig config;
  config.workload = workload::WorkloadType::kTpcDs;
  config.seed = 42;
  config.interactive_ticks = 33;
  Result<RunTrace> trace = SimulateRun(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().ticks, 33);
  EXPECT_FALSE(trace.value().finished);
}

TEST(RunnerTest, DeterministicGivenSeed) {
  RunConfig config;
  config.workload = workload::WorkloadType::kGrep;
  config.seed = 7;
  const RunTrace a = SimulateRun(config).value();
  const RunTrace b = SimulateRun(config).value();
  ASSERT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.nodes[1].cpi, b.nodes[1].cpi);
  EXPECT_EQ(a.nodes[2].metrics[kCtxSwitchesPerSec],
            b.nodes[2].metrics[kCtxSwitchesPerSec]);
}

TEST(RunnerTest, FaultRecordedAsGroundTruth) {
  RunConfig config;
  config.workload = workload::WorkloadType::kWordCount;
  config.seed = 9;
  config.fault = FaultRequest{faults::FaultType::kDiskHog,
                              DefaultFaultWindow(faults::FaultType::kDiskHog)};
  Result<RunTrace> trace = SimulateRun(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace.value().fault.has_value());
  EXPECT_EQ(trace.value().fault->type, faults::FaultType::kDiskHog);
}

TEST(RunnerTest, FaultStretchesExecutionTime) {
  RunConfig normal;
  normal.workload = workload::WorkloadType::kWordCount;
  normal.seed = 11;
  RunConfig faulty = normal;
  faulty.fault = FaultRequest{faults::FaultType::kCpuHog,
                              DefaultFaultWindow(faults::FaultType::kCpuHog)};
  const double t_normal = SimulateRun(normal).value().duration_seconds;
  const double t_faulty = SimulateRun(faulty).value().duration_seconds;
  EXPECT_GT(t_faulty, t_normal * 1.1);
}

TEST(RunnerTest, DataScaleStretchesBatchJobsLinearly) {
  RunConfig config;
  config.workload = workload::WorkloadType::kGrep;
  config.seed = 21;
  const double t1 = SimulateRun(config).value().duration_seconds;
  config.data_scale = 2.0;
  const double t2 = SimulateRun(config).value().duration_seconds;
  config.data_scale = 0.5;
  const double t_half = SimulateRun(config).value().duration_seconds;
  // T = I * CPI * C: double the data, roughly double the time.
  EXPECT_NEAR(t2 / t1, 2.0, 0.3);
  EXPECT_NEAR(t_half / t1, 0.5, 0.2);
}

TEST(RunnerTest, DataScaleValidated) {
  RunConfig config;
  config.workload = workload::WorkloadType::kGrep;
  config.data_scale = 0.0;
  EXPECT_FALSE(SimulateRun(config).ok());
}

TEST(RunnerTest, InapplicableFaultRejected) {
  RunConfig config;
  config.workload = workload::WorkloadType::kWordCount;
  config.fault = FaultRequest{faults::FaultType::kOverload,
                              DefaultFaultWindow(faults::FaultType::kOverload)};
  EXPECT_FALSE(SimulateRun(config).ok());
}

TEST(RunnerTest, MultiFaultRunRecordsAllGroundTruths) {
  RunConfig config;
  config.workload = workload::WorkloadType::kWordCount;
  config.seed = 31;
  config.fault = FaultRequest{faults::FaultType::kCpuHog,
                              DefaultFaultWindow(faults::FaultType::kCpuHog)};
  config.extra_faults.push_back(
      FaultRequest{faults::FaultType::kMemHog,
                   DefaultFaultWindow(faults::FaultType::kMemHog)});
  Result<RunTrace> trace = SimulateRun(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().injected.size(), 2u);
  EXPECT_EQ(trace.value().injected[0].type, faults::FaultType::kCpuHog);
  EXPECT_EQ(trace.value().injected[1].type, faults::FaultType::kMemHog);
  ASSERT_TRUE(trace.value().fault.has_value());
  EXPECT_EQ(trace.value().fault->type, faults::FaultType::kCpuHog);
}

TEST(RunnerTest, MultiFaultValidatesEveryRequest) {
  RunConfig config;
  config.workload = workload::WorkloadType::kWordCount;
  config.fault = FaultRequest{faults::FaultType::kCpuHog,
                              DefaultFaultWindow(faults::FaultType::kCpuHog)};
  config.extra_faults.push_back(
      FaultRequest{faults::FaultType::kOverload,  // batch: inapplicable
                   DefaultFaultWindow(faults::FaultType::kOverload)});
  EXPECT_FALSE(SimulateRun(config).ok());
}

TEST(RunnerTest, SingleFaultTraceHasSingletonInjectedList) {
  RunConfig config;
  config.workload = workload::WorkloadType::kWordCount;
  config.seed = 32;
  config.fault = FaultRequest{faults::FaultType::kDiskHog,
                              DefaultFaultWindow(faults::FaultType::kDiskHog)};
  Result<RunTrace> trace = SimulateRun(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().injected.size(), 1u);
}

TEST(RunnerTest, DefaultWindowTargetsNameNodeForNetFaults) {
  EXPECT_EQ(DefaultFaultWindow(faults::FaultType::kNetDrop).target_node, 0u);
  EXPECT_EQ(DefaultFaultWindow(faults::FaultType::kNetDelay).target_node, 0u);
  EXPECT_EQ(DefaultFaultWindow(faults::FaultType::kCpuHog).target_node, 1u);
  EXPECT_EQ(DefaultFaultWindow(faults::FaultType::kCpuHog).duration_ticks, 30);
}

}  // namespace
}  // namespace invarnetx::telemetry
