#include <gtest/gtest.h>

#include "cluster/cpi.h"
#include "cluster/engine.h"
#include "cluster/node.h"
#include "common/random.h"

namespace invarnetx::cluster {
namespace {

// ---------------------------------------------------------------- Cluster --

TEST(ClusterTest, TestbedLayout) {
  Cluster testbed = Cluster::MakeTestbed();
  EXPECT_EQ(testbed.size(), 5u);
  EXPECT_EQ(testbed.num_slaves(), 4u);
  EXPECT_EQ(testbed.master().role, NodeRole::kMaster);
  EXPECT_EQ(testbed.master().ip, "10.0.0.1");
  for (size_t i = 0; i < testbed.num_slaves(); ++i) {
    EXPECT_EQ(testbed.slave(i).role, NodeRole::kSlave);
  }
  EXPECT_EQ(testbed.slave(0).ip, "10.0.0.2");
  EXPECT_EQ(testbed.slave(3).ip, "10.0.0.5");
}

TEST(ClusterTest, TestbedIsHeterogeneous) {
  Cluster testbed = Cluster::MakeTestbed();
  bool differs = false;
  for (size_t i = 1; i < testbed.num_slaves(); ++i) {
    if (testbed.slave(i).spec.cores != testbed.slave(0).spec.cores ||
        testbed.slave(i).spec.cpi_factor != testbed.slave(0).spec.cpi_factor) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(SimNodeTest, InstructionRateAndDiskScale) {
  SimNode node;
  node.spec.cores = 8;
  node.spec.freq_ghz = 2.0;
  EXPECT_DOUBLE_EQ(node.InstructionsPerSecondAtCpi1(), 16e9);
  node.spec.disk_mbps = 60.0;
  EXPECT_DOUBLE_EQ(node.DiskDemandScale(), 2.0);
}

// -------------------------------------------------------------------- CPI --

SimNode ReferenceNode() {
  SimNode node;
  node.drivers.cpi_base = 1.0;
  return node;
}

TEST(CpiTest, BaselineIsCpiBaseTimesMachineFactor) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  const CpiSample sample = ComputeCpi(node);
  EXPECT_NEAR(sample.cpi, node.spec.cpi_factor, 1e-9);
  EXPECT_DOUBLE_EQ(sample.progress_share, 1.0);
}

TEST(CpiTest, HeadroomCpuExtraDoesNotRaiseCpi) {
  // The Fig. 2 property: a disturbance that fits in the free cores leaves
  // CPI untouched.
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.6;
  const double base = ComputeCpi(node).cpi;
  node.drivers.cpu_extra = 0.3;  // 0.6 + 0.3 < 1: fits
  EXPECT_NEAR(ComputeCpi(node).cpi, base, 1e-9);
}

TEST(CpiTest, OversubscriptionRaisesCpi) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.6;
  node.drivers.cpu_extra = 0.8;  // 1.4 > 1: cache/context interference
  EXPECT_GT(ComputeCpi(node).cpi, 1.1);
}

TEST(CpiTest, CachePressureRaisesCpi) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  node.drivers.cache_pressure = 0.5;
  EXPECT_GT(ComputeCpi(node).cpi, 1.3);
}

TEST(CpiTest, MemoryPressureRaisesCpiOnlyPastThreshold) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  node.drivers.mem_task_mb = 8000.0;  // (8000+1200)/16384 = 56%: fine
  const double low = ComputeCpi(node).cpi;
  node.drivers.mem_extra_mb = 7000.0;  // ~99%: thrashing
  const double high = ComputeCpi(node).cpi;
  EXPECT_NEAR(low, node.spec.cpi_factor, 1e-9);
  EXPECT_GT(high, low * 1.2);
}

TEST(CpiTest, DiskSaturationRaisesCpi) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  node.drivers.io_read = 0.8;
  node.drivers.io_write = 0.6;  // total 1.4 > capacity
  EXPECT_GT(ComputeCpi(node).cpi, 1.1);
}

TEST(CpiTest, SlowDiskSaturatesEarlier) {
  SimNode fast = ReferenceNode();
  fast.drivers.cpu_task = 0.5;
  fast.drivers.io_read = 0.9;
  SimNode slow = fast;
  slow.spec.disk_mbps = 60.0;  // same demand, half the device
  EXPECT_GT(ComputeCpi(slow).cpi, ComputeCpi(fast).cpi);
}

TEST(CpiTest, NetworkFaultsNeedNetworkDependence) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  node.drivers.pkt_loss = 0.08;
  // No network demand: loss cannot stall anything.
  EXPECT_NEAR(ComputeCpi(node).cpi, node.spec.cpi_factor, 1e-9);
  node.drivers.net_in = 0.5;
  node.drivers.net_out = 0.5;
  EXPECT_GT(ComputeCpi(node).cpi, 1.3);
}

TEST(CpiTest, SuspensionExplodesMeasuredCpi) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  const double normal = ComputeCpi(node).cpi;
  node.drivers.suspended = true;
  const CpiSample suspended = ComputeCpi(node);
  EXPECT_GT(suspended.cpi, normal * 20.0);
  EXPECT_LT(suspended.progress_share, 0.05);
}

TEST(CpiTest, ProgressScaleInflatesCpi) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  node.drivers.progress_scale = 0.5;
  EXPECT_NEAR(ComputeCpi(node).cpi, 2.0 * node.spec.cpi_factor, 1e-9);
}

TEST(CpiTest, InstructionsRetiredScalesInverselyWithCpi) {
  SimNode node = ReferenceNode();
  node.drivers.cpu_task = 0.5;
  const CpiSample s1 = ComputeCpi(node);
  const double r1 = InstructionsRetired(node, s1, 10.0);
  node.drivers.cache_pressure = 1.0;
  const CpiSample s2 = ComputeCpi(node);
  const double r2 = InstructionsRetired(node, s2, 10.0);
  EXPECT_NEAR(r1 / r2, s2.cpi / s1.cpi, 1e-9);
}

// ----------------------------------------------------------------- engine --

class ConstantWorkload : public WorkloadModel {
 public:
  explicit ConstantWorkload(double budget) : budget_(budget) {}

  std::string name() const override { return "constant"; }
  void Step(int, Cluster* cluster, Rng*) override {
    ++steps_;
    for (size_t i = 1; i < cluster->size(); ++i) {
      cluster->node(i).drivers.cpu_task = 0.5;
      cluster->node(i).drivers.cpi_base = 1.0;
    }
  }
  void OnProgress(size_t node, double instructions) override {
    if (node > 0) retired_ += instructions;
  }
  bool Finished() const override { return retired_ >= budget_; }

  int steps_ = 0;
  double retired_ = 0.0;
  double budget_;
};

class CountingSink : public TelemetrySink {
 public:
  void Record(int, const Cluster&, const std::vector<CpiSample>&) override {
    ++records_;
  }
  int records_ = 0;
};

TEST(EngineTest, RunsUntilWorkloadFinishes) {
  Cluster testbed = Cluster::MakeTestbed();
  // Budget sized for ~10 ticks of 4 slaves at cpu 0.5, cpi ~ machine factor.
  ConstantWorkload workload(4 * 0.5 * 8 * 2.1e9 * 10.0 * 9.5);
  CountingSink sink;
  Rng rng(1);
  SimulationEngine engine;
  const EngineResult result =
      engine.Run(&testbed, &workload, {}, &sink, &rng);
  EXPECT_TRUE(result.workload_finished);
  EXPECT_GT(result.ticks_run, 5);
  EXPECT_LT(result.ticks_run, 20);
  EXPECT_EQ(sink.records_, result.ticks_run);
  EXPECT_DOUBLE_EQ(result.duration_seconds, result.ticks_run * 10.0);
}

TEST(EngineTest, MaxTicksCapsRun) {
  Cluster testbed = Cluster::MakeTestbed();
  ConstantWorkload workload(1e18);  // never finishes
  EngineConfig config;
  config.max_ticks = 7;
  SimulationEngine engine(config);
  Rng rng(2);
  const EngineResult result =
      engine.Run(&testbed, &workload, {}, nullptr, &rng);
  EXPECT_FALSE(result.workload_finished);
  EXPECT_EQ(result.ticks_run, 7);
}

class OneShotFault : public FaultInjector {
 public:
  std::string name() const override { return "one-shot"; }
  void Apply(int tick, Cluster* cluster, Rng*) override {
    if (tick == 2) cluster->node(1).drivers.cpu_extra = 0.9;
  }
};

TEST(EngineTest, FaultControlledFieldsResetEachTick) {
  // A fault that asserts cpu_extra only on tick 2 must leave no residue on
  // tick 3 - the engine clears fault-controlled fields every tick.
  Cluster testbed = Cluster::MakeTestbed();
  ConstantWorkload workload(1e18);

  class SpyingSink : public TelemetrySink {
   public:
    void Record(int tick, const Cluster& cluster,
                const std::vector<CpiSample>&) override {
      if (tick == 2) at2_ = cluster.node(1).drivers.cpu_extra;
      if (tick == 3) at3_ = cluster.node(1).drivers.cpu_extra;
    }
    double at2_ = -1.0, at3_ = -1.0;
  };

  OneShotFault fault;
  SpyingSink sink;
  EngineConfig config;
  config.max_ticks = 5;
  SimulationEngine engine(config);
  Rng rng(3);
  engine.Run(&testbed, &workload, {&fault}, &sink, &rng);
  EXPECT_DOUBLE_EQ(sink.at2_, 0.9);
  EXPECT_DOUBLE_EQ(sink.at3_, 0.0);
}

TEST(EngineTest, DeterministicGivenSeed) {
  auto run_once = [](uint64_t seed) {
    Cluster testbed = Cluster::MakeTestbed();
    ConstantWorkload workload(1e18);
    EngineConfig config;
    config.max_ticks = 10;
    SimulationEngine engine(config);
    Rng rng(seed);

    class CpiSink : public TelemetrySink {
     public:
      void Record(int, const Cluster&,
                  const std::vector<CpiSample>& cpi) override {
        last_ = cpi[1].cpi;
      }
      double last_ = 0.0;
    };
    CpiSink sink;
    engine.Run(&testbed, &workload, {}, &sink, &rng);
    return sink.last_;
  };
  EXPECT_DOUBLE_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

}  // namespace
}  // namespace invarnetx::cluster
