// Tests for the deployment-facing components: FIFO job sequences and the
// cluster-wide culprit scan. The streaming monitor is serve::MonitorFleet,
// tested in serve_test.

#include <gtest/gtest.h>

#include "core/cluster_diagnosis.h"
#include "core/evaluate.h"
#include "workload/sequence.h"

namespace invarnetx {
namespace {

using core::InvarNetX;
using core::OperationContext;
using workload::WorkloadType;

// ------------------------------------------------------------- sequences --

TEST(JobSequenceTest, RunsJobsInOrder) {
  telemetry::SequenceConfig config;
  config.jobs = {WorkloadType::kGrep, WorkloadType::kWordCount};
  config.seed = 3;
  Result<telemetry::RunTrace> trace = telemetry::SimulateJobSequence(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().job_spans.size(), 2u);
  const auto& spans = trace.value().job_spans;
  EXPECT_EQ(spans[0].type, WorkloadType::kGrep);
  EXPECT_EQ(spans[1].type, WorkloadType::kWordCount);
  EXPECT_EQ(spans[0].start_tick, 0);
  EXPECT_GT(spans[0].end_tick, 10);
  EXPECT_GE(spans[1].start_tick, spans[0].end_tick);
  EXPECT_GT(spans[1].end_tick, spans[1].start_tick + 10);
  EXPECT_TRUE(trace.value().finished);
}

TEST(JobSequenceTest, RejectsInteractiveJobs) {
  telemetry::SequenceConfig config;
  config.jobs = {WorkloadType::kGrep, WorkloadType::kTpcDs};
  EXPECT_FALSE(telemetry::SimulateJobSequence(config).ok());
}

TEST(JobSequenceTest, RejectsEmptyQueue) {
  telemetry::SequenceConfig config;
  EXPECT_FALSE(telemetry::SimulateJobSequence(config).ok());
}

TEST(JobSequenceTest, SpansCoverDistinctDemandRegimes) {
  // Grep is IO-heavy, WordCount CPU-heavy: the victim's cpu_user must be
  // visibly higher inside the WordCount span.
  telemetry::SequenceConfig config;
  config.jobs = {WorkloadType::kGrep, WorkloadType::kWordCount};
  config.seed = 4;
  const telemetry::RunTrace trace =
      telemetry::SimulateJobSequence(config).value();
  const auto& spans = trace.job_spans;
  const auto& cpu = trace.nodes[1].metrics[telemetry::kCpuUserPct];
  auto mean_over = [&](int start, int end) {
    double acc = 0.0;
    for (int t = start; t < end; ++t) acc += cpu[static_cast<size_t>(t)];
    return acc / (end - start);
  };
  // Skip each span's first/last few ticks (ramps).
  const double grep_cpu = mean_over(spans[0].start_tick + 3,
                                    spans[0].end_tick - 3);
  const double wc_cpu = mean_over(spans[1].start_tick + 3,
                                  spans[1].end_tick - 3);
  EXPECT_GT(wc_cpu, grep_cpu + 10.0);
}

TEST(JobSequenceTest, DirectModelInterface) {
  Rng rng(5);
  cluster::Cluster testbed = cluster::Cluster::MakeTestbed();
  workload::JobSequenceModel sequence({WorkloadType::kGrep}, testbed, &rng);
  EXPECT_EQ(sequence.current_job(), -1);
  EXPECT_FALSE(sequence.Finished());
  sequence.Step(0, &testbed, &rng);
  EXPECT_EQ(sequence.current_job(), 0);
  ASSERT_EQ(sequence.spans().size(), 1u);
  EXPECT_EQ(sequence.spans()[0].end_tick, -1);  // in flight
}

// ------------------------------------------------------- cluster scan ----

TEST(ClusterDiagnosisTest, LocalizesTheFaultyNode) {
  InvarNetX pipeline;
  auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 8, 42);
  for (size_t node = 1; node <= 4; ++node) {
    const OperationContext context{
        WorkloadType::kWordCount, "10.0.0." + std::to_string(node + 1)};
    ASSERT_TRUE(pipeline.TrainContext(context, normal.value(), node).ok());
  }
  for (uint64_t rep = 0; rep < 2; ++rep) {
    auto run = core::SimulateFaultRun(WorkloadType::kWordCount,
                                      faults::FaultType::kMemHog, 700 + rep);
    ASSERT_TRUE(pipeline
                    .AddSignature(OperationContext{WorkloadType::kWordCount,
                                                   "10.0.0.2"},
                                  "mem-hog", run.value(), 1)
                    .ok());
  }
  auto incident = core::SimulateFaultRun(WorkloadType::kWordCount,
                                         faults::FaultType::kMemHog, 999);
  Result<core::ClusterDiagnosis> scan =
      core::DiagnoseCluster(pipeline, incident.value());
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().nodes.size(), 4u);
  ASSERT_TRUE(scan.value().AnyAnomaly());
  // The fault targets node 1 (10.0.0.2).
  EXPECT_EQ(scan.value().nodes[static_cast<size_t>(scan.value().culprit)]
                .node_ip,
            "10.0.0.2");
  for (const core::NodeDiagnosis& entry : scan.value().nodes) {
    EXPECT_TRUE(entry.context_trained);
  }
}

TEST(ClusterDiagnosisTest, UntrainedNodesAreSkippedNotFatal) {
  InvarNetX pipeline;
  auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 4, 42);
  // Only node 1's context is trained.
  ASSERT_TRUE(pipeline
                  .TrainContext(OperationContext{WorkloadType::kWordCount,
                                                 "10.0.0.2"},
                                normal.value(), 1)
                  .ok());
  auto clean = core::SimulateNormalRuns(WorkloadType::kWordCount, 1, 55);
  Result<core::ClusterDiagnosis> scan =
      core::DiagnoseCluster(pipeline, clean.value()[0]);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().nodes[0].context_trained);
  EXPECT_FALSE(scan.value().nodes[1].context_trained);
  EXPECT_FALSE(scan.value().AnyAnomaly());
}

TEST(ClusterDiagnosisTest, RejectsEmptyTrace) {
  InvarNetX pipeline;
  telemetry::RunTrace empty;
  EXPECT_FALSE(core::DiagnoseCluster(pipeline, empty).ok());
}

}  // namespace
}  // namespace invarnetx
