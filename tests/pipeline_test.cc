#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "xmlstore/xml.h"

namespace invarnetx::core {
namespace {

using workload::WorkloadType;

constexpr size_t kVictim = 1;

const OperationContext kContext{WorkloadType::kWordCount, "10.0.0.2"};

// Shared expensive fixtures: trained pipeline + a few runs.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    normal_ = new std::vector<telemetry::RunTrace>(
        SimulateNormalRuns(WorkloadType::kWordCount, 10, 42).value());
    pipeline_ = new InvarNetX();
    ASSERT_TRUE(pipeline_->TrainContext(kContext, *normal_, kVictim).ok());
    uint64_t fault_index = 0;
    for (auto fault : {faults::FaultType::kMemHog, faults::FaultType::kCpuHog,
                       faults::FaultType::kSuspend}) {
      for (uint64_t rep = 0; rep < 2; ++rep) {
        auto run = SimulateFaultRun(WorkloadType::kWordCount, fault,
                                    1000 + fault_index * 131 + rep);
        ASSERT_TRUE(pipeline_
                        ->AddSignature(kContext, faults::FaultName(fault),
                                       run.value(), kVictim)
                        .ok());
      }
      ++fault_index;
    }
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete normal_;
    pipeline_ = nullptr;
    normal_ = nullptr;
  }

  static std::vector<telemetry::RunTrace>* normal_;
  static InvarNetX* pipeline_;
};

std::vector<telemetry::RunTrace>* PipelineTest::normal_ = nullptr;
InvarNetX* PipelineTest::pipeline_ = nullptr;

TEST_F(PipelineTest, TrainingPopulatesContext) {
  EXPECT_TRUE(pipeline_->HasContext(kContext));
  EXPECT_FALSE(pipeline_->HasContext(
      OperationContext{WorkloadType::kSort, "10.0.0.2"}));
  const std::shared_ptr<const ContextModel> model =
      pipeline_->GetContext(kContext).value();
  EXPECT_GT(model->invariants.NumInvariants(), 50);
  EXPECT_GT(model->perf.residual_max(), 0.0);
  EXPECT_EQ(model->sigdb.size(), 6u);
}

TEST_F(PipelineTest, EpochAdvancesAcrossRetrainsAndSnapshotsStayPinned) {
  InvarNetX fresh;
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  const std::shared_ptr<const ContextModel> first =
      fresh.GetContext(kContext).value();
  EXPECT_EQ(first->epoch, 1u);
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  const std::shared_ptr<const ContextModel> second =
      fresh.GetContext(kContext).value();
  EXPECT_EQ(second->epoch, 2u);
  // The old snapshot is unchanged - consumers that pinned it are safe.
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_NE(first.get(), second.get());
  // AddSignature publishes a new epoch too, and signatures taught before a
  // retrain carry over to the fresh epoch.
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kCpuHog, 902);
  ASSERT_TRUE(fresh.AddSignature(kContext, "cpu-hog", run.value(), kVictim)
                  .ok());
  EXPECT_EQ(fresh.GetContext(kContext).value()->epoch, 3u);
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  EXPECT_EQ(fresh.GetContext(kContext).value()->epoch, 4u);
  EXPECT_EQ(fresh.GetContext(kContext).value()->sigdb.size(), 1u);
  EXPECT_EQ(second->sigdb.size(), 0u);  // older snapshots never mutate
}

TEST_F(PipelineTest, RetrainOnUnchangedDataReusesEveryPairScore) {
  obs::Counter& rescored =
      obs::MetricsRegistry::Shared().GetCounter("pipeline.pairs_rescored");
  obs::Counter& reused =
      obs::MetricsRegistry::Shared().GetCounter("pipeline.pairs_reused");

  InvarNetXConfig config;
  config.use_association_cache = false;  // isolate digest-driven reuse
  InvarNetX fresh(config);
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  const std::shared_ptr<const ContextModel> cold =
      fresh.GetContext(kContext).value();
  ASSERT_FALSE(cold->mining.records.empty());

  // Same examples again: every series digest matches the carried mining
  // snapshot, so no pair is rescored and the published invariants are
  // byte-identical.
  const uint64_t rescored_before = rescored.value();
  const uint64_t reused_before = reused.value();
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  const std::shared_ptr<const ContextModel> warm =
      fresh.GetContext(kContext).value();
  EXPECT_EQ(rescored.value() - rescored_before, 0u);
  EXPECT_EQ(reused.value() - reused_before,
            cold->mining.records.size() *
                static_cast<size_t>(telemetry::kNumMetricPairs));
  EXPECT_EQ(warm->invariants.values, cold->invariants.values);
  EXPECT_EQ(warm->invariants.PairIndices(), cold->invariants.PairIndices());

  // One perturbed tick in one metric of one run dirties only that run's
  // matrix; the rest of the fleet of pair scores is still reused.
  std::vector<telemetry::RunTrace> perturbed = *normal_;
  perturbed[0].nodes[kVictim].metrics[5][3] += 1.0;
  const uint64_t rescored_mid = rescored.value();
  ASSERT_TRUE(fresh.TrainContext(kContext, perturbed, kVictim).ok());
  const uint64_t delta = rescored.value() - rescored_mid;
  EXPECT_GT(delta, 0u);
  EXPECT_LE(delta, static_cast<uint64_t>(telemetry::kNumMetrics - 1) *
                       cold->mining.records.size());
}

TEST_F(PipelineTest, MiningStateSurvivesAddSignatureEpochs) {
  obs::Counter& rescored =
      obs::MetricsRegistry::Shared().GetCounter("pipeline.pairs_rescored");
  InvarNetXConfig config;
  config.use_association_cache = false;
  InvarNetX fresh(config);
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  // AddSignature publishes a new epoch via copy; the mining snapshot must
  // ride along so the retrain after it still reuses everything.
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kCpuHog, 903);
  ASSERT_TRUE(
      fresh.AddSignature(kContext, "cpu-hog", run.value(), kVictim).ok());
  EXPECT_FALSE(fresh.GetContext(kContext).value()->mining.records.empty());
  const uint64_t before = rescored.value();
  ASSERT_TRUE(fresh.TrainContext(kContext, *normal_, kVictim).ok());
  EXPECT_EQ(rescored.value() - before, 0u);
  EXPECT_EQ(fresh.GetContext(kContext).value()->sigdb.size(), 1u);
}

TEST_F(PipelineTest, VerifyIncrementalOraclePassesOnRetrain) {
  InvarNetXConfig config;
  config.verify_incremental = true;
  InvarNetX checked(config);
  ASSERT_TRUE(checked.TrainContext(kContext, *normal_, kVictim).ok());
  // The second train takes the incremental path under the cold-recompute
  // oracle; any reuse that is not byte-identical would fail the train.
  ASSERT_TRUE(checked.TrainContext(kContext, *normal_, kVictim).ok());
}

TEST_F(PipelineTest, TrainRejectsTooFewRuns) {
  InvarNetX fresh;
  std::vector<telemetry::RunTrace> one(normal_->begin(),
                                       normal_->begin() + 1);
  EXPECT_FALSE(fresh.TrainContext(kContext, one, kVictim).ok());
}

TEST_F(PipelineTest, TrainRejectsBadNodeIndex) {
  InvarNetX fresh;
  EXPECT_FALSE(fresh.TrainContext(kContext, *normal_, 99).ok());
}

TEST_F(PipelineTest, DiagnoseUntrainedContextFails) {
  auto run = SimulateFaultRun(WorkloadType::kSort,
                              faults::FaultType::kCpuHog, 7);
  Result<DiagnosisReport> report = pipeline_->Diagnose(
      OperationContext{WorkloadType::kSort, "10.0.0.2"}, run.value(),
      kVictim);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, NormalRunRaisesNoAlarm) {
  auto clean = SimulateNormalRuns(WorkloadType::kWordCount, 1, 555);
  Result<DiagnosisReport> report =
      pipeline_->Diagnose(kContext, clean.value()[0], kVictim);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().anomaly_detected);
  EXPECT_TRUE(report.value().causes.empty());
}

TEST_F(PipelineTest, KnownFaultDiagnosedCorrectly) {
  // Across a handful of incident runs, mem-hog must always be detected and
  // rank among the top-2 causes (a heavy swap storm partially collapses
  // node activity, so it genuinely borders the suspend signature; the
  // full-scale campaign in bench/fig8 measures exact top-1 rates).
  int detected = 0, top2 = 0, top1 = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto run = SimulateFaultRun(WorkloadType::kWordCount,
                                faults::FaultType::kMemHog, 9001 + seed * 7);
    Result<DiagnosisReport> report =
        pipeline_->Diagnose(kContext, run.value(), kVictim);
    ASSERT_TRUE(report.ok());
    if (!report.value().anomaly_detected) continue;
    ++detected;
    EXPECT_GT(report.value().num_violations, 3);
    const auto& causes = report.value().causes;
    for (size_t k = 0; k < causes.size() && k < 2; ++k) {
      if (causes[k].problem == "mem-hog") {
        ++top2;
        if (k == 0) ++top1;
        break;
      }
    }
  }
  EXPECT_GE(detected, 4);
  EXPECT_EQ(top2, detected);
  EXPECT_GE(top1, 2);
}

TEST_F(PipelineTest, CausesAreSortedDescending) {
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kSuspend, 9002);
  Result<DiagnosisReport> report =
      pipeline_->InferCause(kContext, run.value(), kVictim);
  ASSERT_TRUE(report.ok());
  for (size_t i = 1; i < report.value().causes.size(); ++i) {
    EXPECT_GE(report.value().causes[i - 1].score,
              report.value().causes[i].score);
  }
}

TEST_F(PipelineTest, HintsNameViolatedPairs) {
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kCpuHog, 9003);
  Result<DiagnosisReport> report =
      pipeline_->InferCause(kContext, run.value(), kVictim);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report.value().hints.empty());
  EXPECT_LE(report.value().hints.size(), 10u);
  EXPECT_NE(report.value().hints[0].find(" ~ "), std::string::npos);
}

TEST_F(PipelineTest, SaveLoadRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "invarnetx_pipeline_test")
          .string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(pipeline_->SaveToDirectory(dir).ok());

  InvarNetX reloaded;
  ASSERT_TRUE(reloaded.LoadFromDirectory(dir).ok());
  ASSERT_TRUE(reloaded.HasContext(kContext));
  const std::shared_ptr<const ContextModel> original_ptr =
      pipeline_->GetContext(kContext).value();
  const std::shared_ptr<const ContextModel> copy_ptr =
      reloaded.GetContext(kContext).value();
  const ContextModel& original = *original_ptr;
  const ContextModel& copy = *copy_ptr;
  EXPECT_EQ(copy.invariants.NumInvariants(),
            original.invariants.NumInvariants());
  EXPECT_EQ(copy.sigdb.size(), original.sigdb.size());
  EXPECT_DOUBLE_EQ(copy.perf.residual_max(), original.perf.residual_max());
  EXPECT_EQ(copy.perf.arima().order().p, original.perf.arima().order().p);

  // The reloaded pipeline must produce the same inference output.
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kMemHog, 9004);
  const DiagnosisReport a =
      pipeline_->InferCause(kContext, run.value(), kVictim).value();
  const DiagnosisReport b =
      reloaded.InferCause(kContext, run.value(), kVictim).value();
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_FALSE(a.causes.empty());
  ASSERT_FALSE(b.causes.empty());
  EXPECT_EQ(a.causes[0].problem, b.causes[0].problem);
  EXPECT_DOUBLE_EQ(a.causes[0].score, b.causes[0].score);
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, StoreRemembersItsConfiguration) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "invarnetx_cfg_test")
          .string();
  std::filesystem::create_directories(dir);
  InvarNetXConfig config;
  config.engine = AssociationEngineType::kEnsemble;
  config.epsilon = 0.15;
  config.similarity = SimilarityMetric::kIdfJaccard;
  InvarNetX trained(config);
  auto normal = SimulateNormalRuns(WorkloadType::kWordCount, 4, 42);
  ASSERT_TRUE(trained.TrainContext(kContext, normal.value(), kVictim).ok());
  ASSERT_TRUE(trained.SaveToDirectory(dir).ok());

  // A fresh pipeline with DEFAULT configuration picks up the store's.
  InvarNetX reloaded;
  ASSERT_TRUE(reloaded.LoadFromDirectory(dir).ok());
  EXPECT_EQ(reloaded.config().engine, AssociationEngineType::kEnsemble);
  EXPECT_DOUBLE_EQ(reloaded.config().epsilon, 0.15);
  EXPECT_EQ(reloaded.config().similarity, SimilarityMetric::kIdfJaccard);
  std::filesystem::remove_all(dir);
}

// Saves the trained pipeline, rewrites one attribute of its config.xml and
// loads the store back into a fresh pipeline.
Status LoadWithConfigAttr(const InvarNetX& trained, const std::string& attr,
                          const std::string& value) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "invarnetx_bad_cfg_test")
          .string();
  std::filesystem::create_directories(dir);
  INVARNETX_RETURN_IF_ERROR(trained.SaveToDirectory(dir));
  Result<xmlstore::XmlNode> config = xmlstore::ReadXmlFile(dir + "/config.xml");
  if (!config.ok()) return config.status();
  config.value().SetAttr(attr, value);
  INVARNETX_RETURN_IF_ERROR(
      xmlstore::WriteXmlFile(dir + "/config.xml", config.value()));
  InvarNetX reloaded;
  const Status loaded = reloaded.LoadFromDirectory(dir);
  std::filesystem::remove_all(dir);
  return loaded;
}

TEST_F(PipelineTest, NonNumericStoreConfigIsCorruption) {
  const Status loaded = LoadWithConfigAttr(*pipeline_, "tau", "abc");
  EXPECT_EQ(loaded.code(), StatusCode::kCorruption) << loaded.ToString();
  EXPECT_NE(loaded.message().find("tau"), std::string::npos)
      << loaded.ToString();
}

TEST_F(PipelineTest, UnknownStoreEngineIsCorruption) {
  const Status loaded = LoadWithConfigAttr(*pipeline_, "engine", "mik");
  EXPECT_EQ(loaded.code(), StatusCode::kCorruption) << loaded.ToString();
  EXPECT_NE(loaded.message().find("engine"), std::string::npos)
      << loaded.ToString();
}

TEST_F(PipelineTest, LoadFromMissingDirectoryFails) {
  InvarNetX fresh;
  EXPECT_FALSE(fresh.LoadFromDirectory("/nonexistent/invarnetx").ok());
}

TEST(PipelineVariantTest, NoContextCollapsesKeys) {
  InvarNetXConfig config;
  config.use_operation_context = false;
  InvarNetX pipeline(config);
  auto normal = SimulateNormalRuns(WorkloadType::kWordCount, 4, 42);
  ASSERT_TRUE(
      pipeline.TrainContext(kContext, normal.value(), kVictim).ok());
  // Any context resolves to the same pooled model.
  EXPECT_TRUE(pipeline.HasContext(kContext));
  EXPECT_TRUE(pipeline.HasContext(
      OperationContext{WorkloadType::kSort, "10.0.0.9"}));
}

TEST(PipelineVariantTest, ArxEngineTrainsAndDiagnoses) {
  InvarNetXConfig config;
  config.engine = AssociationEngineType::kArx;
  InvarNetX pipeline(config);
  auto normal = SimulateNormalRuns(WorkloadType::kWordCount, 4, 42);
  ASSERT_TRUE(
      pipeline.TrainContext(kContext, normal.value(), kVictim).ok());
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kCpuHog, 77);
  ASSERT_TRUE(
      pipeline.AddSignature(kContext, "cpu-hog", run.value(), kVictim).ok());
  auto test_run = SimulateFaultRun(WorkloadType::kWordCount,
                                   faults::FaultType::kCpuHog, 78);
  Result<DiagnosisReport> report =
      pipeline.InferCause(kContext, test_run.value(), kVictim);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().causes.empty());
}

TEST(PipelineVariantTest, AddSignatureBeforeTrainingFails) {
  InvarNetX pipeline;
  auto run = SimulateFaultRun(WorkloadType::kWordCount,
                              faults::FaultType::kCpuHog, 5);
  EXPECT_FALSE(
      pipeline.AddSignature(kContext, "cpu-hog", run.value(), kVictim).ok());
}

// ----------------------------------------------------------------- eval --

TEST(EvaluateTest, VictimContextIp) {
  EvalConfig config;
  config.victim_node = 1;
  EXPECT_EQ(VictimContext(config).node_ip, "10.0.0.2");
  config.victim_node = 3;
  EXPECT_EQ(VictimContext(config).node_ip, "10.0.0.4");
}

TEST(EvaluateTest, FaultOutcomeMath) {
  FaultOutcome outcome;
  outcome.true_positives = 8;
  outcome.false_positives = 2;
  outcome.false_negatives = 2;
  EXPECT_DOUBLE_EQ(outcome.precision(), 0.8);
  EXPECT_DOUBLE_EQ(outcome.recall(), 0.8);
  FaultOutcome empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 0.0);
}

TEST(EvaluateTest, SmallCampaignProducesSaneNumbers) {
  EvalConfig config;
  config.workload = WorkloadType::kWordCount;
  config.normal_runs = 6;
  config.test_runs_per_fault = 2;
  config.faults = {faults::FaultType::kCpuHog, faults::FaultType::kMemHog,
                   faults::FaultType::kSuspend};
  Result<EvalResult> result = RunEvaluation(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().per_fault.size(), 3u);
  EXPECT_GE(result.value().avg_precision, 0.0);
  EXPECT_LE(result.value().avg_precision, 1.0);
  // Three very distinct faults at small scale: expect decent accuracy.
  EXPECT_GT(result.value().avg_recall, 0.5);
  // Tallies are complete: each fault accounts for every test run.
  for (const FaultOutcome& o : result.value().per_fault) {
    EXPECT_EQ(o.true_positives + o.false_negatives,
              config.test_runs_per_fault);
  }
}

// The test runs fan out over the shared pool; the tallies must not depend
// on how many workers ran them.
TEST(EvaluateTest, TalliesDoNotDependOnThreadCount) {
  EvalConfig config;
  config.normal_runs = 4;
  config.test_runs_per_fault = 3;
  config.faults = {faults::FaultType::kCpuHog, faults::FaultType::kMemHog,
                   faults::FaultType::kSuspend};
  std::vector<EvalResult> results;
  for (int threads : {1, 4}) {
    config.pipeline.num_threads = threads;
    Result<EvalResult> result = RunEvaluation(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(result.value()));
  }
  const EvalResult& serial = results[0];
  const EvalResult& pooled = results[1];
  ASSERT_EQ(serial.per_fault.size(), pooled.per_fault.size());
  for (size_t f = 0; f < serial.per_fault.size(); ++f) {
    const FaultOutcome& a = serial.per_fault[f];
    const FaultOutcome& b = pooled.per_fault[f];
    EXPECT_EQ(a.fault, b.fault);
    EXPECT_EQ(a.true_positives, b.true_positives);
    EXPECT_EQ(a.false_positives, b.false_positives);
    EXPECT_EQ(a.false_negatives, b.false_negatives);
    EXPECT_EQ(a.undetected, b.undetected);
    EXPECT_EQ(a.unknown, b.unknown);
  }
  EXPECT_EQ(serial.confusion, pooled.confusion);
}

}  // namespace
}  // namespace invarnetx::core
