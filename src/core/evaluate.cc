#include "core/evaluate.h"

#include <algorithm>
#include <iterator>

#include "common/parallel.h"

namespace invarnetx::core {
namespace {

// Distinct seed streams for normal / signature / test runs so changing one
// campaign parameter does not reshuffle the others.
constexpr uint64_t kSignatureStream = 0x20000;
constexpr uint64_t kTestStream = 0x40000;

}  // namespace

Result<std::vector<telemetry::RunTrace>> SimulateNormalRuns(
    workload::WorkloadType workload, int count, uint64_t seed,
    int interactive_ticks) {
  std::vector<telemetry::RunTrace> runs;
  runs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    telemetry::RunConfig config;
    config.workload = workload;
    config.interactive_ticks = interactive_ticks;
    config.seed = seed + static_cast<uint64_t>(i);
    Result<telemetry::RunTrace> trace = SimulateRun(config);
    if (!trace.ok()) return trace.status();
    runs.push_back(std::move(trace.value()));
  }
  return runs;
}

Result<telemetry::RunTrace> SimulateFaultRun(workload::WorkloadType workload,
                                             faults::FaultType fault,
                                             uint64_t seed) {
  telemetry::RunConfig config;
  config.workload = workload;
  config.seed = seed;
  config.fault =
      telemetry::FaultRequest{fault, telemetry::DefaultFaultWindow(fault)};
  return SimulateRun(config);
}

OperationContext VictimContext(const EvalConfig& config) {
  // Victim node i has ip 10.0.0.(i+1) on the testbed.
  return OperationContext{
      config.workload, "10.0.0." + std::to_string(config.victim_node + 1)};
}

Status TrainPipeline(InvarNetX* pipeline, const EvalConfig& config,
                     const std::vector<telemetry::RunTrace>& normal_runs) {
  const OperationContext context = VictimContext(config);
  if (pipeline->config().use_operation_context) {
    return pipeline->TrainContext(context, normal_runs, config.victim_node);
  }
  // No-operation-context baseline: one pooled model over every slave of
  // every training run.
  std::vector<InvarNetX::TrainExample> examples;
  for (const telemetry::RunTrace& run : normal_runs) {
    for (size_t node = 1; node < run.nodes.size(); ++node) {
      examples.push_back(InvarNetX::TrainExample{&run, node});
    }
  }
  return pipeline->TrainContextFromExamples(context, examples);
}

Result<EvalResult> RunEvaluation(const EvalConfig& config) {
  // The operation context is (workload type, node); the no-context baseline
  // therefore loses both dimensions: its single global model is trained on
  // every node of a mixture of every workload's normal runs, because
  // without context it cannot know which workload produced which trace.
  std::vector<telemetry::RunTrace> training;
  if (config.pipeline.use_operation_context) {
    Result<std::vector<telemetry::RunTrace>> normal_runs =
        SimulateNormalRuns(config.workload, config.normal_runs, config.seed,
                           config.interactive_train_ticks);
    if (!normal_runs.ok()) return normal_runs.status();
    training = std::move(normal_runs.value());
  } else {
    const int num_workloads =
        static_cast<int>(std::size(workload::kAllWorkloads));
    const int per_workload =
        std::max(2, config.normal_runs / num_workloads);
    for (workload::WorkloadType w : workload::kAllWorkloads) {
      Result<std::vector<telemetry::RunTrace>> runs =
          SimulateNormalRuns(w, per_workload, config.seed + 0x10000,
                             config.interactive_train_ticks);
      if (!runs.ok()) return runs.status();
      for (telemetry::RunTrace& run : runs.value()) {
        training.push_back(std::move(run));
      }
    }
  }

  InvarNetX pipeline(config.pipeline);
  INVARNETX_RETURN_IF_ERROR(TrainPipeline(&pipeline, config, training));

  std::vector<faults::FaultType> fault_list = config.faults;
  if (fault_list.empty()) {
    for (faults::FaultType fault : faults::AllFaults()) {
      if (faults::AppliesTo(fault, config.workload)) {
        fault_list.push_back(fault);
      }
    }
  }

  const OperationContext context = VictimContext(config);
  for (size_t fi = 0; fi < fault_list.size(); ++fi) {
    for (int rep = 0; rep < config.signature_train_runs; ++rep) {
      const uint64_t seed = config.seed + kSignatureStream +
                            static_cast<uint64_t>(fi) * 1000 +
                            static_cast<uint64_t>(rep);
      Result<telemetry::RunTrace> run =
          SimulateFaultRun(config.workload, fault_list[fi], seed);
      if (!run.ok()) return run.status();
      INVARNETX_RETURN_IF_ERROR(pipeline.AddSignature(
          context, faults::FaultName(fault_list[fi]), run.value(),
          config.victim_node));
    }
  }

  EvalResult result;
  result.workload = config.workload;
  std::map<faults::FaultType, FaultOutcome> outcomes;
  for (faults::FaultType fault : fault_list) {
    outcomes[fault].fault = fault;
  }

  // Each test run (simulate + diagnose) is independent and Diagnose is
  // const, so the campaign fans the runs out over the shared pool and
  // tallies sequentially afterwards.
  struct TestCase {
    size_t fault_index = 0;
    int rep = 0;
    DiagnosisReport report;
  };
  std::vector<TestCase> cases;
  cases.reserve(fault_list.size() *
                static_cast<size_t>(config.test_runs_per_fault));
  for (size_t fi = 0; fi < fault_list.size(); ++fi) {
    for (int rep = 0; rep < config.test_runs_per_fault; ++rep) {
      TestCase test;
      test.fault_index = fi;
      test.rep = rep;
      cases.push_back(std::move(test));
    }
  }
  INVARNETX_RETURN_IF_ERROR(ParallelFor(
      cases.size(), config.pipeline.num_threads, [&](size_t i) -> Status {
        TestCase& test = cases[i];
        const uint64_t seed = config.seed + kTestStream +
                              static_cast<uint64_t>(test.fault_index) * 1000 +
                              static_cast<uint64_t>(test.rep);
        Result<telemetry::RunTrace> run = SimulateFaultRun(
            config.workload, fault_list[test.fault_index], seed);
        if (!run.ok()) return run.status();
        Result<DiagnosisReport> report =
            pipeline.Diagnose(context, run.value(), config.victim_node);
        if (!report.ok()) return report.status();
        test.report = std::move(report.value());
        return Status::Ok();
      }));

  for (const TestCase& test : cases) {
    const faults::FaultType truth = fault_list[test.fault_index];
    const std::string truth_name = faults::FaultName(truth);
    const DiagnosisReport& report = test.report;

    FaultOutcome& outcome = outcomes[truth];
    if (!report.anomaly_detected) {
      ++outcome.undetected;
      ++outcome.false_negatives;
      ++result.confusion[truth_name]["undetected"];
      continue;
    }
    if (!report.known_problem) {
      ++outcome.unknown;
      ++outcome.false_negatives;
      ++result.confusion[truth_name]["unknown"];
      continue;
    }
    const std::string& predicted = report.causes[0].problem;
    ++result.confusion[truth_name][predicted];
    if (predicted == truth_name) {
      ++outcome.true_positives;
    } else {
      ++outcome.false_negatives;
      Result<faults::FaultType> predicted_type =
          faults::FaultFromName(predicted);
      if (predicted_type.ok() && outcomes.count(predicted_type.value()) > 0) {
        ++outcomes[predicted_type.value()].false_positives;
      }
    }
  }

  double precision_sum = 0.0, recall_sum = 0.0;
  for (faults::FaultType fault : fault_list) {
    result.per_fault.push_back(outcomes[fault]);
    precision_sum += outcomes[fault].precision();
    recall_sum += outcomes[fault].recall();
  }
  if (!result.per_fault.empty()) {
    result.avg_precision = precision_sum / result.per_fault.size();
    result.avg_recall = recall_sum / result.per_fault.size();
  }
  return result;
}

}  // namespace invarnetx::core
