// FIFO-queue monitoring: the closest thing to the paper's deployment story.
// A queue of batch jobs (grep -> wordcount -> grep) runs under Hadoop's
// FIFO mode; at every job arrival the node's monitor "selects a performance
// model from the archived models instantly" (Sec. 3.2) by arming the job's
// operation context in a serve::MonitorFleet; a disk hog strikes during the
// middle job; the alarm fires, cause inference runs on the alarmed window,
// and a cluster-wide scan localizes the culprit node (the paper's Fig. 1).
//
// Usage: fifo_monitor [seed]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/cluster_diagnosis.h"
#include "core/evaluate.h"
#include "serve/fleet.h"

int main(int argc, char** argv) {
  namespace core = invarnetx::core;
  namespace faults = invarnetx::faults;
  namespace serve = invarnetx::serve;
  namespace telemetry = invarnetx::telemetry;
  using invarnetx::workload::WorkloadType;

  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const size_t victim = 1;  // 10.0.0.2

  // ---- offline: train contexts for both workload types on every slave ----
  core::InvarNetX invarnet;
  for (WorkloadType type : {WorkloadType::kGrep, WorkloadType::kWordCount}) {
    auto normal = core::SimulateNormalRuns(type, 10, seed);
    if (!normal.ok()) {
      std::fprintf(stderr, "%s\n", normal.status().ToString().c_str());
      return 1;
    }
    for (size_t node = 1; node <= 4; ++node) {
      const core::OperationContext context{
          type, "10.0.0." + std::to_string(node + 1)};
      if (auto st = invarnet.TrainContext(context, normal.value(), node);
          !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    // Teach the victim-node signature base every applicable fault.
    uint64_t fi = 0;
    for (faults::FaultType f : faults::AllFaults()) {
      if (!faults::AppliesTo(f, type)) continue;
      for (uint64_t rep = 0; rep < 2; ++rep) {
        auto run = core::SimulateFaultRun(type, f,
                                          seed + 0x20000 + fi * 1000 + rep);
        (void)invarnet.AddSignature(
            core::OperationContext{type, "10.0.0.2"}, faults::FaultName(f),
            run.value(), victim);
      }
      ++fi;
    }
  }
  std::printf("trained grep+wordcount contexts on 4 slaves\n\n");

  // ---- the monitored trace: a FIFO queue with a mid-queue disk hog -------
  telemetry::SequenceConfig sequence;
  sequence.jobs = {WorkloadType::kGrep, WorkloadType::kWordCount,
                   WorkloadType::kGrep};
  sequence.seed = seed + 5;
  faults::FaultWindow window;
  window.start_tick = 45;  // lands inside the second job
  window.duration_ticks = 30;
  window.target_node = victim;
  sequence.fault = telemetry::FaultRequest{faults::FaultType::kDiskHog,
                                           window};
  auto trace = telemetry::SimulateJobSequence(sequence);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }

  // ---- online loop: arm the arriving job's context -----------------------
  // The node's monitor is a one-thread fleet: each operation context it has
  // seen is a monitor with its own handle, and StartJob (re-)arms the
  // arriving job's one. With threads = 1 an alarm's diagnosis runs inline,
  // inside the IngestTick that latches it.
  serve::FleetConfig fleet_config;
  fleet_config.threads = 1;
  serve::MonitorFleet fleet(&invarnet, fleet_config);
  const auto& node = trace.value().nodes[victim];
  const auto& spans = trace.value().job_spans;
  size_t span_index = 0;
  std::vector<serve::TickSample> batch;  // empty until the first job arrives
  for (int t = 0; t < trace.value().ticks; ++t) {
    if (span_index < spans.size() && spans[span_index].start_tick == t) {
      const core::OperationContext context{spans[span_index].type,
                                           "10.0.0.2"};
      auto handle = fleet.StartJob(context);
      if (!handle.ok()) {
        std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
        return 1;
      }
      batch.resize(1);
      batch[0].monitor = handle.value();
      std::printf("t=%3d  job %zu arrives: switched to model for %s\n", t,
                  span_index,
                  invarnetx::workload::WorkloadName(spans[span_index].type)
                      .c_str());
      ++span_index;
    }
    if (batch.empty()) continue;
    batch[0].cpi = node.cpi[static_cast<size_t>(t)];
    for (int m = 0; m < telemetry::kNumMetrics; ++m) {
      batch[0].metrics[static_cast<size_t>(m)] =
          node.metrics[static_cast<size_t>(m)][static_cast<size_t>(t)];
    }
    auto summary = fleet.IngestTick(batch);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
      return 1;
    }
    if (summary.value().new_alarms == 0) continue;
    const auto view = fleet.View(batch[0].monitor);
    std::printf("t=%3d  *** ALARM in %s (residual %.3f)\n", t,
                view->context.ToString().c_str(), view->last_residual);
    for (const serve::FleetDiagnosis& d : fleet.TakeDiagnoses()) {
      if (!d.status.ok()) {
        std::printf("t=%3d  cause inference failed: %s\n", t,
                    d.status.ToString().c_str());
        continue;
      }
      std::printf("t=%3d  cause inference for %s over its %d-tick window:\n",
                  t, d.context.ToString().c_str(), view->window_ticks);
      for (size_t k = 0; k < d.report.causes.size() && k < 3; ++k) {
        std::printf("         %-10s %.2f\n",
                    d.report.causes[k].problem.c_str(),
                    d.report.causes[k].score);
      }
    }
  }

  // ---- cluster-wide localization (the paper's Fig. 1) ---------------------
  // Which node is the culprit? Scan every slave's wordcount context over
  // the middle job's span.
  if (spans.size() >= 2 && spans[1].end_tick > 0) {
    telemetry::RunTrace middle;
    middle.workload = spans[1].type;
    middle.ticks = spans[1].end_tick - spans[1].start_tick;
    for (const auto& n : trace.value().nodes) {
      telemetry::NodeTrace sliced;
      sliced.ip = n.ip;
      sliced.cpi.assign(n.cpi.begin() + spans[1].start_tick,
                        n.cpi.begin() + spans[1].end_tick);
      for (int m = 0; m < invarnetx::telemetry::kNumMetrics; ++m) {
        sliced.metrics[static_cast<size_t>(m)].assign(
            n.metrics[static_cast<size_t>(m)].begin() + spans[1].start_tick,
            n.metrics[static_cast<size_t>(m)].begin() + spans[1].end_tick);
      }
      middle.nodes.push_back(std::move(sliced));
    }
    auto scan = core::DiagnoseCluster(invarnet, middle);
    if (scan.ok()) {
      std::printf("\ncluster scan of the anomalous job:\n");
      for (const auto& entry : scan.value().nodes) {
        std::printf("  %-9s %s (%d violations)\n", entry.node_ip.c_str(),
                    entry.report.anomaly_detected ? "ANOMALOUS" : "healthy",
                    entry.report.num_violations);
      }
      if (scan.value().AnyAnomaly()) {
        const auto& culprit =
            scan.value().nodes[static_cast<size_t>(scan.value().culprit)];
        std::printf("culprit: %s", culprit.node_ip.c_str());
        if (!culprit.report.causes.empty()) {
          std::printf(" - most probable cause: %s (%.2f)",
                      culprit.report.causes[0].problem.c_str(),
                      culprit.report.causes[0].score);
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
