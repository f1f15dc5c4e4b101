// Input generation: every sample the program sees is simulated here, from
// the seed alone, before any set-up clock starts.
#include <algorithm>
#include <cmath>
#include <iterator>

#include "core/evaluate.h"
#include "perfbench/servebench.h"
#include "telemetry/runner.h"

namespace invarnetx::perfbench {
namespace {

using workload::WorkloadType;

// Training runs of the pooled model, and the pool of other normal runs
// the background monitors replay, so they see data the model has not
// memorised.
constexpr int kTrainRuns = 4;
constexpr int kStreamRuns = 16;
constexpr int kSignatureReps = 2;
// Incident fault runs simulated per monitor and timed second. A monitor
// got through about 35 a second on a 4-CPU box; the timed phase ends early
// (and the run says so) when a queue runs dry, so this leaves room for the
// program to get almost twice as fast.
constexpr int kCasesPerSecond = 64;

// Fault classes with no taught signature: their verdicts exercise the
// causal fallback.
bool HeldOut(faults::FaultType fault) {
  return fault == faults::FaultType::kMemHog ||
         fault == faults::FaultType::kThreadLeak;
}

// The first `ticks` rows of a node, row-major [cpi, metric 0..25].
std::vector<double> Rows(const telemetry::NodeTrace& node, size_t ticks) {
  std::vector<double> rows;
  rows.reserve(ticks * kRow);
  for (size_t t = 0; t < ticks; ++t) {
    rows.push_back(node.cpi[t]);
    for (int m = 0; m < telemetry::kNumMetrics; ++m) {
      rows.push_back(node.metrics[static_cast<size_t>(m)][t]);
    }
  }
  return rows;
}

// A wordcount run with `fault` on slave 1, starting mid-run so the window
// a diagnosis sees mixes normal and faulty ticks.
telemetry::RunTrace FaultRun(faults::FaultType fault, uint64_t seed,
                             int start_tick) {
  telemetry::RunConfig config;
  config.workload = WorkloadType::kWordCount;
  config.seed = seed;
  faults::FaultWindow window;
  window.start_tick = start_tick;
  window.duration_ticks = 30;
  window.target_node = 1;
  config.fault = telemetry::FaultRequest{fault, window};
  return OrDie(telemetry::SimulateRun(config), "SimulateRun");
}

}  // namespace

Inputs SimulateInputs(const Options& options) {
  Inputs inputs;
  const uint64_t base = options.seed * 1000003ULL;
  std::vector<telemetry::RunTrace> pool =
      OrDie(core::SimulateNormalRuns(WorkloadType::kWordCount,
                                     kTrainRuns + kStreamRuns, base),
            "SimulateNormalRuns");
  inputs.normal.assign(std::make_move_iterator(pool.begin()),
                       std::make_move_iterator(pool.begin() + kTrainRuns));
  pool.erase(pool.begin(), pool.begin() + kTrainRuns);

  inputs.job_ticks = pool[0].nodes[1].cpi.size();
  for (const telemetry::RunTrace& run : pool) {
    inputs.job_ticks = std::min(inputs.job_ticks, run.nodes[1].cpi.size());
  }
  for (const telemetry::RunTrace& run : pool) {
    std::vector<std::vector<double>>& slaves = inputs.runs.emplace_back();
    for (size_t n = 1; n < run.nodes.size(); ++n) {
      slaves.push_back(Rows(run.nodes[n], inputs.job_ticks));
    }
  }

  if (options.workload != "incident") return inputs;

  std::vector<faults::FaultType> classes;
  for (faults::FaultType fault : faults::AllFaults()) {
    if (faults::AppliesTo(fault, WorkloadType::kWordCount)) {
      classes.push_back(fault);
    }
  }
  uint64_t signature_seed = base + 100000;
  for (faults::FaultType fault : classes) {
    if (HeldOut(fault)) continue;
    for (int rep = 0; rep < kSignatureReps; ++rep) {
      inputs.signature_runs.push_back(
          FaultRun(fault, signature_seed++, 20 + 6 * rep));
      inputs.signature_faults.push_back(fault);
    }
  }

  const int cases = std::max(
      16, static_cast<int>(std::ceil(options.seconds * kCasesPerSecond)));
  inputs.incident_queues.resize(kIncidentMonitors);
  for (int m = 0; m < kIncidentMonitors; ++m) {
    for (int k = 0; k < cases; ++k) {
      const size_t c = static_cast<size_t>(k * kIncidentMonitors + m) %
                       classes.size();
      FaultCase fault_case;
      fault_case.fault = classes[c];
      fault_case.held_out = HeldOut(classes[c]);
      // Case k of monitor m is the same run whatever the queue length.
      const uint64_t seed = base + 200000 +
                            static_cast<uint64_t>(m) * 100000 +
                            static_cast<uint64_t>(k);
      const telemetry::RunTrace run =
          FaultRun(classes[c], seed, 20 + (k * 7 + m * 3) % 12);
      fault_case.rows = Rows(run.nodes[1], run.nodes[1].cpi.size());
      inputs.incident_queues[static_cast<size_t>(m)].push_back(
          std::move(fault_case));
    }
  }
  return inputs;
}

}  // namespace invarnetx::perfbench
