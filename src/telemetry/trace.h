#ifndef INVARNETX_TELEMETRY_TRACE_H_
#define INVARNETX_TELEMETRY_TRACE_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "telemetry/metrics.h"
#include "workload/spec.h"

namespace invarnetx::telemetry {

// Time series recorded for one node over one run: the 26 metrics plus the
// perf-style CPI samples, one value per 10 s tick.
struct NodeTrace {
  std::string ip;
  std::array<std::vector<double>, kNumMetrics> metrics;
  std::vector<double> cpi;
};

// Ground truth of the fault injected into a run (absent for normal runs).
struct FaultGroundTruth {
  faults::FaultType type = faults::FaultType::kCpuHog;
  faults::FaultWindow window;
};

// One job's span within a multi-job (FIFO sequence) trace.
struct JobSpanInfo {
  workload::WorkloadType type = workload::WorkloadType::kWordCount;
  int start_tick = 0;
  int end_tick = -1;  // exclusive; -1 if still running at trace end
};

// Everything observed during one run of one workload.
struct RunTrace {
  workload::WorkloadType workload = workload::WorkloadType::kWordCount;
  std::vector<NodeTrace> nodes;
  int ticks = 0;
  double duration_seconds = 0.0;
  bool finished = false;  // batch job completed within the tick budget
  // Primary injected fault (absent for normal runs) and, for multi-fault
  // runs, the full injection list (injected.front() == *fault).
  std::optional<FaultGroundTruth> fault;
  std::vector<FaultGroundTruth> injected;
  // For FIFO job-sequence traces: the per-job spans (empty for single-job
  // runs, where `workload` describes the whole trace).
  std::vector<JobSpanInfo> job_spans;
};

}  // namespace invarnetx::telemetry

#endif  // INVARNETX_TELEMETRY_TRACE_H_
