// Serving-path benchmark of InvarNet-X: shared types of the three workloads
// (ingest, wire, incident), the span recorder the traced run uses, and the
// metric set every run prints. See README.md in this directory.
#ifndef INVARNETX_PERFBENCH_SERVEBENCH_H_
#define INVARNETX_PERFBENCH_SERVEBENCH_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "faults/fault.h"
#include "telemetry/trace.h"

namespace invarnetx::perfbench {

// Fixed sizes. Thread and shard counts are never 0 (= one per hardware
// thread): the benchmark thread plus these stay within a 4-CPU machine.
inline constexpr int kMonitors = 2000;
inline constexpr int kWindowTicks = 64;
inline constexpr int kFleetThreads = 2;
inline constexpr int kFleetShards = 2;
inline constexpr int kPipelineThreads = 1;
// Monitors watching fault-injected runs on the incident workload.
inline constexpr int kIncidentMonitors = 2;
// One tick of one node: [cpi, metric 0..25].
inline constexpr size_t kRow = 1 + static_cast<size_t>(telemetry::kNumMetrics);

struct Options {
  std::string workload;  // ingest | wire | incident
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON of the traced run
  int monitors = kMonitors;
  int setups = 9;  // set-up repetitions; setup_s is their median
  // Self-test hooks: each must make the output checks fail.
  bool corrupt_verdict = false;  // flip one byte of one incident verdict
  bool reject_sample = false;    // ring capacity one below a shard's load
};

// A clock reading in nanoseconds since the first call.
int64_t NowNs();

// A failed library call ends the benchmark with exit code 2 and no result
// line: the figures of a run whose program misbehaves are not reported.
inline void Die(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T OrDie(Result<T> result, const char* what) {
  Die(result.status(), what);
  return std::move(result).value();
}

// --- Inputs, all simulated from the seed before any set-up is timed. ---

// One fault-injected run replayed by an incident monitor: the watched
// node's rows and the injected fault.
struct FaultCase {
  faults::FaultType fault = faults::FaultType::kCpuHog;
  bool held_out = false;     // no signature taught for this class
  std::vector<double> rows;  // row-major, kRow values per tick

  size_t ticks() const { return rows.size() / kRow; }
};

struct Inputs {
  std::vector<telemetry::RunTrace> normal;  // training runs
  // Background traffic, one job per run as `invarnetx stream` sends it:
  // runs[r][n] holds slave n's rows of pool run r, row-major. Every run is
  // cut to the shortest run of the pool, so a job is job_ticks ticks.
  std::vector<std::vector<std::vector<double>>> runs;
  size_t job_ticks = 0;
  // Signature catalog (incident): one run per taught fault class and rep.
  std::vector<telemetry::RunTrace> signature_runs;
  std::vector<faults::FaultType> signature_faults;
  // Per incident monitor, its queue of distinct fault runs.
  std::vector<std::vector<FaultCase>> incident_queues;
};

Inputs SimulateInputs(const Options& options);

// --- Span recorder for the traced run. ---

// Records one span per call the benchmark makes into a library module:
// name, module (layer), start, end, parent span and request id. Spans stay
// in memory until the run ends. When disabled a Scope costs one branch.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";   // "<module>.<function>", a string literal
    const char* layer = "";  // module name, a string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t request = -1;  // tick index or alarm id
    int track = 0;         // 0: the benchmark thread; 1: async verdicts
  };

  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, const char* layer,
          int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  bool enabled = false;

  // A span that was not timed by a Scope (async verdicts, derived costs).
  void Add(Span span);
  // Durations in seconds of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  // Self time per layer on track 0: duration minus the part covered by
  // child spans. Layer -> {calls, self seconds}.
  std::map<std::string, std::pair<uint64_t, double>> SelfTimeByLayer() const;
  // Chrome trace-event JSON of every span.
  std::string RenderChromeTrace() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices (track 0)
};

// --- Results. ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // informational lines
};

// Runs one workload end to end (set-up, warm-up, timed phase, checks) and
// fills `outcome`. With options.trace the timed phase is split: an
// untraced half, then a traced half whose spans give the per-layer
// metrics and the tracing overhead.
void RunWorkload(const Options& options, const Inputs& inputs,
                 SpanRecorder* spans, Outcome* outcome);

// Percentile by nearest rank over an unsorted copy; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace invarnetx::perfbench

#endif  // INVARNETX_PERFBENCH_SERVEBENCH_H_
