#ifndef INVARNETX_SERVE_REPLAY_H_
#define INVARNETX_SERVE_REPLAY_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "campaign/scenario.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "serve/fleet.h"
#include "telemetry/trace.h"

namespace invarnetx::serve {

// Knobs of a fleet replay. Like CampaignOptions, these are runtime concerns
// only: the rendered report is byte-identical for every `threads` and
// `shards` value (CI diffs the output across both).
struct ReplayOptions {
  int threads = 0;
  size_t window_capacity = 256;
  // Monitor shards of the underlying fleet (FleetConfig::shards); 0 = one
  // per hardware thread.
  int shards = 0;
  // Per-shard ingest ring capacity (FleetConfig::ring_capacity); 0 = auto,
  // sized so replay batches are never rejected.
  size_t ring_capacity = 0;
  // Caps the scenario test runs replayed (0 = all).
  int max_runs = 0;
  // Retrain every armed operation context from the scenario's fault-free
  // runs after each replayed test run - the serving-time shape of the
  // incremental maintenance path: each retrain publishes a fresh epoch
  // whose mining reuses the previous epoch's records (same training data,
  // so every pair digest matches and no pair is rescored). The report
  // gains a per-run retrain line with the rescored/reused split; verdicts
  // are unchanged (retrained models are identical, and in-flight monitors
  // pin their epoch regardless).
  bool retrain_each_run = false;
};

// One context armed in a fleet: the operation context and the dense handle
// its StartJob returned. The verdict renderer walks these in order, so the
// caller's arming order is the report's node order.
struct ArmedContext {
  core::OperationContext context;
  MonitorHandle handle = kInvalidMonitor;
};

// Renders every armed context's verdict after one finished job, in `armed`
// order - the exact per-node report lines of --replay, shared with the
// socket ingest front end so socket-fed verdicts diff clean against a
// local replay of the same samples.
void RenderVerdicts(const MonitorFleet& fleet,
                    const std::vector<ArmedContext>& armed,
                    const std::vector<FleetDiagnosis>& diagnoses,
                    std::ostream* out);

// Scenario serving state shared by --replay and the socket ingest mode: the
// pipeline trained from the scenario's fault-free runs plus the victim's
// signature catalog, the slave operation contexts in node order, and the
// report header line. Building this is steps 1-3 of ReplayScenario; what
// differs between the two modes is only where the test-run samples come
// from (simulated locally vs. streamed over a socket).
struct ScenarioFleetPlan {
  std::unique_ptr<core::InvarNetX> pipeline;
  // Slave contexts in node order; contexts[i] watches trace node
  // node_indices[i]. This order is the canonical HELLO / arming order.
  std::vector<core::OperationContext> contexts;
  std::vector<size_t> node_indices;
  // The fault-free training runs (kept for retrain_each_run).
  std::vector<telemetry::RunTrace> normal;
  int runs = 0;  // test runs to stream, after the max_runs cap
  std::string header;
};

Result<ScenarioFleetPlan> PrepareScenarioFleet(
    const campaign::Scenario& scenario, const ReplayOptions& options);

// The FleetConfig both modes build from the same options, so their fleets
// shard and backpressure identically.
FleetConfig MakeScenarioFleetConfig(const ReplayOptions& options,
                                    size_t expected_monitors);

// The closing line of a scenario replay, "summary: N alarm(s) over R run(s)
// x M monitor(s)", shared by --replay and the socket ingest mode so the two
// outputs diff clean.
std::string ReplaySummaryLine(uint64_t alarms, int runs, size_t monitors);

// Replays a fault-injection scenario through a MonitorFleet: simulates the
// scenario's fault-free runs, trains every slave's operation context,
// teaches the victim context the scenario's signature catalog, then streams
// each test run tick by tick through one monitor per slave - batched
// ingestion, alarm-triggered asynchronous diagnosis - and renders the
// per-run, per-node verdicts. The test runs replay the exact seed streams
// the offline campaign diagnoses, so fleet and campaign see the same data.
Result<std::string> ReplayScenario(const campaign::Scenario& scenario,
                                   const ReplayOptions& options);

// Replays one recorded trace against an already-trained pipeline. FIFO
// job-sequence traces re-arm every monitor at each job boundary (the
// paper's "selects a performance model from the archived models instantly");
// nodes whose operation context is untrained are skipped.
Result<std::string> ReplayTrace(const core::InvarNetX& pipeline,
                                const telemetry::RunTrace& trace,
                                const ReplayOptions& options);

}  // namespace invarnetx::serve

#endif  // INVARNETX_SERVE_REPLAY_H_
