#ifndef INVARNETX_CAMPAIGN_RUNNER_H_
#define INVARNETX_CAMPAIGN_RUNNER_H_

#include <string>
#include <vector>

#include "campaign/scenario.h"
#include "causal/ranking.h"
#include "common/status.h"
#include "core/pipeline.h"

namespace invarnetx::campaign {

// Execution knobs of a campaign - runtime concerns only, never part of a
// scenario: results are bit-identical for every setting (the determinism
// property the tier-2 suite asserts).
struct CampaignOptions {
  // Workers for invariant mining and the per-scenario run fan-out
  // (<= 0: one per hardware thread; 1: serial).
  int threads = 0;
  bool use_assoc_cache = false;  // opt-in, see InvarNetXConfig
  // Ranked causes retained per diagnosis; precision@k scores against it.
  size_t top_k = 5;
};

// Outcome of diagnosing one test run of a scenario, carrying both engines'
// rankings: the signature engine's ranked causes and the causal-graph
// engine's ranked suspect metrics over the same violation evidence.
struct RunOutcome {
  int rep = 0;
  bool detected = false;
  bool known_problem = false;
  int first_alarm_tick = -1;
  int num_violations = 0;
  // 1-based rank of the expected cause in the ranked list; 0 = absent.
  int expected_rank = 0;
  std::vector<core::RankedCause> causes;
  // Causal engine: suspect metrics ranked over the broken-edge subgraph.
  std::vector<causal::RankedSuspect> suspects;
  // Best 1-based rank of any expected culprit metric among the suspects;
  // 0 = none ranked.
  int causal_rank = 0;
  // Whether the serving path would have fallen back (no signature cleared
  // the similarity threshold).
  bool used_causal_fallback = false;
  // Per-engine wall-clock diagnosis latency. NOT rendered by the
  // deterministic scoreboards - only by RenderEngineComparison.
  double signature_seconds = 0.0;
  double causal_seconds = 0.0;
};

// Diagnosis quality of one scenario, over its test runs.
struct ScenarioScore {
  std::string name;
  workload::WorkloadType workload = workload::WorkloadType::kWordCount;
  faults::FaultType fault = faults::FaultType::kCpuHog;
  std::string expected_cause;
  faults::FaultWindow window;
  int test_runs = 0;
  int detected = 0;       // anomaly detection fired
  int top1_correct = 0;   // expected cause ranked first
  int topk_correct = 0;   // expected cause within top_k
  int found_any = 0;      // expected cause anywhere in the ranked list
  double precision_at_1 = 0.0;  // top1_correct / test_runs
  double precision_at_k = 0.0;  // topk_correct / test_runs
  double recall = 0.0;          // found_any / test_runs
  // Mean average precision: with one relevant cause per run, AP reduces to
  // the reciprocal rank (0 when undetected or absent).
  double map = 0.0;
  // Mean (first_alarm_tick - fault start) over detected runs; negative
  // values mean the alarm pre-dates the injection (a false alarm that the
  // fault then "confirms").
  double mean_detection_latency_ticks = 0.0;

  // --- Causal engine (ranked-metric answer list) ---------------------
  bool hold_out = false;             // injected fault absent from catalog
  std::vector<int> expected_metrics;  // ground-truth culprit MetricIds
  int causal_top1_correct = 0;  // an expected metric ranked first
  int causal_topk_correct = 0;  // within top_k
  int causal_top3_correct = 0;  // within top 3 (the CI recall@3 gate)
  int causal_found = 0;         // anywhere in the suspect list
  double causal_precision_at_1 = 0.0;
  double causal_precision_at_k = 0.0;
  double causal_recall = 0.0;
  double causal_recall_at_3 = 0.0;
  double causal_map = 0.0;  // reciprocal causal_rank, averaged
  // Per-engine mean wall-clock latency over detected runs. NOT part of any
  // deterministic rendering (see scoreboard.h).
  double mean_signature_seconds = 0.0;
  double mean_causal_seconds = 0.0;

  std::vector<RunOutcome> runs;
};

// A whole campaign: per-scenario scores plus cross-scenario means. The
// signature-engine means are additionally split into known-fault (catalog
// contains the culprit) and hold-out scenarios, because on hold-outs the
// signature engine scores zero by construction and only the causal engine
// can be graded.
struct CampaignResult {
  std::vector<ScenarioScore> scores;
  int total_test_runs = 0;
  int known_scenarios = 0;    // catalog includes the injected fault
  int holdout_scenarios = 0;  // unknown-fault scenarios
  double mean_precision_at_1 = 0.0;
  double mean_precision_at_k = 0.0;
  double mean_recall = 0.0;
  double mean_map = 0.0;
  double mean_detection_latency_ticks = 0.0;  // over scenarios with alarms
  // Signature engine over known-fault scenarios only (the CI precision
  // gate - hold-outs would dilute it to zero).
  double mean_known_precision_at_1 = 0.0;
  // Causal engine over every scenario...
  double mean_causal_precision_at_1 = 0.0;
  double mean_causal_precision_at_k = 0.0;
  double mean_causal_recall = 0.0;
  double mean_causal_map = 0.0;
  // ...and its recall@3 over the hold-out scenarios alone (the CI
  // unknown-fault gate).
  double mean_causal_recall_at_3 = 0.0;
};

// Executes one scenario end to end: simulate fault-free runs, train the
// victim context, teach the signature database the scenario's problem
// catalog, then diagnose `test_runs` independently seeded injections and
// score the ranked causes against the expected root cause. Deterministic
// for a given scenario regardless of `options.threads`.
Result<ScenarioScore> RunScenario(const Scenario& scenario,
                                  const CampaignOptions& options);

// Seed-stream helpers shared with the serve replay layer: rep `i` of the
// scenario's fault-free and faulty test populations, on exactly the seed
// streams RunScenario uses - a fleet replay therefore streams byte-identical
// traces to the ones the campaign diagnosed offline.
Result<telemetry::RunTrace> SimulateScenarioNormalRun(const Scenario& scenario,
                                                      int rep);
Result<telemetry::RunTrace> SimulateScenarioTestRun(const Scenario& scenario,
                                                    int rep);
// Rep `rep` of the signature-teaching population for
// scenario.signature_faults[fault_index] (the fault injected in its default
// window, retargeted at the victim node - see RunScenario step 3).
Result<telemetry::RunTrace> SimulateScenarioSignatureRun(
    const Scenario& scenario, size_t fault_index, int rep);

// The node whose operation context the campaign diagnoses, and that
// context itself (victim slave for slave faults; slave 1 for master faults).
size_t ScenarioVictimNode(const Scenario& scenario);
core::OperationContext ScenarioVictimContext(const Scenario& scenario);

// Runs every scenario in order and fills the cross-scenario means.
Result<CampaignResult> RunCampaign(const std::vector<Scenario>& scenarios,
                                   const CampaignOptions& options);

}  // namespace invarnetx::campaign

#endif  // INVARNETX_CAMPAIGN_RUNNER_H_
