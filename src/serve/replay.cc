#include "serve/replay.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "campaign/runner.h"
#include "common/parallel.h"
#include "faults/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/fleet.h"

namespace invarnetx::serve {
namespace {

std::string FormatScore(double score) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", score);
  return buf;
}

// One monitor armed for a replayed job: which node of the trace it watches
// and the dense handle StartJob assigned (stamped into every TickSample so
// the ingest path skips the context map).
struct ArmedMonitor {
  size_t node_index = 0;
  core::OperationContext context;
  MonitorHandle handle = kInvalidMonitor;
};

// One sample per armed node at tick `t` of the trace.
std::vector<TickSample> SamplesAt(const telemetry::RunTrace& trace,
                                  const std::vector<ArmedMonitor>& armed,
                                  size_t t) {
  std::vector<TickSample> samples;
  samples.reserve(armed.size());
  for (const ArmedMonitor& m : armed) {
    const telemetry::NodeTrace& node = trace.nodes[m.node_index];
    TickSample sample;
    sample.monitor = m.handle;
    sample.cpi = node.cpi[t];
    for (int metric = 0; metric < telemetry::kNumMetrics; ++metric) {
      sample.metrics[static_cast<size_t>(metric)] =
          node.metrics[static_cast<size_t>(metric)][t];
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

// The verdict lines for one job, as ArmedContext rows for RenderVerdicts.
std::vector<ArmedContext> ToArmedContexts(
    const std::vector<ArmedMonitor>& armed) {
  std::vector<ArmedContext> contexts;
  contexts.reserve(armed.size());
  for (const ArmedMonitor& m : armed) {
    contexts.push_back(ArmedContext{m.context, m.handle});
  }
  return contexts;
}

}  // namespace

void RenderVerdicts(const MonitorFleet& fleet,
                    const std::vector<ArmedContext>& armed,
                    const std::vector<FleetDiagnosis>& diagnoses,
                    std::ostream* out) {
  for (const ArmedContext& m : armed) {
    const core::OperationContext& context = m.context;
    const std::optional<MonitorView> view = fleet.View(m.handle);
    if (!view.has_value() || !view->alarm_active) {
      *out << context.node_ip << ": healthy\n";
      continue;
    }
    *out << context.node_ip << ": ALARM tick " << view->first_alarm_tick;
    const FleetDiagnosis* diagnosis = nullptr;
    for (const FleetDiagnosis& d : diagnoses) {
      if (d.context == context) {
        diagnosis = &d;
        break;
      }
    }
    if (diagnosis == nullptr) {
      *out << " (diagnosis pending)\n";
      continue;
    }
    if (!diagnosis->status.ok()) {
      *out << " (diagnosis failed: " << diagnosis->status.ToString() << ")\n";
      continue;
    }
    *out << ", " << diagnosis->report.num_violations << " violations";
    if (!diagnosis->report.causes.empty()) {
      *out << " -> " << diagnosis->report.causes[0].problem << " "
           << FormatScore(diagnosis->report.causes[0].score);
      if (!diagnosis->report.known_problem) *out << " (below threshold)";
    } else {
      *out << " -> unknown problem";
    }
    // Unseen fault: the causal fallback ranked suspect metrics over the
    // broken invariant graph. Deterministic, so safe to render.
    if (diagnosis->report.used_causal_fallback &&
        !diagnosis->report.suspects.empty()) {
      *out << "; suspects:";
      const size_t shown = std::min<size_t>(diagnosis->report.suspects.size(),
                                            3);
      for (size_t i = 0; i < shown; ++i) {
        *out << (i == 0 ? " " : ", ")
             << telemetry::MetricName(diagnosis->report.suspects[i].metric)
             << " " << FormatScore(diagnosis->report.suspects[i].score);
      }
    }
    *out << " [epoch " << diagnosis->epoch << "]\n";
  }
}

Result<ScenarioFleetPlan> PrepareScenarioFleet(
    const campaign::Scenario& scenario, const ReplayOptions& options) {
  ScenarioFleetPlan plan;

  // 1. Fault-free runs on the campaign's normal seed stream.
  plan.normal.resize(static_cast<size_t>(scenario.normal_runs));
  INVARNETX_RETURN_IF_ERROR(ParallelFor(
      plan.normal.size(), options.threads, [&](size_t i) -> Status {
        Result<telemetry::RunTrace> trace =
            campaign::SimulateScenarioNormalRun(scenario,
                                                static_cast<int>(i));
        if (!trace.ok()) return trace.status();
        plan.normal[i] = std::move(trace.value());
        return Status::Ok();
      }));

  // 2. Train every slave's operation context - a fleet watches the whole
  // cluster, not just the campaign's victim.
  core::InvarNetXConfig pipeline_config;
  pipeline_config.num_threads = options.threads;
  plan.pipeline = std::make_unique<core::InvarNetX>(pipeline_config);
  for (int node = 1; node <= scenario.slaves; ++node) {
    const core::OperationContext context{
        scenario.workload, "10.0.0." + std::to_string(node + 1)};
    INVARNETX_RETURN_IF_ERROR(plan.pipeline->TrainContext(
        context, plan.normal, static_cast<size_t>(node)));
    plan.contexts.push_back(context);
    plan.node_indices.push_back(static_cast<size_t>(node));
  }

  // 3. Teach the victim context the scenario's signature catalog, on the
  // campaign's signature seed streams.
  const core::OperationContext victim =
      campaign::ScenarioVictimContext(scenario);
  for (size_t fi = 0; fi < scenario.signature_faults.size(); ++fi) {
    for (int rep = 0; rep < scenario.signature_runs; ++rep) {
      Result<telemetry::RunTrace> run =
          campaign::SimulateScenarioSignatureRun(scenario, fi, rep);
      if (!run.ok()) return run.status();
      INVARNETX_RETURN_IF_ERROR(plan.pipeline->AddSignature(
          victim, faults::FaultName(scenario.signature_faults[fi]),
          run.value(), campaign::ScenarioVictimNode(scenario)));
    }
  }

  plan.runs = scenario.test_runs;
  if (options.max_runs > 0) plan.runs = std::min(plan.runs, options.max_runs);
  std::ostringstream header;
  header << "replay " << scenario.name << ": " << plan.contexts.size()
         << " monitors, " << plan.runs << " run(s), window "
         << options.window_capacity << " ticks, fault "
         << faults::FaultName(scenario.fault) << "\n";
  plan.header = header.str();
  return plan;
}

FleetConfig MakeScenarioFleetConfig(const ReplayOptions& options,
                                    size_t expected_monitors) {
  FleetConfig fleet_config;
  fleet_config.window_capacity = options.window_capacity;
  fleet_config.threads = options.threads;
  fleet_config.shards = options.shards;
  fleet_config.ring_capacity = options.ring_capacity;
  fleet_config.expected_monitors = expected_monitors;
  return fleet_config;
}

std::string ReplaySummaryLine(uint64_t alarms, int runs, size_t monitors) {
  return "summary: " + std::to_string(alarms) + " alarm(s) over " +
         std::to_string(runs) + " run(s) x " + std::to_string(monitors) +
         " monitor(s)\n";
}

Result<std::string> ReplayScenario(const campaign::Scenario& scenario,
                                   const ReplayOptions& options) {
  Result<ScenarioFleetPlan> prepared = PrepareScenarioFleet(scenario, options);
  if (!prepared.ok()) return prepared.status();
  ScenarioFleetPlan& plan = prepared.value();
  core::InvarNetX& pipeline = *plan.pipeline;
  const std::vector<telemetry::RunTrace>& normal = plan.normal;

  std::vector<ArmedMonitor> armed;
  for (size_t i = 0; i < plan.contexts.size(); ++i) {
    armed.push_back(ArmedMonitor{plan.node_indices[i], plan.contexts[i],
                                 kInvalidMonitor});
  }

  // 4. Stream each test run through the fleet, one job per run.
  MonitorFleet fleet(&pipeline,
                     MakeScenarioFleetConfig(options, armed.size()));

  const int runs = plan.runs;
  std::ostringstream out;
  out << plan.header;

  uint64_t total_alarms = 0;
  for (int rep = 0; rep < runs; ++rep) {
    Result<telemetry::RunTrace> trace =
        campaign::SimulateScenarioTestRun(scenario, rep);
    if (!trace.ok()) return trace.status();
    for (ArmedMonitor& m : armed) {
      Result<MonitorHandle> handle = fleet.StartJob(m.context);
      if (!handle.ok()) return handle.status();
      m.handle = handle.value();
    }
    const size_t ticks = trace.value().nodes[1].cpi.size();
    for (size_t t = 0; t < ticks; ++t) {
      Result<TickSummary> summary =
          fleet.IngestTick(SamplesAt(trace.value(), armed, t));
      if (!summary.ok()) return summary.status();
    }
    fleet.WaitForDiagnoses();
    const std::vector<FleetDiagnosis> diagnoses = fleet.TakeDiagnoses();
    out << "== run " << rep << " ==\n";
    RenderVerdicts(fleet, ToArmedContexts(armed), diagnoses, &out);
    total_alarms += fleet.alarms_active();
    if (options.retrain_each_run) {
      // Incremental retrain between runs: every context re-mines from the
      // same fault-free streams, so the published epoch advances while the
      // dirty-pair rule reuses the entire previous matrix. The rescored /
      // reused split is digest-driven and therefore deterministic across
      // thread counts, so it is safe to render.
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
      obs::Counter& rescored_counter =
          registry.GetCounter("pipeline.pairs_rescored");
      obs::Counter& reused_counter =
          registry.GetCounter("pipeline.pairs_reused");
      const uint64_t rescored_before = rescored_counter.value();
      const uint64_t reused_before = reused_counter.value();
      for (const ArmedMonitor& m : armed) {
        INVARNETX_RETURN_IF_ERROR(
            pipeline.TrainContext(m.context, normal, m.node_index));
      }
      out << "retrain: " << armed.size() << " context(s), pairs rescored "
          << (rescored_counter.value() - rescored_before) << ", reused "
          << (reused_counter.value() - reused_before) << "\n";
    }
  }
  out << ReplaySummaryLine(total_alarms, runs, armed.size());
  return out.str();
}

Result<std::string> ReplayTrace(const core::InvarNetX& pipeline,
                                const telemetry::RunTrace& trace,
                                const ReplayOptions& options) {
  if (trace.nodes.empty() || trace.ticks <= 0) {
    return Status::InvalidArgument("ReplayTrace: empty trace");
  }
  // A plain trace is one job spanning the whole observation; FIFO-sequence
  // traces carry their own span list and re-arm monitors per job.
  std::vector<telemetry::JobSpanInfo> spans = trace.job_spans;
  if (spans.empty()) {
    spans.push_back(
        telemetry::JobSpanInfo{trace.workload, 0, trace.ticks});
  }

  // Sizing hint: one monitor per node (a FIFO-sequence trace arms one per
  // node and job type, so the hint is a lower bound there).
  MonitorFleet fleet(&pipeline,
                     MakeScenarioFleetConfig(options, trace.nodes.size()));

  std::ostringstream out;
  for (size_t j = 0; j < spans.size(); ++j) {
    telemetry::JobSpanInfo span = spans[j];
    if (span.end_tick < 0) span.end_tick = trace.ticks;
    if (span.end_tick <= span.start_tick) continue;

    // Arm a monitor for every node whose operation context is archived.
    std::vector<ArmedMonitor> armed;
    for (size_t n = 0; n < trace.nodes.size(); ++n) {
      const core::OperationContext context{span.type, trace.nodes[n].ip};
      if (!pipeline.HasContext(context)) continue;
      Result<MonitorHandle> handle = fleet.StartJob(context);
      if (!handle.ok()) return handle.status();
      armed.push_back(ArmedMonitor{n, context, handle.value()});
    }
    out << "== job " << j << " (" << workload::WorkloadName(span.type)
        << ", ticks " << span.start_tick << ".." << span.end_tick << ", "
        << armed.size() << " monitor(s)) ==\n";
    if (armed.empty()) {
      out << "(no trained contexts for this job)\n";
      continue;
    }
    for (int t = span.start_tick; t < span.end_tick; ++t) {
      Result<TickSummary> summary = fleet.IngestTick(
          SamplesAt(trace, armed, static_cast<size_t>(t)));
      if (!summary.ok()) return summary.status();
    }
    fleet.WaitForDiagnoses();
    const std::vector<FleetDiagnosis> diagnoses = fleet.TakeDiagnoses();
    RenderVerdicts(fleet, ToArmedContexts(armed), diagnoses, &out);
  }
  return out.str();
}

}  // namespace invarnetx::serve
