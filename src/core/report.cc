#include "core/report.h"

#include <array>
#include <map>
#include <sstream>

#include "telemetry/metrics.h"

namespace invarnetx::core {
namespace {

// Coarse grouping of the 26 metrics for readable violation summaries.
const char* MetricFamily(int metric) {
  switch (metric) {
    case telemetry::kCpuUserPct:
    case telemetry::kCpuSysPct:
    case telemetry::kCpuIdlePct:
    case telemetry::kCpuIowaitPct:
    case telemetry::kLoadAvg1m:
    case telemetry::kCtxSwitchesPerSec:
    case telemetry::kInterruptsPerSec:
    case telemetry::kProcsRunning:
      return "cpu/scheduling";
    case telemetry::kMemUsedMb:
    case telemetry::kMemFreeMb:
    case telemetry::kMemCachedMb:
    case telemetry::kSwapUsedMb:
    case telemetry::kPageFaultsPerSec:
    case telemetry::kPagesInPerSec:
    case telemetry::kPagesOutPerSec:
      return "memory";
    case telemetry::kDiskReadKbps:
    case telemetry::kDiskWriteKbps:
    case telemetry::kDiskReadIops:
    case telemetry::kDiskWriteIops:
    case telemetry::kDiskUtilPct:
      return "disk";
    case telemetry::kNetRxKbps:
    case telemetry::kNetTxKbps:
    case telemetry::kNetRxPktsPerSec:
    case telemetry::kNetTxPktsPerSec:
    case telemetry::kTcpRetransPerSec:
      return "network";
    default:
      return "process";
  }
}

}  // namespace

std::string RenderIncidentReport(const OperationContext& context,
                                 const DiagnosisReport& report,
                                 const ContextModel& model, int run_ticks) {
  std::ostringstream out;
  out << "# Incident report - " << context.ToString() << "\n\n";
  if (!report.anomaly_detected) {
    out << "No performance anomaly detected";
    if (run_ticks > 0) out << " over " << run_ticks << " ticks";
    out << ".\n";
    return out.str();
  }
  out << "**Anomaly detected** at tick " << report.first_alarm_tick;
  if (run_ticks > 0) out << " of " << run_ticks;
  out << " (" << report.first_alarm_tick * 10 << " s into the window); "
      << report.num_violations << " of " << model.invariants.NumInvariants()
      << " likely invariants violated.\n\n";

  out << "## Ranked causes\n\n";
  if (report.causes.empty()) {
    out << "(signature database is empty)\n";
  }
  for (size_t i = 0; i < report.causes.size(); ++i) {
    out << (i + 1) << ". **" << report.causes[i].problem << "** (similarity "
        << report.causes[i].score << ")\n";
  }
  if (!report.known_problem) {
    out << "\nNo stored signature clears the similarity threshold - treat "
           "this as an *uninvestigated* problem and add its signature once "
           "resolved.\n";
  }
  if (report.used_causal_fallback && !report.suspects.empty()) {
    out << "\n## Causal suspects (invariant-graph ranking)\n\n";
    for (size_t i = 0; i < report.suspects.size(); ++i) {
      out << (i + 1) << ". **"
          << telemetry::MetricName(report.suspects[i].metric) << "** (blame "
          << report.suspects[i].score << ")\n";
    }
  }

  // Violations grouped by the metric families they touch.
  std::map<std::string, int> family_counts;
  const std::vector<int> pairs = model.invariants.PairIndices();
  for (size_t i = 0; i < report.violations.size() && i < pairs.size(); ++i) {
    if (!report.violations[i]) continue;
    int a = 0, b = 0;
    telemetry::PairFromIndex(pairs[i], &a, &b);
    const std::string fa = MetricFamily(a);
    const std::string fb = MetricFamily(b);
    ++family_counts[fa == fb ? fa : fa < fb ? fa + " ~ " + fb
                                            : fb + " ~ " + fa];
  }
  out << "\n## Violated associations by metric family\n\n";
  for (const auto& [family, count] : family_counts) {
    out << "- " << family << ": " << count << "\n";
  }
  if (!report.hints.empty()) {
    out << "\nExamples: ";
    for (size_t i = 0; i < report.hints.size() && i < 4; ++i) {
      out << (i > 0 ? "; " : "") << report.hints[i];
    }
    out << "\n";
  }

  // Self-measured diagnosis cost (the Table 1 counterpart): rendered only
  // when the report carries timings, so synthetic reports stay clean.
  if (report.cost.total_seconds > 0.0) {
    out << "\n## Diagnosis cost\n\n" << report.cost.Summary() << "\n";
  }

  // Conflict warnings for the top cause.
  if (!report.causes.empty()) {
    Result<std::vector<SignatureConflict>> conflicts =
        model.sigdb.FindConflicts(0.55);
    if (conflicts.ok()) {
      bool header = false;
      for (const SignatureConflict& c : conflicts.value()) {
        if (c.problem_a != report.causes[0].problem &&
            c.problem_b != report.causes[0].problem) {
          continue;
        }
        if (!header) {
          out << "\n## Signature conflicts involving the top cause\n\n";
          header = true;
        }
        out << "- " << c.problem_a << " ~ " << c.problem_b << " (similarity "
            << c.similarity << "): these problems are hard to tell apart; "
            << "verify manually.\n";
      }
    }
  }
  return out.str();
}

std::string RenderClusterReport(const InvarNetX& pipeline,
                                const ClusterDiagnosis& scan,
                                workload::WorkloadType workload,
                                int run_ticks) {
  std::ostringstream out;
  out << "# Cluster scan - " << workload::WorkloadName(workload) << "\n\n";
  for (const NodeDiagnosis& entry : scan.nodes) {
    out << "- " << entry.node_ip << ": ";
    if (!entry.context_trained) {
      out << "context not trained\n";
    } else if (!entry.report.anomaly_detected) {
      out << "healthy\n";
    } else {
      out << "**ANOMALOUS** (" << entry.report.num_violations
          << " violations)\n";
    }
  }
  if (!scan.AnyAnomaly()) {
    out << "\nNo node raised an alarm.\n";
    return out.str();
  }
  const NodeDiagnosis& culprit =
      scan.nodes[static_cast<size_t>(scan.culprit)];
  out << "\nCulprit: **" << culprit.node_ip << "**\n\n---\n\n";
  const OperationContext context{workload, culprit.node_ip};
  Result<std::shared_ptr<const ContextModel>> model =
      pipeline.GetContext(context);
  if (model.ok()) {
    out << RenderIncidentReport(context, culprit.report, *model.value(),
                                run_ticks);
  }
  return out.str();
}

}  // namespace invarnetx::core
