#include "campaign/scoreboard.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/log.h"
#include "telemetry/metrics.h"

namespace invarnetx::campaign {
namespace {

// Fixed-width decimal rendering: the one double format used in every
// scoreboard, so output is byte-stable across locales and platforms.
std::string Fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string GoldenPath(const std::string& golden_dir,
                       const std::string& name) {
  return (std::filesystem::path(golden_dir) / (name + ".report.txt"))
      .string();
}

}  // namespace

std::string RenderCsv(const CampaignResult& result) {
  std::ostringstream out;
  out << "scenario,workload,fault,expected_cause,hold_out,test_runs,detected,"
         "top1_correct,topk_correct,precision_at_1,precision_at_k,recall,"
         "map,mean_detection_latency_ticks,causal_precision_at_1,"
         "causal_precision_at_k,causal_recall,causal_recall_at_3,causal_map\n";
  for (const ScenarioScore& s : result.scores) {
    out << s.name << ',' << workload::WorkloadName(s.workload) << ','
        << faults::FaultName(s.fault) << ',' << s.expected_cause << ','
        << (s.hold_out ? 1 : 0) << ','
        << s.test_runs << ',' << s.detected << ',' << s.top1_correct << ','
        << s.topk_correct << ',' << Fixed(s.precision_at_1) << ','
        << Fixed(s.precision_at_k) << ',' << Fixed(s.recall) << ','
        << Fixed(s.map) << ',' << Fixed(s.mean_detection_latency_ticks)
        << ',' << Fixed(s.causal_precision_at_1) << ','
        << Fixed(s.causal_precision_at_k) << ',' << Fixed(s.causal_recall)
        << ',' << Fixed(s.causal_recall_at_3) << ',' << Fixed(s.causal_map)
        << '\n';
  }
  return out.str();
}

std::string RenderJson(const CampaignResult& result) {
  std::ostringstream out;
  out << "{\n  \"scenarios\": [";
  for (size_t i = 0; i < result.scores.size(); ++i) {
    const ScenarioScore& s = result.scores[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": " << obs::JsonString(s.name) << ", \"workload\": \""
        << workload::WorkloadName(s.workload) << "\", \"fault\": \""
        << faults::FaultName(s.fault) << "\", \"expected_cause\": "
        << obs::JsonString(s.expected_cause) << ", \"hold_out\": "
        << (s.hold_out ? "true" : "false")
        << ", \"test_runs\": " << s.test_runs
        << ", \"detected\": " << s.detected
        << ", \"top1_correct\": " << s.top1_correct
        << ", \"topk_correct\": " << s.topk_correct
        << ", \"precision_at_1\": " << Fixed(s.precision_at_1)
        << ", \"precision_at_k\": " << Fixed(s.precision_at_k)
        << ", \"recall\": " << Fixed(s.recall) << ", \"map\": "
        << Fixed(s.map) << ", \"mean_detection_latency_ticks\": "
        << Fixed(s.mean_detection_latency_ticks)
        << ", \"causal_precision_at_1\": " << Fixed(s.causal_precision_at_1)
        << ", \"causal_precision_at_k\": " << Fixed(s.causal_precision_at_k)
        << ", \"causal_recall\": " << Fixed(s.causal_recall)
        << ", \"causal_recall_at_3\": " << Fixed(s.causal_recall_at_3)
        << ", \"causal_map\": " << Fixed(s.causal_map) << ", \"runs\": [";
    for (size_t r = 0; r < s.runs.size(); ++r) {
      const RunOutcome& run = s.runs[r];
      out << (r == 0 ? "" : ", ") << "{\"rep\": " << run.rep
          << ", \"detected\": " << (run.detected ? "true" : "false")
          << ", \"first_alarm_tick\": " << run.first_alarm_tick
          << ", \"num_violations\": " << run.num_violations
          << ", \"expected_rank\": " << run.expected_rank
          << ", \"top_cause\": "
          << obs::JsonString(run.causes.empty() ? "" : run.causes[0].problem)
          << ", \"causal_rank\": " << run.causal_rank
          << ", \"causal_fallback\": "
          << (run.used_causal_fallback ? "true" : "false")
          << ", \"top_suspect\": \""
          << (run.suspects.empty()
                  ? ""
                  : telemetry::MetricName(run.suspects[0].metric))
          << "\"}";
    }
    out << "]}";
  }
  out << "\n  ],\n  \"summary\": {\"scenarios\": " << result.scores.size()
      << ", \"test_runs\": " << result.total_test_runs
      << ", \"known_scenarios\": " << result.known_scenarios
      << ", \"holdout_scenarios\": " << result.holdout_scenarios
      << ", \"mean_precision_at_1\": " << Fixed(result.mean_precision_at_1)
      << ", \"mean_precision_at_k\": " << Fixed(result.mean_precision_at_k)
      << ", \"mean_recall\": " << Fixed(result.mean_recall)
      << ", \"mean_map\": " << Fixed(result.mean_map)
      << ", \"mean_detection_latency_ticks\": "
      << Fixed(result.mean_detection_latency_ticks)
      << ", \"mean_known_precision_at_1\": "
      << Fixed(result.mean_known_precision_at_1)
      << ", \"mean_causal_precision_at_1\": "
      << Fixed(result.mean_causal_precision_at_1)
      << ", \"mean_causal_precision_at_k\": "
      << Fixed(result.mean_causal_precision_at_k)
      << ", \"mean_causal_recall\": " << Fixed(result.mean_causal_recall)
      << ", \"mean_causal_map\": " << Fixed(result.mean_causal_map)
      << ", \"mean_causal_recall_at_3\": "
      << Fixed(result.mean_causal_recall_at_3) << "}\n}\n";
  return out.str();
}

std::string RenderText(const CampaignResult& result) {
  std::ostringstream out;
  out << "scenario                    p@1      p@k      recall   map      "
         "c@1      c@3      cmap     latency  detected\n";
  for (const ScenarioScore& s : result.scores) {
    std::string name = s.name;
    if (name.size() < 26) name.resize(26, ' ');
    out << name << "  " << Fixed(s.precision_at_1) << " "
        << Fixed(s.precision_at_k) << " " << Fixed(s.recall) << " "
        << Fixed(s.map) << " " << Fixed(s.causal_precision_at_1) << " "
        << Fixed(s.causal_recall_at_3) << " " << Fixed(s.causal_map) << " "
        << Fixed(s.mean_detection_latency_ticks) << " " << s.detected << "/"
        << s.test_runs << (s.hold_out ? " unseen" : "") << "\n";
  }
  out << "mean over " << result.scores.size()
      << " scenarios: p@1=" << Fixed(result.mean_precision_at_1)
      << " p@k=" << Fixed(result.mean_precision_at_k)
      << " recall=" << Fixed(result.mean_recall)
      << " map=" << Fixed(result.mean_map)
      << " latency_ticks=" << Fixed(result.mean_detection_latency_ticks)
      << "\n";
  out << "signature engine (known faults, " << result.known_scenarios
      << " scenario(s)): p@1=" << Fixed(result.mean_known_precision_at_1)
      << "\n";
  out << "causal engine (all scenarios): c@1="
      << Fixed(result.mean_causal_precision_at_1)
      << " c@k=" << Fixed(result.mean_causal_precision_at_k)
      << " recall=" << Fixed(result.mean_causal_recall)
      << " map=" << Fixed(result.mean_causal_map)
      << "; recall@3 over " << result.holdout_scenarios
      << " unseen-fault scenario(s)="
      << Fixed(result.mean_causal_recall_at_3) << "\n";
  return out.str();
}

std::string RenderEngineComparison(const CampaignResult& result) {
  std::ostringstream out;
  out << "engine comparison           signature engine            causal "
         "engine\n"
      << "scenario                    p@1      p@k      map      c@1      "
         "c@k      cmap     sig_ms   causal_ms\n";
  for (const ScenarioScore& s : result.scores) {
    std::string name = s.name;
    if (name.size() < 26) name.resize(26, ' ');
    out << name << "  " << Fixed(s.precision_at_1) << " "
        << Fixed(s.precision_at_k) << " " << Fixed(s.map) << " "
        << Fixed(s.causal_precision_at_1) << " "
        << Fixed(s.causal_precision_at_k) << " " << Fixed(s.causal_map)
        << " " << Fixed(s.mean_signature_seconds * 1e3) << " "
        << Fixed(s.mean_causal_seconds * 1e3)
        << (s.hold_out ? " unseen" : "") << "\n";
  }
  return out.str();
}

std::string RenderScenarioReport(const ScenarioScore& score) {
  std::ostringstream out;
  out << "# campaign report - " << score.name << "\n"
      << "workload = " << workload::WorkloadName(score.workload) << "\n"
      << "fault = " << faults::FaultName(score.fault) << " @ tick "
      << score.window.start_tick << " for " << score.window.duration_ticks
      << " ticks on node " << score.window.target_node << "\n"
      << "mechanism = " << faults::FaultDescription(score.fault) << "\n"
      << "expected = " << score.expected_cause
      << (score.hold_out ? " (held out of the signature catalog)" : "")
      << "\n";
  out << "expected-metrics =";
  for (int metric : score.expected_metrics) {
    out << " " << telemetry::MetricName(metric);
  }
  out << "\n";
  for (const RunOutcome& run : score.runs) {
    out << "run " << run.rep << ": detected=" << (run.detected ? 1 : 0)
        << " alarm_tick=" << run.first_alarm_tick
        << " violations=" << run.num_violations
        << " expected_rank=" << run.expected_rank
        << " causal_rank=" << run.causal_rank
        << " fallback=" << (run.used_causal_fallback ? 1 : 0) << "\n";
    for (size_t i = 0; i < run.causes.size(); ++i) {
      out << "  " << (i + 1) << ". " << run.causes[i].problem << " "
          << Fixed(run.causes[i].score) << "\n";
    }
    if (!run.suspects.empty()) {
      out << "  suspects:\n";
      for (size_t i = 0; i < run.suspects.size(); ++i) {
        out << "    " << (i + 1) << ". "
            << telemetry::MetricName(run.suspects[i].metric) << " "
            << Fixed(run.suspects[i].score) << "\n";
      }
    }
  }
  out << "score: p@1=" << Fixed(score.precision_at_1)
      << " p@k=" << Fixed(score.precision_at_k)
      << " recall=" << Fixed(score.recall) << " map=" << Fixed(score.map)
      << " latency_ticks=" << Fixed(score.mean_detection_latency_ticks)
      << "\n"
      << "causal: c@1=" << Fixed(score.causal_precision_at_1)
      << " c@k=" << Fixed(score.causal_precision_at_k)
      << " recall=" << Fixed(score.causal_recall)
      << " recall@3=" << Fixed(score.causal_recall_at_3)
      << " map=" << Fixed(score.causal_map) << "\n";
  return out.str();
}

Status CheckOrUpdateGolden(const CampaignResult& result,
                           const std::string& golden_dir, bool update,
                           std::string* message) {
  if (update) {
    std::error_code ec;
    std::filesystem::create_directories(golden_dir, ec);
    if (ec) {
      return Status::IoError("cannot create golden dir " + golden_dir + ": " +
                             ec.message());
    }
    for (const ScenarioScore& score : result.scores) {
      const std::string path = GoldenPath(golden_dir, score.name);
      std::ofstream file(path, std::ios::binary);
      if (!file) return Status::IoError("cannot write " + path);
      file << RenderScenarioReport(score);
    }
    *message += "updated " + std::to_string(result.scores.size()) +
                " golden report(s) in " + golden_dir + "\n";
    return Status::Ok();
  }

  std::string drifted;
  for (const ScenarioScore& score : result.scores) {
    const std::string path = GoldenPath(golden_dir, score.name);
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      drifted += "  " + score.name + ": golden file missing (" + path + ")\n";
      continue;
    }
    std::ostringstream stored;
    stored << file.rdbuf();
    if (stored.str() != RenderScenarioReport(score)) {
      drifted += "  " + score.name + ": report drifted from " + path + "\n";
    }
  }
  if (!drifted.empty()) {
    *message += "golden-report mismatches (re-run with --update-golden after "
                "verifying the change is intended):\n" + drifted;
    return Status::FailedPrecondition("diagnosis reports drifted from golden");
  }
  *message += "golden reports match (" + std::to_string(result.scores.size()) +
              " scenario(s))\n";
  return Status::Ok();
}

}  // namespace invarnetx::campaign
