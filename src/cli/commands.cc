#include "cli/commands.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "campaign/scenario.h"
#include "campaign/scoreboard.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "serve/fleet.h"
#include "serve/replay.h"
#include "serve/statusz.h"
#include "core/cluster_diagnosis.h"
#include "core/evaluate.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "obs/http.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "telemetry/runner.h"
#include "telemetry/trace_io.h"

namespace invarnetx::cli {
namespace {

Result<uint64_t> ParseSeed(const CommandLine& args) {
  const std::string raw = args.Get("seed", "42");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str()) {
    return Status::InvalidArgument("bad --seed: " + raw);
  }
  return static_cast<uint64_t>(v);
}

// Index of the node with the given ip inside a trace.
Result<size_t> NodeIndexOf(const telemetry::RunTrace& trace,
                           const std::string& ip) {
  for (size_t i = 0; i < trace.nodes.size(); ++i) {
    if (trace.nodes[i].ip == ip) return i;
  }
  return Status::NotFound("trace has no node " + ip);
}

// Applies the mining-performance knobs shared by train / add-signature /
// diagnose: --threads N (0 = one worker per hardware thread) and
// --assoc-cache 0|1 (per-pair score memoization, off by default).
void ApplyMiningOptions(const CommandLine& args,
                        core::InvarNetXConfig* config) {
  config->num_threads = std::atoi(args.Get("threads", "0").c_str());
  config->use_association_cache = args.Get("assoc-cache", "0") != "0";
}

// Loads every positional argument as a trace; they must share a workload.
Result<std::vector<telemetry::RunTrace>> LoadTraces(const CommandLine& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("no trace files given");
  }
  std::vector<telemetry::RunTrace> traces;
  for (const std::string& path : args.positional) {
    Result<telemetry::RunTrace> trace = telemetry::ReadTraceFile(path);
    if (!trace.ok()) return trace.status();
    if (!traces.empty() && trace.value().workload != traces[0].workload) {
      return Status::InvalidArgument("traces mix workload types");
    }
    traces.push_back(std::move(trace.value()));
  }
  return traces;
}

}  // namespace

Result<CommandLine> ParseArgs(int argc, const char* const* argv) {
  CommandLine out;
  if (argc < 1) return Status::InvalidArgument("no command given");
  out.command = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      // Both spellings work: `--key value` and `--key=value`. A bare
      // option with no value (next token is another option, or end of the
      // line) is a boolean flag and parses as "1", e.g. `--update-golden`.
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        out.options[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        continue;
      }
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        out.options[arg.substr(2)] = "1";
        continue;
      }
      out.options[arg.substr(2)] = argv[++i];
    } else {
      out.positional.push_back(arg);
    }
  }
  return out;
}

Status RunSimulate(const CommandLine& args, std::string* out) {
  Result<uint64_t> seed = ParseSeed(args);
  if (!seed.ok()) return seed.status();
  // --jobs a,b,c simulates a FIFO queue of batch jobs in one trace.
  if (args.Has("jobs")) {
    telemetry::SequenceConfig sequence;
    sequence.seed = seed.value();
    std::istringstream jobs(args.Get("jobs", ""));
    std::string name;
    while (std::getline(jobs, name, ',')) {
      Result<workload::WorkloadType> type = workload::WorkloadFromName(name);
      if (!type.ok()) return type.status();
      sequence.jobs.push_back(type.value());
    }
    if (args.Has("fault")) {
      Result<faults::FaultType> fault =
          faults::FaultFromName(args.Get("fault", ""));
      if (!fault.ok()) return fault.status();
      faults::FaultWindow window =
          telemetry::DefaultFaultWindow(fault.value());
      window.start_tick = std::atoi(args.Get("fault-start", "8").c_str());
      sequence.fault = telemetry::FaultRequest{fault.value(), window};
    }
    Result<telemetry::RunTrace> trace =
        telemetry::SimulateJobSequence(sequence);
    if (!trace.ok()) return trace.status();
    const std::string path = args.Get("out", "trace.csv");
    INVARNETX_RETURN_IF_ERROR(telemetry::WriteTraceFile(path, trace.value()));
    *out += "wrote " + path + " (" + std::to_string(trace.value().ticks) +
            " ticks, " + std::to_string(trace.value().job_spans.size()) +
            " jobs)\n";
    return Status::Ok();
  }
  Result<workload::WorkloadType> type =
      workload::WorkloadFromName(args.Get("workload", "wordcount"));
  if (!type.ok()) return type.status();
  telemetry::RunConfig config;
  config.workload = type.value();
  config.seed = seed.value();
  config.interactive_ticks =
      std::atoi(args.Get("ticks", "60").c_str());
  config.data_scale = std::atof(args.Get("data-scale", "1.0").c_str());
  if (args.Has("fault")) {
    Result<faults::FaultType> fault =
        faults::FaultFromName(args.Get("fault", ""));
    if (!fault.ok()) return fault.status();
    config.fault = telemetry::FaultRequest{
        fault.value(), telemetry::DefaultFaultWindow(fault.value())};
  }
  Result<telemetry::RunTrace> trace = telemetry::SimulateRun(config);
  if (!trace.ok()) return trace.status();
  const std::string path = args.Get("out", "trace.csv");
  INVARNETX_RETURN_IF_ERROR(
      telemetry::WriteTraceFile(path, trace.value()));
  std::ostringstream message;
  message << "wrote " << path << " (" << trace.value().ticks << " ticks, "
          << trace.value().nodes.size() << " nodes"
          << (config.fault.has_value()
                  ? ", fault " + faults::FaultName(config.fault->type)
                  : std::string(", fault-free"))
          << ")\n";
  *out += message.str();
  return Status::Ok();
}

Status RunTrain(const CommandLine& args, std::string* out) {
  if (!args.Has("node") || !args.Has("out")) {
    return Status::InvalidArgument("train needs --node IP and --out DIR");
  }
  Result<std::vector<telemetry::RunTrace>> traces = LoadTraces(args);
  if (!traces.ok()) return traces.status();
  const std::string ip = args.Get("node", "");
  Result<size_t> node = NodeIndexOf(traces.value()[0], ip);
  if (!node.ok()) return node.status();

  core::InvarNetXConfig pipeline_config;
  ApplyMiningOptions(args, &pipeline_config);
  if (args.Has("engine")) {
    const std::string engine = args.Get("engine", "mic");
    if (engine == "mic") {
      pipeline_config.engine = core::AssociationEngineType::kMic;
    } else if (engine == "arx") {
      pipeline_config.engine = core::AssociationEngineType::kArx;
    } else if (engine == "ensemble") {
      pipeline_config.engine = core::AssociationEngineType::kEnsemble;
    } else {
      return Status::InvalidArgument("unknown --engine: " + engine);
    }
  }
  core::InvarNetX pipeline(pipeline_config);
  const core::OperationContext context{traces.value()[0].workload, ip};
  INVARNETX_RETURN_IF_ERROR(
      pipeline.TrainContext(context, traces.value(), node.value()));
  const std::string dir = args.Get("out", "");
  std::filesystem::create_directories(dir);
  INVARNETX_RETURN_IF_ERROR(pipeline.SaveToDirectory(dir));
  // Hold the snapshot: GetContext returns a shared_ptr whose Result wrapper
  // is a temporary.
  const std::shared_ptr<const core::ContextModel> model =
      pipeline.GetContext(context).value();
  std::ostringstream message;
  message << "trained " << context.ToString() << " from "
          << traces.value().size() << " runs: ARIMA "
          << model->perf.arima().order().ToString() << ", "
          << model->invariants.NumInvariants() << " invariants -> " << dir
          << "/\n";
  *out += message.str();
  return Status::Ok();
}

Status RunAddSignature(const CommandLine& args, std::string* out) {
  if (!args.Has("store") || !args.Has("problem") || !args.Has("node")) {
    return Status::InvalidArgument(
        "add-signature needs --store DIR --problem NAME --node IP");
  }
  Result<std::vector<telemetry::RunTrace>> traces = LoadTraces(args);
  if (!traces.ok()) return traces.status();
  const std::string dir = args.Get("store", "");
  core::InvarNetXConfig pipeline_config;
  ApplyMiningOptions(args, &pipeline_config);
  core::InvarNetX pipeline(pipeline_config);
  INVARNETX_RETURN_IF_ERROR(pipeline.LoadFromDirectory(dir));
  const std::string ip = args.Get("node", "");
  const std::string problem = args.Get("problem", "");
  for (const telemetry::RunTrace& trace : traces.value()) {
    Result<size_t> node = NodeIndexOf(trace, ip);
    if (!node.ok()) return node.status();
    INVARNETX_RETURN_IF_ERROR(pipeline.AddSignature(
        core::OperationContext{trace.workload, ip}, problem, trace,
        node.value()));
  }
  INVARNETX_RETURN_IF_ERROR(pipeline.SaveToDirectory(dir));
  std::ostringstream message;
  message << "added " << traces.value().size() << " signature(s) for '"
          << problem << "' to " << dir << "/\n";
  *out += message.str();
  return Status::Ok();
}

Status RunDiagnose(const CommandLine& args, std::string* out) {
  if (!args.Has("store")) {
    return Status::InvalidArgument("diagnose needs --store DIR");
  }
  Result<std::vector<telemetry::RunTrace>> traces = LoadTraces(args);
  if (!traces.ok()) return traces.status();
  core::InvarNetXConfig pipeline_config;
  ApplyMiningOptions(args, &pipeline_config);
  core::InvarNetX pipeline(pipeline_config);
  INVARNETX_RETURN_IF_ERROR(pipeline.LoadFromDirectory(args.Get("store", "")));
  const telemetry::RunTrace& trace = traces.value()[0];

  // A FIFO-sequence trace mixes jobs with different operation contexts;
  // diagnose each job span against its own workload's models.
  if (trace.job_spans.size() > 1) {
    std::string span_out;
    for (size_t j = 0; j < trace.job_spans.size(); ++j) {
      const telemetry::JobSpanInfo& span = trace.job_spans[j];
      if (span.end_tick <= span.start_tick) continue;
      telemetry::RunTrace sliced;
      sliced.workload = span.type;
      sliced.ticks = span.end_tick - span.start_tick;
      for (const telemetry::NodeTrace& node : trace.nodes) {
        telemetry::NodeTrace piece;
        piece.ip = node.ip;
        piece.cpi.assign(node.cpi.begin() + span.start_tick,
                         node.cpi.begin() + span.end_tick);
        for (int m = 0; m < telemetry::kNumMetrics; ++m) {
          piece.metrics[static_cast<size_t>(m)].assign(
              node.metrics[static_cast<size_t>(m)].begin() + span.start_tick,
              node.metrics[static_cast<size_t>(m)].begin() + span.end_tick);
        }
        sliced.nodes.push_back(std::move(piece));
      }
      span_out += "== job " + std::to_string(j) + " (" +
                  workload::WorkloadName(span.type) + ", ticks " +
                  std::to_string(span.start_tick) + ".." +
                  std::to_string(span.end_tick) + ") ==\n";
      CommandLine span_args = args;
      span_args.positional.clear();
      // Recurse on the sliced trace via a temp file-free path: inline the
      // single-trace logic by writing the slice out? Simpler: handle here.
      // (fall through to the shared single-trace logic below)
      std::string one;
      Status st = [&]() -> Status {
        if (span_args.Has("node")) {
          const std::string ip = span_args.Get("node", "");
          Result<size_t> node = NodeIndexOf(sliced, ip);
          if (!node.ok()) return node.status();
          Result<core::DiagnosisReport> report = pipeline.Diagnose(
              core::OperationContext{sliced.workload, ip}, sliced,
              node.value());
          if (!report.ok()) return report.status();
          if (!report.value().anomaly_detected) {
            one += ip + ": no anomaly\n";
          } else {
            one += ip + ": ANOMALY, " +
                   std::to_string(report.value().num_violations) +
                   " violations\n";
            for (const core::RankedCause& cause : report.value().causes) {
              one += "  " + cause.problem + "  " +
                     std::to_string(cause.score) + "\n";
            }
          }
          return Status::Ok();
        }
        Result<core::ClusterDiagnosis> scan =
            core::DiagnoseCluster(pipeline, sliced);
        if (!scan.ok()) return scan.status();
        for (const core::NodeDiagnosis& entry : scan.value().nodes) {
          if (!entry.context_trained) {
            one += entry.node_ip + ": (context not trained)\n";
          } else if (!entry.report.anomaly_detected) {
            one += entry.node_ip + ": healthy\n";
          } else {
            one += entry.node_ip + ": ANOMALOUS (" +
                   std::to_string(entry.report.num_violations) +
                   " violations)";
            if (!entry.report.causes.empty()) {
              one += " -> " + entry.report.causes[0].problem;
            }
            one += "\n";
          }
        }
        return Status::Ok();
      }();
      if (!st.ok()) return st;
      span_out += one;
    }
    *out += span_out;
    return Status::Ok();
  }

  std::ostringstream message;
  const bool show_cost = args.Get("stats", "0") != "0";
  auto render = [&message, show_cost](const std::string& where,
                                      const core::DiagnosisReport& report) {
    if (!report.anomaly_detected) {
      message << where << ": no anomaly\n";
      if (show_cost) message << "  cost: " << report.cost.Summary() << "\n";
      return;
    }
    message << where << ": ANOMALY at tick " << report.first_alarm_tick
            << ", " << report.num_violations << " violations\n";
    for (const core::RankedCause& cause : report.causes) {
      message << "  " << cause.problem << "  " << cause.score << "\n";
    }
    if (!report.known_problem) {
      message << "  (below similarity threshold - hints:)\n";
      for (const std::string& hint : report.hints) {
        message << "    " << hint << "\n";
      }
    }
    if (show_cost) message << "  cost: " << report.cost.Summary() << "\n";
  };

  std::string markdown;
  if (args.Has("node")) {
    const std::string ip = args.Get("node", "");
    Result<size_t> node = NodeIndexOf(trace, ip);
    if (!node.ok()) return node.status();
    const core::OperationContext context{trace.workload, ip};
    Result<core::DiagnosisReport> report =
        pipeline.Diagnose(context, trace, node.value());
    if (!report.ok()) return report.status();
    render(ip, report.value());
    if (args.Has("report")) {
      Result<std::shared_ptr<const core::ContextModel>> model =
          pipeline.GetContext(context);
      if (!model.ok()) return model.status();
      markdown = core::RenderIncidentReport(context, report.value(),
                                            *model.value(), trace.ticks,
                                            &trace.nodes[node.value()]);
    }
  } else {
    Result<core::ClusterDiagnosis> scan =
        core::DiagnoseCluster(pipeline, trace);
    if (!scan.ok()) return scan.status();
    for (const core::NodeDiagnosis& entry : scan.value().nodes) {
      if (!entry.context_trained) {
        message << entry.node_ip << ": (context not trained)\n";
        continue;
      }
      render(entry.node_ip, entry.report);
    }
    if (scan.value().AnyAnomaly()) {
      message << "culprit: "
              << scan.value()
                     .nodes[static_cast<size_t>(scan.value().culprit)]
                     .node_ip
              << "\n";
    }
    if (args.Has("report")) {
      markdown = core::RenderClusterReport(pipeline, scan.value(),
                                           trace.workload, trace.ticks);
    }
  }
  if (args.Has("report")) {
    std::ofstream file(args.Get("report", ""));
    if (!file) return Status::IoError("cannot open report file");
    file << markdown;
    message << "wrote incident report to " << args.Get("report", "") << "\n";
  }
  *out += message.str();
  return Status::Ok();
}

Status RunConflicts(const CommandLine& args, std::string* out) {
  if (!args.Has("store") || !args.Has("workload") || !args.Has("node")) {
    return Status::InvalidArgument(
        "conflicts needs --store DIR --workload W --node IP");
  }
  core::InvarNetX pipeline;
  INVARNETX_RETURN_IF_ERROR(pipeline.LoadFromDirectory(args.Get("store", "")));
  Result<workload::WorkloadType> type =
      workload::WorkloadFromName(args.Get("workload", ""));
  if (!type.ok()) return type.status();
  Result<std::shared_ptr<const core::ContextModel>> model =
      pipeline.GetContext(
          core::OperationContext{type.value(), args.Get("node", "")});
  if (!model.ok()) return model.status();
  const double threshold = std::atof(args.Get("threshold", "0.6").c_str());
  Result<std::vector<core::SignatureConflict>> conflicts =
      model.value()->sigdb.FindConflicts(threshold);
  if (!conflicts.ok()) return conflicts.status();
  std::ostringstream message;
  if (conflicts.value().empty()) {
    message << "no signature conflicts at threshold " << threshold << "\n";
  }
  for (const core::SignatureConflict& c : conflicts.value()) {
    message << c.problem_a << " ~ " << c.problem_b << "  " << c.similarity
            << "\n";
  }
  *out += message.str();
  return Status::Ok();
}

Status RunInfo(const CommandLine& args, std::string* out) {
  Result<std::vector<telemetry::RunTrace>> traces = LoadTraces(args);
  if (!traces.ok()) return traces.status();
  std::ostringstream message;
  for (size_t i = 0; i < traces.value().size(); ++i) {
    const telemetry::RunTrace& trace = traces.value()[i];
    message << args.positional[i] << ": "
            << workload::WorkloadName(trace.workload) << ", " << trace.ticks
            << " ticks, " << trace.nodes.size() << " nodes";
    for (const telemetry::FaultGroundTruth& fault : trace.injected) {
      message << ", fault " << faults::FaultName(fault.type) << "@"
              << fault.window.start_tick;
    }
    for (const telemetry::JobSpanInfo& span : trace.job_spans) {
      message << ", job " << workload::WorkloadName(span.type) << "["
              << span.start_tick << "," << span.end_tick << ")";
    }
    message << "\n";
  }
  *out += message.str();
  return Status::Ok();
}

Status RunStats(const CommandLine& args, std::string* out) {
  // A fresh process has an empty metrics registry, so `stats` first runs a
  // small representative workload end to end (simulate -> train -> diagnose
  // one faulty run) and then dumps the registry those stages populated.
  Result<workload::WorkloadType> type =
      workload::WorkloadFromName(args.Get("workload", "wordcount"));
  if (!type.ok()) return type.status();
  Result<uint64_t> seed = ParseSeed(args);
  if (!seed.ok()) return seed.status();
  const std::string format = args.Get("format", "text");
  if (format != "text" && format != "json") {
    return Status::InvalidArgument("bad --format (want text|json): " + format);
  }
  core::EvalConfig config;
  config.workload = type.value();
  config.seed = seed.value();
  config.normal_runs = std::atoi(args.Get("runs", "4").c_str());
  if (config.normal_runs < 2) config.normal_runs = 2;
  ApplyMiningOptions(args, &config.pipeline);
  // The self-exercise should light up the thread-pool metrics even on a
  // single-core machine, where `--threads 0` would resolve to the serial
  // path; default to two workers unless the user chose explicitly. It also
  // exercises the (opt-in) score cache unless told otherwise.
  if (!args.Has("threads")) config.pipeline.num_threads = 2;
  if (!args.Has("assoc-cache")) config.pipeline.use_association_cache = true;

  Result<std::vector<telemetry::RunTrace>> normal = core::SimulateNormalRuns(
      config.workload, config.normal_runs, config.seed,
      config.interactive_train_ticks);
  if (!normal.ok()) return normal.status();
  core::InvarNetX pipeline(config.pipeline);
  INVARNETX_RETURN_IF_ERROR(
      core::TrainPipeline(&pipeline, config, normal.value()));
  Result<telemetry::RunTrace> faulty = core::SimulateFaultRun(
      config.workload, faults::FaultType::kCpuHog, config.seed + 1000);
  if (!faulty.ok()) return faulty.status();
  const core::OperationContext context = core::VictimContext(config);
  // Diagnose the same run twice: the first pass populates the association
  // score cache, the second hits it, so the dump shows both sides of the
  // cache counters.
  Result<core::DiagnosisReport> cold =
      pipeline.Diagnose(context, faulty.value(), config.victim_node);
  if (!cold.ok()) return cold.status();
  Result<core::DiagnosisReport> report =
      pipeline.Diagnose(context, faulty.value(), config.victim_node);
  if (!report.ok()) return report.status();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  if (format == "json") {
    *out += registry.RenderJson();
    *out += "\n";
    return Status::Ok();
  }
  std::ostringstream message;
  message << "# self-exercise: " << context.ToString() << ", "
          << config.normal_runs << " training runs, fault "
          << faults::FaultName(faults::FaultType::kCpuHog) << ", "
          << (report.value().anomaly_detected ? "anomaly detected"
                                              : "no anomaly")
          << "\n# cost: " << report.value().cost.Summary() << "\n"
          << registry.RenderText();
  *out += message.str();
  return Status::Ok();
}

Status RunCampaign(const CommandLine& args, std::string* out) {
  if (args.positional.size() < 2 || args.positional[0] != "run") {
    return Status::InvalidArgument(
        "usage: campaign run SCENARIO_DIR|SCENARIO_FILE [options]");
  }
  const std::string target = args.positional[1];

  // Accept a directory of *.scenario files or one scenario file.
  std::vector<campaign::Scenario> scenarios;
  std::string default_golden_dir;
  if (std::filesystem::is_directory(target)) {
    Result<std::vector<campaign::Scenario>> loaded =
        campaign::LoadScenarioDirectory(target);
    if (!loaded.ok()) return loaded.status();
    scenarios = std::move(loaded.value());
    default_golden_dir =
        (std::filesystem::path(target) / "golden").string();
  } else {
    Result<campaign::Scenario> scenario =
        campaign::LoadScenarioFile(target);
    if (!scenario.ok()) return scenario.status();
    default_golden_dir =
        (std::filesystem::path(target).parent_path() / "golden").string();
    scenarios.push_back(std::move(scenario.value()));
  }

  campaign::CampaignOptions options;
  options.threads = std::atoi(args.Get("threads", "0").c_str());
  options.use_assoc_cache = args.Get("assoc-cache", "0") != "0";
  const int top_k = std::atoi(args.Get("top-k", "5").c_str());
  if (top_k < 1) return Status::InvalidArgument("bad --top-k");
  options.top_k = static_cast<size_t>(top_k);

  Result<campaign::CampaignResult> result =
      campaign::RunCampaign(scenarios, options);
  if (!result.ok()) return result.status();
  *out += campaign::RenderText(result.value());
  // Head-to-head engine table with measured per-engine latency columns -
  // console only, never byte-compared (see scoreboard.h).
  *out += campaign::RenderEngineComparison(result.value());

  if (args.Has("csv")) {
    std::ofstream file(args.Get("csv", ""), std::ios::binary);
    if (!file) return Status::IoError("cannot open --csv file");
    file << campaign::RenderCsv(result.value());
    *out += "wrote " + args.Get("csv", "") + "\n";
  }
  if (args.Has("json")) {
    std::ofstream file(args.Get("json", ""), std::ios::binary);
    if (!file) return Status::IoError("cannot open --json file");
    file << campaign::RenderJson(result.value());
    *out += "wrote " + args.Get("json", "") + "\n";
  }

  // Golden-report regression gate: update on request; otherwise compare
  // when golden reports exist (their absence is not an error, so fresh
  // scenario directories can be scored before goldens are recorded).
  const std::string golden_dir = args.Get("golden-dir", default_golden_dir);
  const bool update_golden = args.Has("update-golden");
  if (update_golden || std::filesystem::is_directory(golden_dir)) {
    INVARNETX_RETURN_IF_ERROR(campaign::CheckOrUpdateGolden(
        result.value(), golden_dir, update_golden, out));
  } else {
    *out += "no golden reports in " + golden_dir +
            " (record them with --update-golden)\n";
  }

  // Regression floors: --min-precision gates the signature engine over the
  // known-fault scenarios (hold-outs score zero there by construction);
  // --min-causal-recall gates the causal engine's recall@3 over the
  // unknown-fault scenarios.
  if (args.Has("min-precision")) {
    const double floor = std::atof(args.Get("min-precision", "0").c_str());
    if (result.value().known_scenarios == 0) {
      return Status::FailedPrecondition(
          "--min-precision set but the campaign has no known-fault "
          "scenarios to gate");
    }
    if (result.value().mean_known_precision_at_1 < floor) {
      return Status::FailedPrecondition(
          "known-fault mean precision@1 " +
          std::to_string(result.value().mean_known_precision_at_1) +
          " below the --min-precision floor " + args.Get("min-precision", ""));
    }
  }
  if (args.Has("min-causal-recall")) {
    const double floor =
        std::atof(args.Get("min-causal-recall", "0").c_str());
    if (result.value().holdout_scenarios == 0) {
      return Status::FailedPrecondition(
          "--min-causal-recall set but the campaign has no unknown-fault "
          "(signatures = all-except-fault) scenarios to gate");
    }
    if (result.value().mean_causal_recall_at_3 < floor) {
      return Status::FailedPrecondition(
          "unknown-fault causal recall@3 " +
          std::to_string(result.value().mean_causal_recall_at_3) +
          " below the --min-causal-recall floor " +
          args.Get("min-causal-recall", ""));
    }
  }
  return Status::Ok();
}

Status RunServe(const CommandLine& args, std::string* out) {
  if (!args.Has("replay")) {
    return Status::InvalidArgument(
        "serve needs --replay FILE (a .scenario file, or a trace with "
        "--store DIR)");
  }
  const std::string target = args.Get("replay", "");
  serve::ReplayOptions options;
  options.threads = std::atoi(args.Get("threads", "0").c_str());
  options.window_capacity =
      static_cast<size_t>(std::atoi(args.Get("window", "256").c_str()));
  if (options.window_capacity == 0) {
    return Status::InvalidArgument("bad --window (want >= 1)");
  }
  options.max_runs = std::atoi(args.Get("runs", "0").c_str());
  options.retrain_each_run = args.Has("retrain-each-run");
  options.shards = std::atoi(args.Get("shards", "0").c_str());
  if (options.shards < 0) {
    return Status::InvalidArgument("bad --shards (want >= 0; 0 = auto)");
  }
  const int ring_capacity = std::atoi(args.Get("ring-capacity", "0").c_str());
  if (ring_capacity < 0) {
    return Status::InvalidArgument(
        "bad --ring-capacity (want >= 0; 0 = auto-size, never rejects)");
  }
  options.ring_capacity = static_cast<size_t>(ring_capacity);

  // Optional embedded observability endpoint. Everything about it stays off
  // stdout (the port announcement goes through the structured logger on
  // stderr), so replay output is byte-identical with or without it.
  std::unique_ptr<obs::HttpServer> http;
  if (args.Has("http-port")) {
    const int port = std::atoi(args.Get("http-port", "").c_str());
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("bad --http-port (want 0..65535): " +
                                     args.Get("http-port", ""));
    }
    obs::HttpServer::Options http_options;
    http_options.port = static_cast<uint16_t>(port);
    http_options.bind_address = args.Get("http-addr", "127.0.0.1");
    http = std::make_unique<obs::HttpServer>(http_options);
    serve::InstallObsEndpoints(http.get());
    INVARNETX_RETURN_IF_ERROR(http->Start());
    obs::EventJournal::Shared().Record(
        obs::EventKind::kLifecycle, "observability endpoint up",
        {{"port", static_cast<uint64_t>(http->port())}});
    INVARNETX_OBS_LOG(
        obs::LogLevel::kInfo, "observability endpoint listening",
        {{"addr", http_options.bind_address},
         {"port", static_cast<uint64_t>(http->port())},
         {"endpoints", "/metrics /healthz /statusz /tracez"}});
  }
  // CI smoke and manual curls need the endpoint alive after the replay
  // finishes; --http-linger S holds the process that long before exiting.
  const double linger_seconds =
      std::atof(args.Get("http-linger", "0").c_str());

  Status status = [&]() -> Status {
    // Socket ingest mode: train the scenario's fleet exactly like --replay,
    // then accept the test-run samples over TCP instead of simulating them
    // in-process. The output composes the same header, the same per-run
    // verdict blocks (IngestServer renders through serve::RenderVerdicts),
    // and the same summary line, so it diffs byte-for-byte against a local
    // replay of the scenario when the producer streams the same runs.
    if (args.Has("ingest-port")) {
      const int ingest_port = std::atoi(args.Get("ingest-port", "").c_str());
      if (ingest_port < 0 || ingest_port > 65535) {
        return Status::InvalidArgument("bad --ingest-port (want 0..65535): " +
                                       args.Get("ingest-port", ""));
      }
      if (std::filesystem::path(target).extension() != ".scenario") {
        return Status::InvalidArgument(
            "--ingest-port needs a .scenario --replay target (the scenario "
            "defines which contexts get trained)");
      }
      if (options.retrain_each_run) {
        return Status::InvalidArgument(
            "--ingest-port does not support --retrain-each-run");
      }
      Result<campaign::Scenario> scenario = campaign::LoadScenarioFile(target);
      if (!scenario.ok()) return scenario.status();
      Result<serve::ScenarioFleetPlan> plan =
          serve::PrepareScenarioFleet(scenario.value(), options);
      if (!plan.ok()) return plan.status();
      serve::MonitorFleet fleet(
          plan.value().pipeline.get(),
          serve::MakeScenarioFleetConfig(options,
                                         plan.value().contexts.size()));

      std::ostringstream verdicts;
      net::IngestServerOptions ingest_options;
      ingest_options.bind_address = args.Get("ingest-addr", "127.0.0.1");
      ingest_options.port = ingest_port;
      net::IngestServer server(&fleet, &verdicts, ingest_options);
      INVARNETX_RETURN_IF_ERROR(server.Start());
      // Port announcement stays off stdout so the report is byte-clean.
      INVARNETX_OBS_LOG(obs::LogLevel::kInfo, "ingest endpoint listening",
                        {{"addr", ingest_options.bind_address},
                         {"port", static_cast<uint64_t>(server.port())}});
      const net::SessionStats stats = server.WaitForSession();
      server.Stop();
      if (!stats.completed) {
        return Status::IoError("no ingest session completed cleanly");
      }
      *out += plan.value().header;
      *out += verdicts.str();
      *out += "summary: " + std::to_string(stats.total_alarms) +
              " alarm(s) over " + std::to_string(stats.runs) + " run(s) x " +
              std::to_string(plan.value().contexts.size()) + " monitor(s)\n";
      return Status::Ok();
    }
    // A scenario file carries its own training data (seeded simulation); a
    // recorded trace needs the offline store that trained its contexts.
    if (std::filesystem::path(target).extension() == ".scenario") {
      Result<campaign::Scenario> scenario = campaign::LoadScenarioFile(target);
      if (!scenario.ok()) return scenario.status();
      Result<std::string> rendered =
          serve::ReplayScenario(scenario.value(), options);
      if (!rendered.ok()) return rendered.status();
      *out += rendered.value();
      return Status::Ok();
    }
    if (!args.Has("store")) {
      return Status::InvalidArgument(
          "serve --replay TRACE needs --store DIR (trained offline state)");
    }
    Result<telemetry::RunTrace> trace = telemetry::ReadTraceFile(target);
    if (!trace.ok()) return trace.status();
    core::InvarNetXConfig pipeline_config;
    ApplyMiningOptions(args, &pipeline_config);
    core::InvarNetX pipeline(pipeline_config);
    INVARNETX_RETURN_IF_ERROR(
        pipeline.LoadFromDirectory(args.Get("store", "")));
    Result<std::string> rendered =
        serve::ReplayTrace(pipeline, trace.value(), options);
    if (!rendered.ok()) return rendered.status();
    *out += rendered.value();
    return Status::Ok();
  }();

  if (http != nullptr) {
    if (status.ok() && linger_seconds > 0.0) {
      INVARNETX_OBS_LOG(obs::LogLevel::kInfo, "replay done, endpoint lingering",
                        {{"seconds", linger_seconds}});
      std::this_thread::sleep_for(
          std::chrono::duration<double>(linger_seconds));
    }
    obs::EventJournal::Shared().Record(obs::EventKind::kLifecycle,
                                       "observability endpoint down");
    http->Stop();
  }
  return status;
}

Status RunStream(const CommandLine& args, std::string* out) {
  // The producer side of `serve --ingest-port`: connects to a running
  // ingest endpoint and streams a scenario's test runs through it in
  // replay order (HELLO in node order, JOB / TICK x ticks / ENDJOB per
  // run, BYE). The server's stdout then matches `serve --replay` of the
  // same scenario byte for byte.
  if (!args.Has("replay")) {
    return Status::InvalidArgument("stream needs --replay FILE (.scenario)");
  }
  const std::string target = args.Get("replay", "");
  if (std::filesystem::path(target).extension() != ".scenario") {
    return Status::InvalidArgument("stream --replay wants a .scenario file");
  }
  const int port = std::atoi(args.Get("port", "0").c_str());
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("stream needs --port P (1..65535)");
  }
  Result<campaign::Scenario> scenario = campaign::LoadScenarioFile(target);
  if (!scenario.ok()) return scenario.status();

  net::IngestClientOptions client_options;
  client_options.address = args.Get("addr", "127.0.0.1");
  client_options.port = port;
  client_options.text = args.Has("text");
  net::IngestClient client(client_options);
  INVARNETX_RETURN_IF_ERROR(client.Connect());
  Result<net::StreamStats> stats = net::StreamScenario(
      &client, scenario.value(), std::atoi(args.Get("runs", "0").c_str()));
  if (!stats.ok()) return stats.status();
  *out += "streamed " + scenario.value().name + ": " +
          std::to_string(stats.value().runs) + " run(s), " +
          std::to_string(stats.value().ticks) + " tick(s), " +
          std::to_string(stats.value().accepted) + " sample(s) accepted, " +
          std::to_string(stats.value().rejected) + " rejected, " +
          std::to_string(stats.value().alarms) + " alarm(s)\n";
  return Status::Ok();
}

Status RunEvents(const CommandLine& args, std::string* out) {
  // Like `stats`, a fresh process has an empty journal, so `events` first
  // exercises the whole span of journal hooks - train (retrain +
  // epoch-publish events), then a one-monitor fleet streamed through a
  // faulty run (alarm, diagnosis, and - with the demo's low thresholds -
  // alarm-storm events) - and dumps what was recorded.
  const std::string format = args.Get("format", "text");
  if (format != "text" && format != "json") {
    return Status::InvalidArgument("bad --format (want text|json): " + format);
  }
  const int last = std::atoi(args.Get("last", "0").c_str());
  if (last < 0) return Status::InvalidArgument("bad --last (want >= 0)");

  if (args.Get("exercise", "1") != "0") {
    Result<uint64_t> seed = ParseSeed(args);
    if (!seed.ok()) return seed.status();
    core::EvalConfig config;
    config.seed = seed.value();
    config.normal_runs = std::atoi(args.Get("runs", "3").c_str());
    if (config.normal_runs < 2) config.normal_runs = 2;
    ApplyMiningOptions(args, &config.pipeline);

    Result<std::vector<telemetry::RunTrace>> normal =
        core::SimulateNormalRuns(config.workload, config.normal_runs,
                                 config.seed, config.interactive_train_ticks);
    if (!normal.ok()) return normal.status();
    core::InvarNetX pipeline(config.pipeline);
    INVARNETX_RETURN_IF_ERROR(
        core::TrainPipeline(&pipeline, config, normal.value()));
    Result<telemetry::RunTrace> faulty = core::SimulateFaultRun(
        config.workload, faults::FaultType::kCpuHog, config.seed + 1000);
    if (!faulty.ok()) return faulty.status();

    serve::FleetConfig fleet_config;
    fleet_config.threads = config.pipeline.num_threads;
    // Demo thresholds: a single alarm counts as a storm, so the dump shows
    // every event kind the serve path can journal.
    fleet_config.storm_alarm_threshold = 1;
    serve::MonitorFleet fleet(&pipeline, fleet_config);
    Result<serve::MonitorHandle> handle =
        fleet.StartJob(core::VictimContext(config));
    if (!handle.ok()) return handle.status();
    const telemetry::NodeTrace& node =
        faulty.value().nodes[static_cast<size_t>(config.victim_node)];
    std::vector<serve::TickSample> batch(1);
    batch[0].monitor = handle.value();
    for (size_t t = 0; t < node.cpi.size(); ++t) {
      batch[0].cpi = node.cpi[t];
      for (size_t m = 0; m < static_cast<size_t>(telemetry::kNumMetrics);
           ++m) {
        batch[0].metrics[m] = node.metrics[m][t];
      }
      Result<serve::TickSummary> summary = fleet.IngestTick(batch);
      if (!summary.ok()) return summary.status();
    }
    fleet.WaitForDiagnoses();
    fleet.TakeDiagnoses();
  }

  obs::EventJournal& journal = obs::EventJournal::Shared();
  const std::vector<obs::Event> events =
      journal.Snapshot(static_cast<size_t>(last));
  if (format == "json") {
    *out += obs::RenderEventsJson(events);
    return Status::Ok();
  }
  *out += "# journal: " + std::to_string(events.size()) + " of " +
          std::to_string(journal.next_seq()) + " recorded events (" +
          std::to_string(journal.evicted()) + " evicted, capacity " +
          std::to_string(journal.capacity()) + ")\n";
  *out += obs::RenderEventsText(events);
  return Status::Ok();
}

std::string Usage() {
  return
      "invarnetx <command> [options] [trace files]\n"
      "\n"
      "commands:\n"
      "  simulate  --workload W --seed S [--fault F] [--ticks N] --out FILE\n"
      "            generate a testbed trace file; or --jobs a,b,c for a\n"
      "            FIFO queue ([--fault-start T] places the fault)\n"
      "  train     --node IP [--engine mic|arx|ensemble] --out STOREDIR\n"
      "            TRACE...  train the node's operation context from\n"
      "            fault-free traces (the store remembers the engine)\n"
      "  add-signature --store DIR --problem NAME --node IP TRACE...\n"
      "            teach the signature base an investigated problem\n"
      "  diagnose  --store DIR [--node IP] [--report FILE.md] [--stats 1]\n"
      "            TRACE  diagnose one node, or scan the whole cluster\n"
      "            (--stats 1 appends a per-stage cost line per report)\n"
      "  conflicts --store DIR --workload W --node IP [--threshold X]\n"
      "            list near-identical problem signatures\n"
      "  info      TRACE...\n"
      "            print trace metadata\n"
      "  stats     [--workload W] [--runs N] [--format text|json]\n"
      "            run a built-in end-to-end self-exercise and dump the\n"
      "            process metrics registry (counters/gauges/histograms)\n"
      "  campaign  run SCENARIO_DIR|SCENARIO_FILE [--csv FILE]\n"
      "            [--json FILE] [--golden-dir DIR] [--update-golden]\n"
      "            [--top-k K] [--min-precision X] [--min-causal-recall X]\n"
      "            execute a deterministic fault-injection campaign:\n"
      "            train, inject, diagnose, and score ranked causes\n"
      "            against each scenario's expected root cause; compares\n"
      "            diagnosis reports against golden files when present\n"
      "  serve     --replay FILE [--store DIR] [--window W] [--runs N]\n"
      "            [--shards S] [--ring-capacity C] [--retrain-each-run]\n"
      "            [--http-port P] [--http-addr A] [--http-linger S]\n"
      "            [--ingest-port P] [--ingest-addr A]\n"
      "            stream a scenario's test runs (or a recorded trace,\n"
      "            with --store) tick by tick through a MonitorFleet -\n"
      "            one monitor per node, sharded batched ingestion over\n"
      "            per-shard SPSC rings, bounded windows, alarm-triggered\n"
      "            asynchronous diagnosis - and print the per-job\n"
      "            verdicts (byte-identical for every --threads and\n"
      "            --shards value, and with --http-port on or off);\n"
      "            --shards 0 = one shard per hardware thread, and\n"
      "            --ring-capacity 0 auto-sizes each shard's ring so\n"
      "            nothing is rejected (a fixed C gives real\n"
      "            backpressure); --retrain-each-run retrains every context\n"
      "            between runs via the incremental dirty-pair path and\n"
      "            reports the rescored/reused split; --http-port serves\n"
      "            /metrics /healthz /statusz /tracez while replaying\n"
      "            (0 = ephemeral; port logged on stderr), binding\n"
      "            --http-addr (default 127.0.0.1), and --http-linger\n"
      "            keeps the endpoint up S seconds after the replay;\n"
      "            --ingest-port opens the TCP ingest front end instead of\n"
      "            simulating the test runs locally: the fleet is trained\n"
      "            from the scenario exactly like --replay, then waits for\n"
      "            one producer session (see `stream`) and prints the same\n"
      "            byte-identical report (0 = ephemeral port, logged on\n"
      "            stderr; binds --ingest-addr, default 127.0.0.1)\n"
      "  stream    --replay FILE.scenario --port P [--addr A] [--runs N]\n"
      "            [--text]\n"
      "            connect to a `serve --ingest-port` endpoint and stream\n"
      "            the scenario's test runs through it in replay order\n"
      "            (HELLO handle negotiation, batched TICK frames,\n"
      "            explicit BACKPRESSURE accounting); --text speaks the\n"
      "            nc-friendly line protocol instead of binary frames\n"
      "  events    [--format text|json] [--last N] [--exercise 0|1]\n"
      "            dump the bounded in-process event journal (alarms,\n"
      "            retrains, epoch publishes, diagnoses, cache\n"
      "            evictions, watchdog trips); by default first runs a\n"
      "            small train+serve self-exercise so a fresh process\n"
      "            has events to show (--exercise 0 skips it)\n"
      "\n"
      "global options (every command):\n"
      "  --log-level L     debug|info|warn|error|off (default info);\n"
      "                    structured key=value diagnostics on stderr\n"
      "  --trace-out FILE  record Chrome trace-event JSON for the whole\n"
      "                    invocation (open in chrome://tracing / Perfetto)\n"
      "\n"
      "mining options (train / add-signature / diagnose / stats /\n"
      "campaign):\n"
      "  --threads N       worker threads for invariant mining\n"
      "                    (0 = one per hardware thread; 1 = serial)\n"
      "  --assoc-cache 0|1 per-pair score memoization (default 0)\n";
}

Status RunCommand(const CommandLine& args, std::string* out) {
  if (args.Has("log-level")) {
    Result<obs::LogLevel> level =
        obs::LogLevelFromName(args.Get("log-level", ""));
    if (!level.ok()) return level.status();
    obs::SetLogLevel(level.value());
  }
  const std::string trace_out = args.Get("trace-out", "");
  if (!trace_out.empty()) obs::TraceRecorder::Shared().SetEnabled(true);
  Status status = [&]() -> Status {
    if (args.command == "simulate") return RunSimulate(args, out);
    if (args.command == "train") return RunTrain(args, out);
    if (args.command == "add-signature") return RunAddSignature(args, out);
    if (args.command == "diagnose") return RunDiagnose(args, out);
    if (args.command == "conflicts") return RunConflicts(args, out);
    if (args.command == "info") return RunInfo(args, out);
    if (args.command == "stats") return RunStats(args, out);
    if (args.command == "campaign") return RunCampaign(args, out);
    if (args.command == "serve") return RunServe(args, out);
    if (args.command == "stream") return RunStream(args, out);
    if (args.command == "events") return RunEvents(args, out);
    *out += Usage();
    return Status::InvalidArgument("unknown command: " + args.command);
  }();
  if (!trace_out.empty()) {
    const Status write =
        obs::TraceRecorder::Shared().WriteChromeTrace(trace_out);
    if (write.ok()) {
      *out += "wrote trace events to " + trace_out + "\n";
    } else if (status.ok()) {
      // The command itself succeeded; surface the trace-write failure.
      status = write;
    }
  }
  return status;
}

}  // namespace invarnetx::cli
