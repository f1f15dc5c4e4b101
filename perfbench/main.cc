// servebench: the serving-path benchmark of InvarNet-X.
//
//   servebench --workload ingest|wire|incident|all --seed N --seconds S
//              --trace 0|1 [--trace-out FILE] [--monitors N] [--setups N]
//
// Prints the machine context, the metrics with their units and the output
// checks; the last line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exit code 0 unless the arguments or the program failed; a run
// whose output checks fail still exits 0 with "correct": false.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "mic/simd.h"
#include "obs/log.h"
#include "obs/span.h"
#include "perfbench/servebench.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif

namespace invarnetx::perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "ingest|wire|incident|all --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--monitors N] [--setups N] "
               "[--corrupt-verdict] [--reject-sample]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      options.trace = value() == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else if (flag == "--monitors") {
      options.monitors = std::atoi(value().c_str());
    } else if (flag == "--setups") {
      options.setups = std::atoi(value().c_str());
    } else if (flag == "--corrupt-verdict") {
      options.corrupt_verdict = true;
    } else if (flag == "--reject-sample") {
      options.reject_sample = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "ingest" && options.workload != "wire" &&
      options.workload != "incident" && options.workload != "all") {
    Usage("--workload must be ingest, wire, incident or all");
  }
  if (options.seconds <= 0.0 || options.monitors < 2 * 2 ||
      options.setups < 1) {
    Usage("--seconds, --monitors and --setups must be positive");
  }
  return options;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintMachine(const Options& options) {
  std::printf("# machine: nproc=%ld cpu=\"%s\" build=%s compiler=\"%s\" "
              "mic_simd=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              SERVEBENCH_BUILD_TYPE, SERVEBENCH_COMPILER,
              mic::SimdLevelName(mic::ActiveSimdLevel()));
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d monitors=%d "
              "window=%d fleet_threads=%d shards=%d pipeline_threads=%d "
              "setups=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.monitors, kWindowTicks,
              kFleetThreads, kFleetShards, kPipelineThreads, options.setups);
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The "metrics" members of the result line, names prefixed by `prefix`.
std::string Json(const std::vector<Metric>& metrics, const std::string& prefix) {
  std::string out;
  char buf[256];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", prefix.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

// Runs one workload and prints its report; returns its JSON metrics.
std::string RunOne(Options options, Outcome* total, const std::string& prefix) {
  std::printf("== %s ==\n", options.workload.c_str());
  const int64_t simulate_start = NowNs();
  Inputs inputs = SimulateInputs(options);
  size_t fault_runs = 0;
  for (const auto& queue : inputs.incident_queues) fault_runs += queue.size();
  std::printf("# inputs: %zu normal runs of %zu ticks per job, %zu signature "
              "runs, %zu fault runs, simulated in %.2f s\n",
              inputs.runs.size(), inputs.job_ticks,
              inputs.signature_runs.size(), fault_runs,
              (NowNs() - simulate_start) * 1e-9);
  SpanRecorder spans;
  spans.enabled = options.trace;
  Outcome outcome;
  RunWorkload(options, inputs, &spans, &outcome);
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  PrintMetrics("end-to-end (untraced):", outcome.end_to_end);
  if (options.trace) PrintMetrics("per-layer (traced):", outcome.per_layer);
  std::printf("checks: %llu operations, %llu failed\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& failure : outcome.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  if (options.trace && !options.trace_out.empty()) {
    const std::string json = spans.RenderChromeTrace();
    size_t events = 0;
    const Status valid = obs::ValidateChromeTrace(json, &events);
    std::ofstream(options.trace_out) << json;
    std::printf("span file %s: %zu events, ValidateChromeTrace %s\n",
                options.trace_out.c_str(), events,
                valid.ok() ? "ok" : valid.ToString().c_str());
    ++outcome.attempted;
    if (!valid.ok()) ++outcome.failed;
  }
  total->attempted += outcome.attempted;
  total->failed += outcome.failed;
  return Json(options.trace ? outcome.per_layer : outcome.end_to_end, prefix);
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  obs::SetLogLevel(obs::LogLevel::kWarn);
  PrintMachine(options);
  Outcome total;
  std::string metrics;
  if (options.workload == "all") {
    for (const char* name : {"ingest", "wire", "incident"}) {
      Options one = options;
      one.workload = name;
      if (!one.trace_out.empty()) {
        // a/b.json -> a/b-ingest.json
        const size_t dot = one.trace_out.rfind(".json");
        one.trace_out.insert(dot == std::string::npos ? one.trace_out.size()
                                                      : dot,
                             std::string("-") + name);
      }
      const std::string part = RunOne(one, &total, std::string(name) + "/");
      metrics += (metrics.empty() ? "" : ", ") + part;
    }
  } else {
    metrics = RunOne(options, &total, "");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              total.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace invarnetx::perfbench

int main(int argc, char** argv) {
  return invarnetx::perfbench::Main(argc, argv);
}
