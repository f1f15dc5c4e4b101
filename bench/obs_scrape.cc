// Observability overhead gate: MonitorFleet ingestion throughput with a
// live Prometheus-style scraper hitting the embedded HTTP endpoint versus a
// quiet run with the endpoint idle. The scrape path is short-lock by design
// (the registry copies its index under the mutex and formats after), so the
// ingest hot path should not notice the scraper; this bench measures that
// claim and fails (exit 1) when the overhead exceeds the budget, keeping the
// "cheap enough to leave on" story honest in CI. Each phase repeats its job
// (a fresh fleet streaming INVARNETX_TICKS ticks) until it has at least 1 s
// of ingest time, so a scraped phase spans many scrape periods however fast
// one job runs.
//
// Overrides: INVARNETX_MONITORS (default 64), INVARNETX_TICKS (ticks per
// job, default 600), INVARNETX_REPS (best-of repetitions, default 3),
// INVARNETX_SCRAPE_MS (scrape period, default 250),
// INVARNETX_MAX_OVERHEAD_PCT (gate, default 3), INVARNETX_BENCH_JSON
// (output path, default ./BENCH_obs.json).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/evaluate.h"
#include "core/pipeline.h"
#include "obs/http.h"
#include "serve/fleet.h"
#include "serve/statusz.h"

namespace invarnetx::bench {
namespace {

using workload::WorkloadType;

core::OperationContext MonitorContext(int i) {
  return core::OperationContext{WorkloadType::kWordCount,
                                "10.1." + std::to_string(i / 250) + "." +
                                    std::to_string(i % 250 + 1)};
}

// One GET over a fresh loopback connection, response drained and discarded.
bool Scrape(uint16_t port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = std::string("GET ") + path +
                              " HTTP/1.1\r\nHost: x\r\n"
                              "Connection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return false;
  }
  char buffer[8192];
  while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
  }
  ::close(fd);
  return true;
}

// Least ingest time a phase measures, in seconds.
constexpr double kMinPhaseSeconds = 1.0;

// Streams `ticks` cluster ticks into a fresh fleet and returns the total
// ingest wall time in seconds.
double StreamFleet(const core::InvarNetX& pipeline, int monitors, int ticks,
                   const telemetry::NodeTrace& source) {
  serve::MonitorFleet fleet(&pipeline);
  std::vector<serve::TickSample> batch(static_cast<size_t>(monitors));
  for (int i = 0; i < monitors; ++i) {
    Result<serve::MonitorHandle> handle = fleet.StartJob(MonitorContext(i));
    CheckOk(handle.status(), "StartJob");
    batch[static_cast<size_t>(i)].monitor = handle.value();
  }
  const int source_ticks = static_cast<int>(source.cpi.size());
  double total = 0.0;
  for (int t = 0; t < ticks; ++t) {
    const int src = t % source_ticks;
    for (int i = 0; i < monitors; ++i) {
      serve::TickSample& sample = batch[static_cast<size_t>(i)];
      sample.cpi = source.cpi[static_cast<size_t>(src)];
      for (int m = 0; m < telemetry::kNumMetrics; ++m) {
        sample.metrics[static_cast<size_t>(m)] =
            source.metrics[static_cast<size_t>(m)][static_cast<size_t>(src)];
      }
    }
    const auto start = std::chrono::steady_clock::now();
    Result<serve::TickSummary> summary = fleet.IngestTick(batch);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    CheckOk(summary.status(), "IngestTick");
    total += elapsed.count();
  }
  fleet.WaitForDiagnoses();
  return total;
}

// One phase: repeats the job until its ingest time reaches
// kMinPhaseSeconds, and returns the ingest rate in ticks per second.
double PhaseTicksPerSec(const core::InvarNetX& pipeline, int monitors,
                        int ticks, const telemetry::NodeTrace& source) {
  double seconds = 0.0;
  int64_t streamed = 0;
  while (seconds < kMinPhaseSeconds) {
    seconds += StreamFleet(pipeline, monitors, ticks, source);
    streamed += ticks;
  }
  return static_cast<double>(streamed) / seconds;
}

int Main() {
  const int monitors = EnvInt("INVARNETX_MONITORS", 64);
  const int ticks = EnvInt("INVARNETX_TICKS", 600);
  const int reps = EnvInt("INVARNETX_REPS", 3);
  const int scrape_ms = EnvInt("INVARNETX_SCRAPE_MS", 250);
  const int max_overhead_pct = EnvInt("INVARNETX_MAX_OVERHEAD_PCT", 3);

  core::InvarNetXConfig config;
  config.use_operation_context = false;
  config.num_threads = 0;
  core::InvarNetX pipeline(config);
  auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 4, 42);
  CheckOk(normal.status(), "SimulateNormalRuns");
  CheckOk(pipeline.TrainContext(MonitorContext(0), normal.value(), 1),
          "TrainContext");
  const telemetry::NodeTrace& source = normal.value()[0].nodes[1];

  // The endpoint is up for both phases; only the scraper thread differs, so
  // the comparison isolates scrape traffic, not server setup.
  obs::HttpServer server;
  serve::InstallObsEndpoints(&server);
  CheckOk(server.Start(), "HttpServer::Start");

  // Best-of-N ingest rate per phase: the fastest is the least
  // noise-contaminated estimate of the true cost on a shared CI box.
  double quiet_tps = 0.0;
  for (int r = 0; r < reps; ++r) {
    quiet_tps = std::max(quiet_tps,
                         PhaseTicksPerSec(pipeline, monitors, ticks, source));
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      if (Scrape(server.port(), "/metrics")) scrapes.fetch_add(1);
      if (Scrape(server.port(), "/statusz")) scrapes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(scrape_ms));
    }
  });
  double scraped_tps = 0.0;
  for (int r = 0; r < reps; ++r) {
    scraped_tps = std::max(
        scraped_tps, PhaseTicksPerSec(pipeline, monitors, ticks, source));
  }
  done.store(true);
  scraper.join();
  server.Stop();

  const double overhead_pct = (quiet_tps / scraped_tps - 1.0) * 100.0;

  TextTable table({"phase", "ticks/s", "us/tick"});
  table.AddRow({"quiet", FormatDouble(quiet_tps, 1),
                FormatDouble(1e6 / quiet_tps, 2)});
  table.AddRow({"scraped", FormatDouble(scraped_tps, 1),
                FormatDouble(1e6 / scraped_tps, 2)});
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "%d monitors, %d ticks per job, >= %.1f s of ingest per phase, best of "
      "%d, scrape every %d ms (%llu scrapes), overhead %.2f%% (budget "
      "%d%%)\n",
      monitors, ticks, kMinPhaseSeconds, reps, scrape_ms,
      static_cast<unsigned long long>(scrapes.load()), overhead_pct,
      max_overhead_pct);

  const char* json_path = std::getenv("INVARNETX_BENCH_JSON");
  if (json_path == nullptr || *json_path == '\0') {
    json_path = "BENCH_obs.json";
  }
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"obs_scrape\",\n"
                 "  \"monitors\": %d,\n"
                 "  \"ticks\": %d,\n"
                 "  \"min_phase_seconds\": %.3f,\n"
                 "  \"scrape_period_ms\": %d,\n"
                 "  \"scrapes\": %llu,\n"
                 "  \"quiet_ticks_per_sec\": %.3f,\n"
                 "  \"scraped_ticks_per_sec\": %.3f,\n"
                 "  \"overhead_pct\": %.3f,\n"
                 "  \"max_overhead_pct\": %d\n"
                 "}\n",
                 monitors, ticks, kMinPhaseSeconds, scrape_ms,
                 static_cast<unsigned long long>(scrapes.load()), quiet_tps,
                 scraped_tps, overhead_pct, max_overhead_pct);
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "WARNING: could not write %s\n", json_path);
  }

  if (overhead_pct > static_cast<double>(max_overhead_pct)) {
    std::fprintf(stderr,
                 "FAIL: ingest-under-scrape overhead %.2f%% exceeds the "
                 "%d%% budget\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace invarnetx::bench

int main() { return invarnetx::bench::Main(); }
