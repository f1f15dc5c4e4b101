// Fleet-scale sharded ingest throughput: drives a synthetic 100k-monitor
// (1M with INVARNETX_MONITORS=1000000) fleet through MonitorFleet's sharded
// SPSC-ring ingest path and reports ticks/s, samples/s, and per-tick ingest
// latency (p50/p99) for the serial and sharded-parallel configurations,
// plus a deterministic backpressure sub-run with a fixed small ring that
// measures the overflow (reject) rate. Trains one global model (the
// no-operation-context collapse) so fleet size is decoupled from training
// cost, and emits a machine-readable BENCH_fleet.json that CI validates and
// gates against bench/serve_baseline.json.
//
// Overrides: INVARNETX_MONITORS (fleet size, default 100000),
// INVARNETX_TICKS (ticks streamed, default 30), INVARNETX_WINDOW (window
// capacity in ticks, default 16 - at 1M monitors the window slab is
// monitors x window x 27 doubles, so keep it small at scale),
// INVARNETX_SHARDS (0 = one per hardware thread), and INVARNETX_BENCH_JSON
// (output path, default ./BENCH_fleet.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/evaluate.h"
#include "core/pipeline.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "serve/fleet.h"
#include "workload/spec.h"

namespace invarnetx::bench {
namespace {

using workload::WorkloadType;

core::OperationContext MonitorContext(int i) {
  return core::OperationContext{
      WorkloadType::kWordCount, "10." + std::to_string(i / 62500) + "." +
                                    std::to_string(i / 250 % 250) + "." +
                                    std::to_string(i % 250 + 1)};
}

struct FleetRates {
  double ticks_per_sec = 0.0;
  double samples_per_sec = 0.0;
  double p50_ingest_sec = 0.0;
  double p99_ingest_sec = 0.0;
  uint64_t rejected = 0;
  double overflow_rate = 0.0;  // rejected / offered
};

// Streams `ticks` batches of one sample per monitor and measures the ingest
// path. ring_capacity 0 = auto (nothing rejected); a fixed capacity gives
// the deterministic backpressure run.
FleetRates StreamFleet(const core::InvarNetX& pipeline, int monitors,
                       int ticks, size_t window, int threads, int shards,
                       size_t ring_capacity,
                       const telemetry::NodeTrace& source) {
  serve::FleetConfig config;
  config.window_capacity = window;
  config.threads = threads;
  config.shards = shards;
  config.ring_capacity = ring_capacity;
  config.expected_monitors = static_cast<size_t>(monitors);
  serve::MonitorFleet fleet(&pipeline, config);

  std::vector<serve::TickSample> batch(static_cast<size_t>(monitors));
  for (int i = 0; i < monitors; ++i) {
    Result<serve::MonitorHandle> handle = fleet.StartJob(MonitorContext(i));
    CheckOk(handle.status(), "StartJob");
    batch[static_cast<size_t>(i)].monitor = handle.value();
  }

  const int source_ticks = static_cast<int>(source.cpi.size());
  std::vector<double> ingest_seconds;
  ingest_seconds.reserve(static_cast<size_t>(ticks));
  double total = 0.0;
  uint64_t rejected = 0;
  for (int t = 0; t < ticks; ++t) {
    const size_t src = static_cast<size_t>(t % source_ticks);
    const double cpi = source.cpi[src];
    std::array<double, telemetry::kNumMetrics> metrics;
    for (int m = 0; m < telemetry::kNumMetrics; ++m) {
      metrics[static_cast<size_t>(m)] =
          source.metrics[static_cast<size_t>(m)][src];
    }
    for (int i = 0; i < monitors; ++i) {
      batch[static_cast<size_t>(i)].cpi = cpi;
      batch[static_cast<size_t>(i)].metrics = metrics;
    }
    const auto start = std::chrono::steady_clock::now();
    Result<serve::TickSummary> summary = fleet.IngestTick(batch);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    CheckOk(summary.status(), "IngestTick");
    rejected += static_cast<uint64_t>(summary.value().rejected);
    ingest_seconds.push_back(elapsed.count());
    total += elapsed.count();
  }
  fleet.WaitForDiagnoses();

  std::sort(ingest_seconds.begin(), ingest_seconds.end());
  auto percentile = [&](double p) {
    const size_t idx = std::min(
        ingest_seconds.size() - 1,
        static_cast<size_t>(p * static_cast<double>(ingest_seconds.size())));
    return ingest_seconds[idx];
  };
  FleetRates rates;
  rates.ticks_per_sec = static_cast<double>(ticks) / total;
  rates.samples_per_sec = rates.ticks_per_sec * monitors;
  rates.p50_ingest_sec = percentile(0.50);
  rates.p99_ingest_sec = percentile(0.99);
  rates.rejected = rejected;
  rates.overflow_rate = static_cast<double>(rejected) /
                        (static_cast<double>(monitors) *
                         static_cast<double>(ticks));
  return rates;
}

// Same tick stream, but pushed through the loopback TCP front end: an
// IngestServer wraps the fleet, and an IngestClient negotiates handles with
// HELLO and streams binary TICK frames. Measures the end-to-end socket rate
// (encode + write + read + decode + IngestTick) so CI can gate the wire
// path against the in-process sharded rate.
FleetRates StreamFleetOverLoopback(const core::InvarNetX& pipeline,
                                   int monitors, int ticks, size_t window,
                                   int shards,
                                   const telemetry::NodeTrace& source) {
  serve::FleetConfig config;
  config.window_capacity = window;
  config.threads = 0;
  config.shards = shards;
  config.expected_monitors = static_cast<size_t>(monitors);
  serve::MonitorFleet fleet(&pipeline, config);

  // A 100k-monitor TICK frame is ~22 MB, so the frame ceiling scales with
  // the fleet instead of using the 8 MiB default.
  const size_t frame_cap =
      static_cast<size_t>(monitors) * net::kBinarySampleBytes + 4096;
  std::ostringstream verdicts;  // never rendered: the bench skips ENDJOB
  net::IngestServerOptions server_options;
  server_options.max_frame_bytes = frame_cap;
  net::IngestServer server(&fleet, &verdicts, server_options);
  CheckOk(server.Start(), "IngestServer::Start");

  net::IngestClientOptions client_options;
  client_options.port = server.port();
  client_options.max_frame_bytes = frame_cap;
  net::IngestClient client(client_options);
  CheckOk(client.Connect(), "IngestClient::Connect");

  const std::string workload_name =
      workload::WorkloadName(WorkloadType::kWordCount);
  std::vector<net::HelloEntry> entries(static_cast<size_t>(monitors));
  for (int i = 0; i < monitors; ++i) {
    entries[static_cast<size_t>(i)] = {workload_name,
                                       MonitorContext(i).node_ip};
  }
  Result<std::vector<serve::MonitorHandle>> handles = client.Hello(entries);
  CheckOk(handles.status(), "IngestClient::Hello");

  std::vector<serve::TickSample> batch(static_cast<size_t>(monitors));
  for (int i = 0; i < monitors; ++i) {
    batch[static_cast<size_t>(i)].monitor =
        handles.value()[static_cast<size_t>(i)];
  }

  const int source_ticks = static_cast<int>(source.cpi.size());
  std::vector<double> tick_seconds;
  tick_seconds.reserve(static_cast<size_t>(ticks));
  double total = 0.0;
  uint64_t rejected = 0;
  for (int t = 0; t < ticks; ++t) {
    const size_t src = static_cast<size_t>(t % source_ticks);
    const double cpi = source.cpi[src];
    std::array<double, telemetry::kNumMetrics> metrics;
    for (int m = 0; m < telemetry::kNumMetrics; ++m) {
      metrics[static_cast<size_t>(m)] =
          source.metrics[static_cast<size_t>(m)][src];
    }
    for (int i = 0; i < monitors; ++i) {
      batch[static_cast<size_t>(i)].cpi = cpi;
      batch[static_cast<size_t>(i)].metrics = metrics;
    }
    const auto start = std::chrono::steady_clock::now();
    Result<net::TickOutcome> outcome = client.Tick(batch);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    CheckOk(outcome.status(), "IngestClient::Tick");
    rejected += outcome.value().rejected;
    tick_seconds.push_back(elapsed.count());
    total += elapsed.count();
  }
  CheckOk(client.Bye(), "IngestClient::Bye");
  client.Close();
  server.Stop();
  fleet.WaitForDiagnoses();

  std::sort(tick_seconds.begin(), tick_seconds.end());
  auto percentile = [&](double p) {
    const size_t idx = std::min(
        tick_seconds.size() - 1,
        static_cast<size_t>(p * static_cast<double>(tick_seconds.size())));
    return tick_seconds[idx];
  };
  FleetRates rates;
  rates.ticks_per_sec = static_cast<double>(ticks) / total;
  rates.samples_per_sec = rates.ticks_per_sec * monitors;
  rates.p50_ingest_sec = percentile(0.50);
  rates.p99_ingest_sec = percentile(0.99);
  rates.rejected = rejected;
  rates.overflow_rate = static_cast<double>(rejected) /
                        (static_cast<double>(monitors) *
                         static_cast<double>(ticks));
  return rates;
}

int Main() {
  const int monitors = EnvInt("INVARNETX_MONITORS", 100000);
  const int ticks = EnvInt("INVARNETX_TICKS", 30);
  const size_t window = static_cast<size_t>(EnvInt("INVARNETX_WINDOW", 16));
  const int shards = EnvInt("INVARNETX_SHARDS", 0);

  // One global model for every monitor: fleet size is a serving-layer knob,
  // not a training-cost multiplier.
  core::InvarNetXConfig config;
  config.use_operation_context = false;
  config.num_threads = 0;
  core::InvarNetX pipeline(config);
  auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 4, 42);
  CheckOk(normal.status(), "SimulateNormalRuns");
  CheckOk(pipeline.TrainContext(MonitorContext(0), normal.value(), 1),
          "TrainContext");
  const telemetry::NodeTrace& source = normal.value()[0].nodes[1];

  TextTable table(
      {"config", "ticks/s", "samples/s", "p50 ingest", "p99 ingest"});
  const FleetRates serial = StreamFleet(pipeline, monitors, ticks, window,
                                        /*threads=*/1, shards,
                                        /*ring_capacity=*/0, source);
  table.AddRow({"serial (threads 1)", FormatDouble(serial.ticks_per_sec, 2),
                FormatDouble(serial.samples_per_sec, 0),
                FormatDouble(serial.p50_ingest_sec * 1e3, 2) + " ms",
                FormatDouble(serial.p99_ingest_sec * 1e3, 2) + " ms"});
  const FleetRates sharded = StreamFleet(pipeline, monitors, ticks, window,
                                         /*threads=*/0, shards,
                                         /*ring_capacity=*/0, source);
  table.AddRow({"sharded (threads 0)", FormatDouble(sharded.ticks_per_sec, 2),
                FormatDouble(sharded.samples_per_sec, 0),
                FormatDouble(sharded.p50_ingest_sec * 1e3, 2) + " ms",
                FormatDouble(sharded.p99_ingest_sec * 1e3, 2) + " ms"});
  const FleetRates socket = StreamFleetOverLoopback(pipeline, monitors, ticks,
                                                    window, shards, source);
  table.AddRow({"loopback socket", FormatDouble(socket.ticks_per_sec, 2),
                FormatDouble(socket.samples_per_sec, 0),
                FormatDouble(socket.p50_ingest_sec * 1e3, 2) + " ms",
                FormatDouble(socket.p99_ingest_sec * 1e3, 2) + " ms"});
  std::printf("%s\n", table.Render().c_str());
  const double socket_ratio =
      socket.samples_per_sec / sharded.samples_per_sec;
  std::printf("loopback socket carries %.0f%% of the in-process sharded "
              "rate (binary frames, %d samples/tick)\n",
              socket_ratio * 100.0, monitors);
  std::printf("%d monitors, %d ticks, window %zu ticks, shards %d (0 = one "
              "per hardware thread)\n",
              monitors, ticks, window, shards);

  // Backpressure sub-run: a small fleet against a deliberately undersized
  // fixed ring. Admission is count-based, so the reject tally is exact and
  // reproducible - this is the overflow-rate measurement, not a race.
  const int bp_monitors = std::min(monitors, 4096);
  const size_t bp_ring = 64;
  const FleetRates backpressure =
      StreamFleet(pipeline, bp_monitors, std::min(ticks, 10), window,
                  /*threads=*/0, /*shards=*/8, bp_ring, source);
  std::printf("backpressure: %d monitors over 8 shards, ring %zu -> "
              "%llu rejected (overflow rate %.4f)\n",
              bp_monitors, bp_ring,
              static_cast<unsigned long long>(backpressure.rejected),
              backpressure.overflow_rate);

  const char* json_path = std::getenv("INVARNETX_BENCH_JSON");
  if (json_path == nullptr || *json_path == '\0') {
    json_path = "BENCH_fleet.json";
  }
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"fleet_ingest\",\n"
                 "  \"monitors\": %d,\n"
                 "  \"ticks\": %d,\n"
                 "  \"window_ticks\": %zu,\n"
                 "  \"shards\": %d,\n"
                 "  \"serial_ticks_per_sec\": %.3f,\n"
                 "  \"serial_samples_per_sec\": %.3f,\n"
                 "  \"ticks_per_sec\": %.3f,\n"
                 "  \"samples_per_sec\": %.3f,\n"
                 "  \"p50_ingest_sec\": %.9f,\n"
                 "  \"p99_ingest_sec\": %.9f,\n"
                 "  \"socket_ticks_per_sec\": %.3f,\n"
                 "  \"socket_samples_per_sec\": %.3f,\n"
                 "  \"socket_p50_tick_sec\": %.9f,\n"
                 "  \"socket_p99_tick_sec\": %.9f,\n"
                 "  \"socket_to_sharded_ratio\": %.4f,\n"
                 "  \"backpressure_rejected\": %llu,\n"
                 "  \"overflow_rate\": %.6f\n"
                 "}\n",
                 monitors, ticks, window, shards, serial.ticks_per_sec,
                 serial.samples_per_sec, sharded.ticks_per_sec,
                 sharded.samples_per_sec, sharded.p50_ingest_sec,
                 sharded.p99_ingest_sec, socket.ticks_per_sec,
                 socket.samples_per_sec, socket.p50_ingest_sec,
                 socket.p99_ingest_sec, socket_ratio,
                 static_cast<unsigned long long>(backpressure.rejected),
                 backpressure.overflow_rate);
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "WARNING: could not write %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace invarnetx::bench

int main() { return invarnetx::bench::Main(); }
