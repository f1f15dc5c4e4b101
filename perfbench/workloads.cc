// The three workloads. Each is a closed loop with one producer (the
// benchmark thread): it sends the next tick only after the previous call
// returned, as net::IngestClient and `invarnetx stream` do.
//
//   ingest    jobs the way net::StreamScenario sends them, in process:
//             StartJob for every monitor, one MonitorFleet::IngestTick per
//             tick of a run, then what the ingest server's ENDJOB does
//   wire      the same jobs through net::IngestServer over loopback TCP
//   incident  the ingest fleet's monitors and samples in one long job, plus
//             monitors replaying fault-injected runs; every alarm's
//             diagnosis is timed until its verdict arrives
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "campaign/scenario.h"
#include "core/pipeline.h"
#include "causal/graph.h"
#include "causal/ranking.h"
#include "core/assoc_cache.h"
#include "net/frame.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "obs/metrics.h"
#include "perfbench/servebench.h"
#include "serve/fleet.h"
#include "serve/replay.h"
#include "timeseries/arima.h"

namespace invarnetx::perfbench {
namespace {

using workload::WorkloadType;
using Scope = SpanRecorder::Scope;

// Association pairs of one matrix over the 26 metrics.
constexpr double kPairsPerMatrix = 325.0;
// Rates and percentiles are medians over at most this many consecutive
// slices of at least kMinSlice ticks or verdicts (see SliceMedian).
constexpr size_t kSlices = 16;
constexpr size_t kMinSlice = 100;
// Machine steal is read from /proc/stat once per this many ticks.
constexpr size_t kStealEvery = 64;

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// One row [cpi, metrics] as monitor `handle`'s sample.
void CopyRow(const double* row, serve::MonitorHandle handle,
             serve::TickSample* sample) {
  sample->monitor = handle;
  sample->cpi = row[0];
  std::memcpy(sample->metrics.data(), row + 1,
              sizeof(double) * static_cast<size_t>(telemetry::kNumMetrics));
}

core::OperationContext MonitorContext(int i) {
  return core::OperationContext{
      WorkloadType::kWordCount, "10." + std::to_string(i / 62500) + "." +
                                    std::to_string(i / 250 % 250) + "." +
                                    std::to_string(i % 250 + 1)};
}

core::OperationContext IncidentContext(int m) {
  return core::OperationContext{WorkloadType::kWordCount,
                                "10.250.0." + std::to_string(m + 1)};
}

uint64_t Counter(const std::string& name) {
  return obs::MetricsRegistry::Shared().GetCounter(name).value();
}

// The library's own counters the per-layer metrics read, as deltas.
struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t pairs_scored = 0;
  uint64_t pairs_rescored = 0;
  uint64_t pairs_reused = 0;

  static Counters Read() {
    return {Counter("assoc_cache.hits"), Counter("assoc_cache.misses"),
            Counter("assoc.pairs_scored"), Counter("pipeline.pairs_rescored"),
            Counter("pipeline.pairs_reused")};
  }
  Counters Minus(const Counters& o) const {
    return {cache_hits - o.cache_hits, cache_misses - o.cache_misses,
            pairs_scored - o.pairs_scored, pairs_rescored - o.pairs_rescored,
            pairs_reused - o.pairs_reused};
  }
};

// Everything one set-up produced: the trained pipeline, the armed fleet
// and, on `wire`, the loopback server and connected client.
struct Served {
  std::unique_ptr<core::InvarNetX> pipeline;
  std::unique_ptr<serve::MonitorFleet> fleet;
  std::unique_ptr<net::IngestServer> server;
  std::unique_ptr<net::IngestClient> client;
  std::vector<serve::ArmedContext> armed;  // background monitors
  std::vector<serve::ArmedContext> incident;
  double setup_seconds = 0.0;
  double train_seconds = 0.0;
  double signature_seconds = 0.0;
  Counters train_counters;  // deltas over TrainContextFromExamples

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (client != nullptr && client->connected()) {
      (void)client->Bye();
      client->Close();
    }
    if (server != nullptr) server->Stop();
    fleet.reset();  // waits for in-flight diagnoses
  }
};

// Trains the pooled model (Perf-M + Invar-C, plus Sig-B on incident) and
// arms the fleet (HELLO on wire). Simulation happened before; the score
// cache is emptied so every repetition trains cold.
std::unique_ptr<Served> SetUp(const Options& options, const Inputs& inputs,
                              SpanRecorder* spans) {
  auto served = std::make_unique<Served>();
  core::AssociationScoreCache::Shared().Clear();
  const int64_t start = NowNs();

  // One pooled model serves the fleet: without operation contexts every
  // context, MonitorContext(0) included, maps to the same key.
  core::InvarNetXConfig config;
  config.use_operation_context = false;
  config.num_threads = kPipelineThreads;
  served->pipeline = std::make_unique<core::InvarNetX>(config);
  std::vector<core::InvarNetX::TrainExample> examples;
  for (const telemetry::RunTrace& run : inputs.normal) {
    for (size_t node = 1; node < run.nodes.size(); ++node) {
      examples.push_back({&run, node});
    }
  }
  const Counters before = Counters::Read();
  int64_t t0 = NowNs();
  {
    Scope scope(spans, "core.TrainContextFromExamples", "core");
    Die(served->pipeline->TrainContextFromExamples(MonitorContext(0),
                                                   examples),
        "TrainContextFromExamples");
  }
  served->train_seconds = Seconds(t0, NowNs());
  served->train_counters = Counters::Read().Minus(before);

  t0 = NowNs();
  for (size_t i = 0; i < inputs.signature_runs.size(); ++i) {
    Scope scope(spans, "core.AddSignature", "core");
    Die(served->pipeline->AddSignature(
            MonitorContext(0), faults::FaultName(inputs.signature_faults[i]),
            inputs.signature_runs[i], 1),
        "AddSignature");
  }
  if (!inputs.signature_runs.empty()) {
    served->signature_seconds = Seconds(t0, NowNs());
  }

  serve::FleetConfig fleet_config;
  fleet_config.window_capacity = kWindowTicks;
  fleet_config.threads = kFleetThreads;
  fleet_config.shards = kFleetShards;
  fleet_config.expected_monitors =
      static_cast<size_t>(options.monitors + kIncidentMonitors);
  if (options.reject_sample) {
    // One slot short of a shard's share: every tick rejects samples.
    fleet_config.ring_capacity =
        static_cast<size_t>(options.monitors / kFleetShards - 1);
  }
  served->fleet = std::make_unique<serve::MonitorFleet>(
      served->pipeline.get(), fleet_config);

  if (options.workload == "wire") {
    net::IngestServerOptions server_options;
    server_options.num_workers = 1;
    // No verdict sink: the server would keep every job's rendered verdicts
    // in memory until BYE, so the process would grow with the number of
    // jobs a run gets through. ENDJOB still waits for and takes the job's
    // diagnoses and replies with its alarm count.
    served->server = std::make_unique<net::IngestServer>(
        served->fleet.get(), nullptr, server_options);
    Die(served->server->Start(), "IngestServer::Start");
    net::IngestClientOptions client_options;
    client_options.port = served->server->port();
    served->client = std::make_unique<net::IngestClient>(client_options);
    Die(served->client->Connect(), "IngestClient::Connect");
    std::vector<net::HelloEntry> entries;
    for (int i = 0; i < options.monitors; ++i) {
      entries.push_back({workload::WorkloadName(WorkloadType::kWordCount),
                         MonitorContext(i).node_ip});
    }
    std::vector<serve::MonitorHandle> handles;
    {
      Scope scope(spans, "net.IngestClient::Hello", "net");
      handles = OrDie(served->client->Hello(entries), "IngestClient::Hello");
    }
    for (int i = 0; i < options.monitors; ++i) {
      served->armed.push_back({MonitorContext(i),
                               handles[static_cast<size_t>(i)]});
    }
  } else {
    Scope scope(spans, "serve.StartJob.fleet", "serve");
    for (int i = 0; i < options.monitors; ++i) {
      served->armed.push_back(
          {MonitorContext(i), OrDie(served->fleet->StartJob(MonitorContext(i)),
                                    "StartJob")});
    }
  }
  if (options.workload == "incident") {
    for (int m = 0; m < kIncidentMonitors; ++m) {
      Scope scope(spans, "serve.StartJob", "serve");
      served->incident.push_back(
          {IncidentContext(m),
           OrDie(served->fleet->StartJob(IncidentContext(m)), "StartJob")});
    }
  }
  served->setup_seconds = Seconds(start, NowNs());
  return served;
}

// Fills the background monitors' samples of one tick. Tick `tick` is tick
// tick % job_ticks of job tick / job_ticks, in which monitor i replays slave
// i % nodes of pool run (job + i / nodes) % runs from the run's start, so
// neighbouring monitors watch different runs and nodes. On incident, which
// does not re-arm them, each monitor sees these runs back to back.
class Producer {
 public:
  Producer(const Inputs& inputs, const std::vector<serve::ArmedContext>& armed)
      : inputs_(inputs), armed_(armed) {}

  size_t size() const { return armed_.size(); }
  size_t job_ticks() const { return inputs_.job_ticks; }

  // Monitor i's row [cpi, metrics] at `tick`.
  const double* Row(size_t i, int64_t tick) const {
    const size_t t = static_cast<size_t>(tick);
    const size_t nodes = inputs_.runs[0].size();
    const size_t run = (t / inputs_.job_ticks + i / nodes) % inputs_.runs.size();
    return inputs_.runs[run][i % nodes].data() +
           (t % inputs_.job_ticks) * kRow;
  }

  void Fill(int64_t tick, std::vector<serve::TickSample>* batch) const {
    for (size_t i = 0; i < armed_.size(); ++i) {
      CopyRow(Row(i, tick), armed_[i].handle, &(*batch)[i]);
    }
  }

 private:
  const Inputs& inputs_;
  const std::vector<serve::ArmedContext>& armed_;
};

// Starts a job on every background monitor in process (a JOB frame makes
// the ingest server do the same). Not done on incident: while any alarm is
// latched, each StartJob rescans the whole fleet for the status page, so
// the re-arm cost there would follow the incident monitors' alarm timing.
void RearmFleet(Served* served, SpanRecorder* spans, int64_t tick) {
  Scope scope(spans, "serve.StartJob.fleet", "serve", tick);
  for (serve::ArmedContext& armed : served->armed) {
    armed.handle = OrDie(served->fleet->StartJob(armed.context), "StartJob");
  }
}

// Consecutive slices [lo, hi) of [0, n): at most kSlices, each holding at
// least kMinSlice items (a single slice when n is smaller).
std::vector<std::pair<size_t, size_t>> Slices(size_t n) {
  const size_t count = std::clamp<size_t>(n / kMinSlice, 1, kSlices);
  std::vector<std::pair<size_t, size_t>> slices;
  for (size_t k = 0; k < count && n > 0; ++k) {
    slices.push_back({n * k / count, n * (k + 1) / count});
  }
  return slices;
}

// The median over Slices(n) of f(lo, hi): a stretch the host slowed moves
// one slice, not the figure.
template <typename F>
double SliceMedian(size_t n, F f) {
  std::vector<double> values;
  for (const auto& [lo, hi] : Slices(n)) values.push_back(f(lo, hi));
  return Median(values);
}

double SlicePercentile(const std::vector<double>& values, double q) {
  return SliceMedian(values.size(), [&](size_t lo, size_t hi) {
    return Percentile({values.begin() + lo, values.begin() + hi}, q);
  });
}

// What one timed phase measured; the per-tick vectors are in tick order.
struct Phase {
  std::vector<double> tick_seconds;     // the tick call alone
  std::vector<double> service_seconds;  // the tick plus verdict requests,
                                        // polls and re-arms after it
  std::vector<uint32_t> accepted;       // samples the tick accepted
  std::vector<uint32_t> delivered;      // verdicts delivered after the tick
  std::vector<double> verdict_seconds;  // in delivery order
  uint64_t offered = 0;
  uint64_t rejected = 0;
  uint64_t alarms = 0;  // incident: raised; ingest, wire: latched at job end
  uint64_t verdicts = 0;
  int jobs = 0;  // ingest, wire
  double steal_seconds = 0.0;
  std::vector<double> steal_marks;  // read every kStealEvery ticks

  double ServiceSeconds() const {
    double total = 0.0;
    for (double s : service_seconds) total += s;
    return total;
  }
  uint64_t Accepted() const {
    uint64_t total = 0;
    for (uint32_t a : accepted) total += a;
    return total;
  }
  // Per-tick counts summed over ticks [lo, hi), per second of service.
  double Rate(const std::vector<uint32_t>& counts, size_t lo,
              size_t hi) const {
    double seconds = 0.0;
    double total = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      seconds += service_seconds[i];
      total += counts[i];
    }
    return seconds > 0.0 ? total / seconds : 0.0;
  }
  double SliceRate(const std::vector<uint32_t>& counts) const {
    return SliceMedian(tick_seconds.size(), [&](size_t lo, size_t hi) {
      return Rate(counts, lo, hi);
    });
  }
  // Machine steal seconds during ticks [lo, hi).
  double Steal(size_t lo, size_t hi) const {
    if (steal_marks.empty()) return 0.0;
    const size_t last = steal_marks.size() - 1;
    return steal_marks[std::min(last, hi / kStealEvery)] -
           steal_marks[std::min(last, lo / kStealEvery)];
  }
};

// CPU steal seconds of the whole machine so far, from /proc/stat.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 8) return 0.0;
  return static_cast<double>(v[7]) / 100.0;  // USER_HZ
}

// ---------------------------------------------------------------- ingest/wire

// The ingest and wire transports: samples go to the fleet in process or
// through the loopback socket. A job starts by re-arming every monitor
// (StartJob in process, JOB on the wire) and ends with what the ingest
// server's ENDJOB does when it has no verdict sink: wait for the job's
// diagnoses, take them, and count the latched alarms.
class Transport {
 public:
  Transport(Served* served, SpanRecorder* spans)
      : served_(served), spans_(spans) {}

  bool wire() const { return served_->client != nullptr; }

  void StartJob(int64_t tick) {
    if (!wire()) return RearmFleet(served_, spans_, tick);
    Scope scope(spans_, "net.IngestClient::StartJob", "net", tick);
    Die(served_->client->StartJob(), "IngestClient::StartJob");
  }

  // Returns accepted samples; counts rejects.
  uint32_t Tick(const std::vector<serve::TickSample>& batch, int64_t tick,
                Phase* phase) {
    if (wire()) {
      Scope scope(spans_, "net.IngestClient::Tick", "net", tick);
      const net::TickOutcome outcome =
          OrDie(served_->client->Tick(batch), "IngestClient::Tick");
      phase->rejected += outcome.rejected;
      return outcome.accepted;
    }
    Scope scope(spans_, "serve.IngestTick", "serve", tick);
    const serve::TickSummary summary =
        OrDie(served_->fleet->IngestTick(batch), "IngestTick");
    phase->rejected += static_cast<uint64_t>(summary.rejected);
    return static_cast<uint32_t>(summary.samples);
  }

  // Returns the alarms latched during the job.
  uint32_t EndJob(int64_t tick) {
    if (wire()) {
      Scope scope(spans_, "net.IngestClient::EndJob", "net", tick);
      return OrDie(served_->client->EndJob(), "IngestClient::EndJob");
    }
    Scope scope(spans_, "serve.TakeDiagnoses", "serve", tick);
    serve::MonitorFleet& fleet = *served_->fleet;
    fleet.WaitForDiagnoses();
    (void)fleet.TakeDiagnoses();  // a diagnosis means an alarm, counted here
    return static_cast<uint32_t>(fleet.alarms_active());
  }

 private:
  Served* served_;
  SpanRecorder* spans_;
};

// Streams whole jobs - StartJob, job_ticks ticks, EndJob - until `seconds`
// of wall time passed (at least one job). Ending a job delivers one
// verdict per monitor.
void RunJobs(Transport* transport, const Producer& producer, double seconds,
             int64_t* tick, Phase* phase, SpanRecorder* spans) {
  std::vector<serve::TickSample> batch(producer.size());
  const double steal_start = StealSeconds();
  const int64_t start = NowNs();
  do {
    int64_t t0 = NowNs();
    transport->StartJob(*tick);
    double rearm = Seconds(t0, NowNs());
    for (size_t j = 0; j < producer.job_ticks(); ++j, ++*tick) {
      if (phase->tick_seconds.size() % kStealEvery == 0) {
        phase->steal_marks.push_back(StealSeconds());
      }
      {
        Scope scope(spans, "bench.Fill", "bench", *tick);
        producer.Fill(*tick, &batch);
      }
      t0 = NowNs();
      const uint32_t accepted = transport->Tick(batch, *tick, phase);
      const double elapsed = Seconds(t0, NowNs());
      phase->offered += batch.size();
      phase->tick_seconds.push_back(elapsed);
      phase->accepted.push_back(accepted);
      phase->delivered.push_back(0);
      phase->service_seconds.push_back(elapsed + rearm);
      rearm = 0.0;
    }
    t0 = NowNs();
    const uint32_t alarms = transport->EndJob(*tick - 1);
    const double verdict = Seconds(t0, NowNs());
    phase->verdict_seconds.push_back(verdict);
    phase->service_seconds.back() += verdict;
    phase->delivered.back() += static_cast<uint32_t>(producer.size());
    phase->verdicts += producer.size();
    phase->alarms += alarms;
    ++phase->jobs;
  } while (Seconds(start, NowNs()) < seconds);
  phase->steal_seconds = StealSeconds() - steal_start;
}

// ------------------------------------------------------------------ incident

// One monitor replaying its queue of fault runs, one run per job.
struct IncidentMonitor {
  serve::ArmedContext armed;
  const std::vector<FaultCase>* queue = nullptr;
  size_t case_index = 0;
  size_t tick_in_case = 0;
  bool alarmed = false;
  int64_t alarm_ns = 0;
  bool exhausted = false;
};

// One delivered verdict of the incident workload.
struct Verdict {
  int monitor = 0;
  size_t case_index = 0;
  std::string text;  // RenderVerdicts output for that monitor
  bool ok = false;
  core::DiagnosisReport report;  // trimmed by Keep
  double latency = 0.0;
};

// Drops what neither the metrics nor the answers read, so the memory the
// benchmark holds does not grow with the verdict rate: the top cause and
// the costs stay, and the violation evidence only for held-out faults.
void Keep(bool held_out, core::DiagnosisReport* report) {
  report->causes.resize(std::min<size_t>(report->causes.size(), 1));
  report->causes.shrink_to_fit();
  report->suspects = {};
  report->hints = {};
  if (!held_out) {
    report->violations = {};
    report->deviations = {};
  }
}

struct IncidentState {
  std::vector<IncidentMonitor> monitors;
  std::vector<Verdict> verdicts;
  std::vector<std::pair<int, size_t>> undetected;  // (monitor, case)
};

void Rearm(serve::MonitorFleet* fleet, IncidentMonitor* m,
           SpanRecorder* spans) {
  m->alarmed = false;
  m->tick_in_case = 0;
  if (++m->case_index >= m->queue->size()) {
    m->exhausted = true;
    return;
  }
  Scope scope(spans, "serve.StartJob", "serve");
  OrDie(fleet->StartJob(m->armed.context), "StartJob");
}

// Hands out every finished diagnosis: render, record, re-arm.
void Deliver(serve::MonitorFleet* fleet,
             std::vector<serve::FleetDiagnosis> diagnoses, IncidentState* state,
             Phase* phase, SpanRecorder* spans) {
  const int64_t now = NowNs();
  for (serve::FleetDiagnosis& d : diagnoses) {
    int index = -1;
    for (size_t m = 0; m < state->monitors.size(); ++m) {
      if (state->monitors[m].armed.context == d.context) {
        index = static_cast<int>(m);
      }
    }
    if (index < 0) continue;  // a background false alarm; counted at tick
    IncidentMonitor& m = state->monitors[static_cast<size_t>(index)];
    Verdict verdict;
    verdict.monitor = index;
    verdict.case_index = m.case_index;
    verdict.latency = Seconds(m.alarm_ns, now);
    verdict.ok = d.status.ok();
    {
      std::ostringstream text;
      Scope scope(spans, "serve.RenderVerdicts", "serve");
      serve::RenderVerdicts(*fleet, {m.armed}, {d}, &text);
      verdict.text = text.str();
    }
    verdict.report = std::move(d.report);
    Keep((*m.queue)[m.case_index].held_out, &verdict.report);
    SpanRecorder::Span span;
    span.name = "serve.verdict";
    span.layer = "serve";
    span.start_ns = m.alarm_ns;
    span.end_ns = now;
    span.request = static_cast<int64_t>(state->verdicts.size());
    span.track = 1;
    if (spans != nullptr) spans->Add(span);
    phase->verdict_seconds.push_back(verdict.latency);
    ++phase->verdicts;
    if (!phase->delivered.empty()) ++phase->delivered.back();
    state->verdicts.push_back(std::move(verdict));
    Rearm(fleet, &m, spans);
  }
}

void RunIncident(const Producer& producer, Served* served, double seconds,
                 int64_t* tick, IncidentState* state, Phase* phase,
                 SpanRecorder* spans, Outcome* outcome) {
  serve::MonitorFleet& fleet = *served->fleet;
  std::vector<serve::TickSample> batch(producer.size() + state->monitors.size());
  const double steal_start = StealSeconds();
  const int64_t start = NowNs();
  // Both incident monitors stay busy: the phase ends when either queue
  // runs dry.
  bool all_left = true;
  while (all_left && Seconds(start, NowNs()) < seconds) {
    if (phase->tick_seconds.size() % kStealEvery == 0) {
      phase->steal_marks.push_back(StealSeconds());
    }
    {
      Scope scope(spans, "bench.Fill", "bench", *tick);
      batch.resize(producer.size() + state->monitors.size());
      producer.Fill(*tick, &batch);
      size_t n = producer.size();
      for (IncidentMonitor& m : state->monitors) {
        if (m.exhausted) continue;
        const FaultCase& c = (*m.queue)[m.case_index];
        if (m.tick_in_case >= c.ticks()) continue;  // awaits its verdict
        CopyRow(c.rows.data() + m.tick_in_case++ * kRow, m.armed.handle,
                &batch[n++]);
      }
      batch.resize(n);
    }
    int64_t t0 = NowNs();
    serve::TickSummary summary;
    {
      Scope scope(spans, "serve.IngestTick", "serve", *tick);
      summary = OrDie(fleet.IngestTick(batch), "IngestTick");
    }
    const int64_t returned = NowNs();
    const double elapsed = Seconds(t0, returned);
    phase->tick_seconds.push_back(elapsed);
    phase->accepted.push_back(static_cast<uint32_t>(summary.samples));
    phase->delivered.push_back(0);
    phase->offered += batch.size();
    phase->rejected += static_cast<uint64_t>(summary.rejected);
    phase->alarms += static_cast<uint64_t>(summary.new_alarms);

    t0 = NowNs();
    int incident_alarms = 0;
    for (IncidentMonitor& m : state->monitors) {
      if (m.exhausted || m.alarmed) continue;
      const std::optional<serve::MonitorView> view = fleet.View(m.armed.handle);
      if (view.has_value() && view->alarm_active) {
        m.alarmed = true;
        m.alarm_ns = returned;
        ++incident_alarms;
      }
    }
    if (summary.new_alarms != incident_alarms) {
      ++outcome->failed;
      outcome->failures.push_back("background monitor alarmed on clean traffic");
    }
    std::vector<serve::FleetDiagnosis> diagnoses;
    {
      Scope scope(spans, "serve.TakeDiagnoses", "serve", *tick);
      diagnoses = fleet.TakeDiagnoses();
    }
    Deliver(&fleet, std::move(diagnoses), state, phase, spans);
    for (size_t i = 0; i < state->monitors.size(); ++i) {
      IncidentMonitor& m = state->monitors[i];
      if (!m.exhausted && !m.alarmed &&
          m.tick_in_case >= (*m.queue)[m.case_index].ticks()) {
        state->undetected.push_back({static_cast<int>(i), m.case_index});
        Rearm(&fleet, &m, spans);
      }
      all_left = all_left && !m.exhausted;
    }
    phase->service_seconds.push_back(elapsed + Seconds(t0, NowNs()));
    ++*tick;
  }
  if (!all_left) {
    outcome->notes.push_back("incident fault queue ran dry before the timed "
                             "phase ended");
  }
  phase->steal_seconds = StealSeconds() - steal_start;
}

// Verdicts still in flight when the loop stops are waited for and
// delivered; an alarm left without a verdict is a failed operation.
void DrainIncident(Served* served, IncidentState* state, Phase* phase,
                   SpanRecorder* spans, Outcome* outcome) {
  const int64_t t0 = NowNs();
  served->fleet->WaitForDiagnoses();
  Deliver(served->fleet.get(), served->fleet->TakeDiagnoses(), state, phase,
          spans);
  if (!phase->service_seconds.empty()) {
    phase->service_seconds.back() += Seconds(t0, NowNs());
  }
  for (const IncidentMonitor& m : state->monitors) {
    if (m.alarmed) {
      ++outcome->failed;
      outcome->failures.push_back(m.armed.context.ToString() +
                                  ": alarm with no verdict");
    }
  }
}

// Replays every case the timed phase finished through a threads=1 fleet
// (diagnoses inline) and compares the rendered verdicts byte for byte.
void CheckAgainstSerialReference(const Options& options, Served* served,
                                 const IncidentState& state,
                                 Outcome* outcome) {
  serve::FleetConfig config;
  config.window_capacity = kWindowTicks;
  config.threads = 1;
  config.shards = kFleetShards;
  serve::MonitorFleet reference(served->pipeline.get(), config);
  std::vector<Verdict> timed = state.verdicts;
  if (options.corrupt_verdict && !timed.empty()) timed[0].text[0] ^= 0x20;

  std::vector<std::map<size_t, std::string>> expected(state.monitors.size());
  for (const Verdict& v : timed) {
    expected[static_cast<size_t>(v.monitor)][v.case_index] = v.text;
  }
  for (const auto& [m, c] : state.undetected) {
    expected[static_cast<size_t>(m)][c] = "";
  }
  uint64_t mismatches = 0;
  for (size_t m = 0; m < state.monitors.size(); ++m) {
    const serve::ArmedContext& armed = state.monitors[m].armed;
    for (const auto& [case_index, text] : expected[m]) {
      const serve::MonitorHandle handle =
          OrDie(reference.StartJob(armed.context), "StartJob");
      const FaultCase& fault_case = (*state.monitors[m].queue)[case_index];
      std::vector<serve::TickSample> batch(1);
      std::string rendered;
      for (size_t t = 0; t < fault_case.ticks() && rendered.empty(); ++t) {
        CopyRow(fault_case.rows.data() + t * kRow, handle, &batch[0]);
        OrDie(reference.IngestTick(batch), "IngestTick");
        std::vector<serve::FleetDiagnosis> diagnoses =
            reference.TakeDiagnoses();
        if (diagnoses.empty()) continue;
        std::ostringstream out;
        serve::RenderVerdicts(reference, {{armed.context, handle}}, diagnoses,
                              &out);
        rendered = out.str();
      }
      if (rendered != text) ++mismatches;
    }
  }
  if (mismatches > 0) {
    outcome->failed += mismatches;
    outcome->failures.push_back(std::to_string(mismatches) +
                                " verdicts differ from the serial reference");
  }
}

// ------------------------------------------------------------------- metrics

void Add(std::vector<Metric>* metrics, const std::string& name, double value,
         const std::string& unit) {
  metrics->push_back({name, value, unit});
}

// Peak resident memory of the process so far (VmHWM).
double PeakRssMb() {
  long rss_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &rss_kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(rss_kb) / 1024.0;
}

void EndToEndMetrics(const Options& options, const Phase& phase,
                     const std::vector<double>& setups, double rss_mb,
                     Outcome* outcome) {
  std::vector<Metric>& out = outcome->end_to_end;
  const double service = phase.ServiceSeconds();
  Add(&out, "setup_s", Median(setups), "s");
  Add(&out, "peak_rss_mb", rss_mb, "MB");
  Add(&out, "samples_per_s", phase.SliceRate(phase.accepted), "1/s");
  Add(&out, "tick_p50_ms", SlicePercentile(phase.tick_seconds, 0.50) * 1e3,
      "ms");
  Add(&out, "tick_p90_ms", SlicePercentile(phase.tick_seconds, 0.90) * 1e3,
      "ms");
  Add(&out, "verdicts_per_s", phase.SliceRate(phase.delivered), "1/s");
  Add(&out, "verdict_p50_ms",
      SlicePercentile(phase.verdict_seconds, 0.50) * 1e3, "ms");
  Add(&out, "verdict_p90_ms",
      SlicePercentile(phase.verdict_seconds, 0.90) * 1e3, "ms");
  char note[256];
  std::snprintf(note, sizeof(note),
                "%s: %zu timed ticks, %llu verdicts over %.3f s of service "
                "time; cpu steal %.2f s",
                options.workload.c_str(), phase.tick_seconds.size(),
                static_cast<unsigned long long>(phase.verdicts), service,
                phase.steal_seconds);
  outcome->notes.push_back(note);
  // Per tick slice, so a stretch the host slowed can be told apart.
  std::string slices = "slices (samples/s, tick p50 ms, steal s):";
  for (const auto& [lo, hi] : Slices(phase.tick_seconds.size())) {
    const double p50 = Percentile({phase.tick_seconds.begin() + lo,
                                   phase.tick_seconds.begin() + hi},
                                  0.50);
    std::snprintf(note, sizeof(note), " [%.0f %.3f %.2f]",
                  phase.Rate(phase.accepted, lo, hi), p50 * 1e3,
                  phase.Steal(lo, hi));
    slices += note;
  }
  std::string reps = "set-ups (s):";
  for (double seconds : setups) {
    std::snprintf(note, sizeof(note), " %.3f", seconds);
    reps += note;
  }
  outcome->notes.push_back(reps);
  outcome->notes.push_back(slices);
}

struct SetupStats {
  std::vector<double> seconds;
  std::vector<double> train;
  std::vector<double> signature;
  Counters train_counters;  // of the last training

  void Record(const Served& served) {
    seconds.push_back(served.setup_seconds);
    train.push_back(served.train_seconds);
    signature.push_back(served.signature_seconds);
    train_counters = served.train_counters;
  }
};

// Output checks over every phase: every offered sample accepted, no alarm
// on clean traffic, every incident alarm answered by a successful
// diagnosis whose rendered verdict matches the serial reference.
void CheckOutputs(const Options& options, Served* served,
                  const IncidentState& state,
                  std::initializer_list<const Phase*> phases,
                  Outcome* outcome) {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t alarms = 0;
  uint64_t verdicts = 0;
  int jobs = 0;
  for (const Phase* phase : phases) {
    offered += phase->offered;
    accepted += phase->Accepted();
    rejected += phase->rejected;
    alarms += phase->alarms;
    verdicts += phase->verdicts;
    jobs += phase->jobs;
  }
  auto fail = [&](uint64_t count, const std::string& what) {
    outcome->failed += count;
    outcome->failures.push_back(std::to_string(count) + " " + what);
  };
  outcome->attempted += offered;
  if (accepted != offered || rejected > 0) {
    fail(std::max(rejected, offered - accepted),
         "of " + std::to_string(offered) + " samples rejected");
  }
  if (options.workload == "incident") {
    outcome->attempted += alarms;
    uint64_t failed = 0;
    for (const Verdict& v : state.verdicts) failed += v.ok ? 0 : 1;
    if (failed > 0) fail(failed, "diagnoses failed");
    CheckAgainstSerialReference(options, served, state, outcome);
    return;
  }
  outcome->attempted += verdicts;
  if (alarms > 0) fail(alarms, "alarms on clean traffic");
  if (served->client == nullptr) return;
  // The server's own account of the session must match the replies.
  Die(served->client->Bye(), "IngestClient::Bye");
  const net::SessionStats stats = served->server->WaitForSession();
  if (!stats.completed || stats.runs != jobs || stats.total_alarms != alarms) {
    fail(1, "wire session stats differ from the ENDJOB replies");
  }
}

// What the incident verdicts answered, over every delivered verdict:
// known-fault top-1 hits; held-out recall@3 of the causal ranking, run on
// each held-out verdict's evidence as the campaign scores it (whether or
// not serving fell back); and a digest of each monitor's first verdicts.
struct Answers {
  double top1 = 0.0;
  double recall3 = 0.0;
  uint32_t digest = 0;
  size_t known = 0;
  size_t held_out = 0;
};

constexpr size_t kDigestVerdicts = 32;

uint32_t Fnv1a(const std::string& text, uint32_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 16777619u;
  }
  return hash;
}

Answers ComputeAnswers(const IncidentState& state,
                       const core::ContextModel& model, SpanRecorder* spans) {
  Answers answers;
  size_t top1 = 0;
  size_t recall3 = 0;
  // Per monitor, verdicts arrive in case order; how the monitors interleave
  // depends on timing, so the digest takes them monitor by monitor.
  std::vector<std::string> firsts(state.monitors.size());
  std::vector<size_t> digested(state.monitors.size(), 0);
  for (const Verdict& v : state.verdicts) {
    const FaultCase& c = (*state.monitors[static_cast<size_t>(v.monitor)]
                               .queue)[v.case_index];
    if (digested[static_cast<size_t>(v.monitor)]++ < kDigestVerdicts) {
      firsts[static_cast<size_t>(v.monitor)] += v.text;
    }
    if (!c.held_out) {
      ++answers.known;
      if (v.report.known_problem && !v.report.causes.empty() &&
          v.report.causes[0].problem == faults::FaultName(c.fault)) {
        ++top1;
      }
      continue;
    }
    ++answers.held_out;
    if (v.report.num_violations == 0) continue;
    std::vector<causal::RankedSuspect> suspects;
    {
      Scope scope(spans, "causal.RankSuspects", "causal");
      const causal::InvariantGraph graph =
          OrDie(causal::BuildInvariantGraph(
                    model.invariants.present, model.invariants.values,
                    v.report.violations, v.report.deviations),
                "BuildInvariantGraph");
      suspects = causal::RankSuspects(graph);
    }
    const std::vector<int> culprits = campaign::DefaultCulpritMetrics(c.fault);
    for (size_t i = 0; i < std::min<size_t>(3, suspects.size()); ++i) {
      if (std::find(culprits.begin(), culprits.end(), suspects[i].metric) !=
          culprits.end()) {
        ++recall3;
        break;
      }
    }
  }
  if (answers.known > 0) answers.top1 = double(top1) / answers.known;
  if (answers.held_out > 0) answers.recall3 = double(recall3) / answers.held_out;
  uint32_t digest = 2166136261u;
  for (const std::string& text : firsts) digest = Fnv1a(text, digest);
  answers.digest = digest;
  return answers;
}

void AnswerNotes(const IncidentState& state, const Answers& a,
                 Outcome* outcome) {
  if (state.monitors.empty()) return;
  char note[256];
  std::snprintf(note, sizeof(note),
                "answers: known-fault top-1 %.3f of %zu, held-out recall@3 "
                "%.3f of %zu, %zu undetected runs, verdict digest %08x",
                a.top1, a.known, a.recall3, a.held_out,
                state.undetected.size(), a.digest);
  outcome->notes.push_back(note);
}

// What the traced half left in the library's registry and fleet, read
// before anything else records into them, plus side measurements on the
// same data: the wire codec on one tick's batch (wire only), and the ARIMA
// predictor over each monitor's samples of one job.
struct LayerReadings {
  double server_p50 = 0.0;  // serve.ingest_seconds
  double server_p99 = 0.0;
  double queue_wait_p50 = 0.0;  // threadpool.queue_wait
  double queue_wait_p99 = 0.0;
  serve::FleetStatus status;
  Counters traced;  // counter deltas over the traced half
  size_t frame_bytes = 0;
  double observe_ns = 0.0;
};

LayerReadings ReadLayers(const Producer& producer, const Served& served,
                         const Counters& traced_start, SpanRecorder* spans) {
  const bool wire = served.client != nullptr;
  LayerReadings r;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  const obs::Histogram& ingest = registry.GetHistogram("serve.ingest_seconds");
  const obs::Histogram& wait = registry.GetHistogram("threadpool.queue_wait");
  r.server_p50 = ingest.Percentile(0.50);
  r.server_p99 = ingest.Percentile(0.99);
  r.queue_wait_p50 = wait.Percentile(0.50);
  r.queue_wait_p99 = wait.Percentile(0.99);
  r.status = served.fleet->Snapshot();
  r.traced = Counters::Read().Minus(traced_start);

  std::vector<serve::TickSample> batch(producer.size());
  producer.Fill(0, &batch);
  for (int i = 0; wire && i < 32; ++i) {
    std::string frame;
    {
      Scope scope(spans, "net.EncodeTick", "net", i);
      frame = net::EncodeTick(batch);
    }
    r.frame_bytes = frame.size();
    // The payload follows the 4-byte length and the 1-byte frame type.
    Scope scope(spans, "net.DecodeTick", "net", i);
    const std::vector<serve::TickSample> decoded =
        OrDie(net::DecodeTick(std::string_view(frame).substr(5)), "DecodeTick");
    if (decoded.size() != batch.size() || decoded[0].cpi != batch[0].cpi) {
      Die(Status::Internal("codec round trip changed the batch"), "DecodeTick");
    }
  }
  const auto model =
      OrDie(served.pipeline->GetContext(MonitorContext(0)), "GetContext");
  std::vector<ts::ArimaPredictor> predictors(
      producer.size(), ts::ArimaPredictor(model->perf.arima()));
  double residuals = 0.0;
  const int64_t t0 = NowNs();
  {
    Scope scope(spans, "timeseries.ArimaPredictor::Observe", "timeseries");
    for (size_t t = 0; t < producer.job_ticks(); ++t) {
      for (size_t i = 0; i < predictors.size(); ++i) {
        residuals +=
            predictors[i].Observe(producer.Row(i, static_cast<int64_t>(t))[0]);
      }
    }
  }
  r.observe_ns = static_cast<double>(NowNs() - t0) /
                 static_cast<double>(predictors.size() * producer.job_ticks());
  if (!std::isfinite(residuals)) {
    Die(Status::Internal("non-finite residual"), "ArimaPredictor::Observe");
  }
  return r;
}

// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const LayerReadings& readings;
  const SetupStats& setup;
  const Phase& traced;
  const Phase& untraced;
  const IncidentState& state;
  size_t first_traced_verdict;
  const Answers& answers;
  bool wire;
  size_t monitors;  // background samples per tick
};

void PerLayerMetrics(const LayerInputs& in, const SpanRecorder& spans,
                     Outcome* outcome) {
  std::vector<Metric>& out = outcome->per_layer;
  const LayerReadings& r = in.readings;
  auto p50 = [&](const char* name) {
    return Percentile(spans.Durations(name), 0.50);
  };

  // Verdicts of the traced half (incident).
  std::vector<double> wait, matrix, infer;
  size_t fallbacks = 0;
  double matrix_total = 0.0;
  for (size_t i = in.first_traced_verdict; i < in.state.verdicts.size(); ++i) {
    const core::DiagnosisCost& cost = in.state.verdicts[i].report.cost;
    wait.push_back(in.state.verdicts[i].latency - cost.total_seconds);
    matrix.push_back(cost.matrix_seconds);
    matrix_total += cost.matrix_seconds;
    infer.push_back(cost.infer_seconds);
    if (in.state.verdicts[i].report.used_causal_fallback) ++fallbacks;
  }
  const double traced_verdicts = static_cast<double>(matrix.size());

  // On the wire the fleet runs in the server; its own histogram times it.
  const double ingest_p50 = in.wire ? r.server_p50 : p50("serve.IngestTick");
  const double ingest_p99 =
      in.wire ? r.server_p99
              : Percentile(spans.Durations("serve.IngestTick"), 0.99);
  uint64_t most = 0;
  uint64_t least = UINT64_MAX;
  uint64_t ring_rejects = 0;
  for (const serve::ShardStatus& shard : r.status.shards) {
    most = std::max(most, shard.samples);
    least = std::min(least, shard.samples);
    ring_rejects += shard.ring_rejects;
  }
  // Per monitor, from each fleet-wide (re-)arm; on the wire each JOB
  // round trip re-arms every monitor in the server.
  const double start_job =
      p50(in.wire ? "net.IngestClient::StartJob" : "serve.StartJob.fleet") /
      in.monitors;
  const Counters& train = in.setup.train_counters;
  const uint64_t hits = train.cache_hits + r.traced.cache_hits;
  const uint64_t lookups =
      hits + train.cache_misses + r.traced.cache_misses;
  const double traced_p50 = Percentile(in.traced.tick_seconds, 0.50);
  const double untraced_p50 = Percentile(in.untraced.tick_seconds, 0.50);

  Add(&out, "net.roundtrip_ms", p50("net.IngestClient::Tick") * 1e3, "ms");
  Add(&out, "net.encode_ms", p50("net.EncodeTick") * 1e3, "ms");
  Add(&out, "net.decode_ms", p50("net.DecodeTick") * 1e3, "ms");
  Add(&out, "net.frame_bytes", static_cast<double>(r.frame_bytes), "count");
  Add(&out, "net.server_ms", r.server_p50 * 1e3, "ms");
  Add(&out, "serve.ingest_tick_ms", ingest_p50 * 1e3, "ms");
  Add(&out, "serve.ingest_tick_p99_ms", ingest_p99 * 1e3, "ms");
  Add(&out, "serve.ns_per_sample", ingest_p50 * 1e9 / in.monitors, "ns");
  Add(&out, "serve.start_job_us", start_job * 1e6, "us");
  Add(&out, "serve.shard_skew",
      least == 0 ? 0.0 : static_cast<double>(most) / least, "ratio");
  Add(&out, "serve.samples_rejected", r.status.samples_rejected, "count");
  Add(&out, "serve.alarms_raised", r.status.alarms_raised, "count");
  Add(&out, "serve.diagnoses_completed", r.status.diagnoses_completed,
      "count");
  Add(&out, "common.ring_rejects", ring_rejects, "count");
  Add(&out, "serve.verdict_wait_ms", Percentile(wait, 0.50) * 1e3, "ms");
  Add(&out, "serve.render_us", p50("serve.RenderVerdicts") * 1e6, "us");
  Add(&out, "timeseries.observe_ns", r.observe_ns, "ns");
  Add(&out, "core.train_s", Median(in.setup.train), "s");
  Add(&out, "core.signature_s", Median(in.setup.signature), "s");
  Add(&out, "core.matrix_ms", Percentile(matrix, 0.50) * 1e3, "ms");
  Add(&out, "core.infer_ms", Percentile(infer, 0.50) * 1e3, "ms");
  Add(&out, "core.assoc_cache_hits", hits, "count");
  Add(&out, "core.assoc_cache_hit_rate",
      lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups, "ratio");
  Add(&out, "core.pairs_rescored", train.pairs_rescored, "count");
  Add(&out, "core.pairs_reused", train.pairs_reused, "count");
  Add(&out, "mic.pairs_per_s",
      matrix_total > 0.0 ? kPairsPerMatrix * traced_verdicts / matrix_total
                         : 0.0,
      "1/s");
  Add(&out, "mic.train_pairs_per_s",
      static_cast<double>(train.pairs_scored) / Median(in.setup.train), "1/s");
  Add(&out, "causal.fallback_share",
      matrix.empty() ? 0.0 : fallbacks / traced_verdicts, "ratio");
  Add(&out, "causal.rank_ms", p50("causal.RankSuspects") * 1e3, "ms");
  Add(&out, "common.pool_queue_wait_ms", r.queue_wait_p50 * 1e3, "ms");
  Add(&out, "common.pool_queue_wait_p99_ms", r.queue_wait_p99 * 1e3, "ms");
  Add(&out, "core.top1_correct", in.answers.top1, "ratio");
  Add(&out, "causal.recall_at_3", in.answers.recall3, "ratio");
  Add(&out, "trace.overhead_pct",
      untraced_p50 > 0.0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0,
      "%");

  // Self time per module on the benchmark thread.
  double total = 0.0;
  const auto layers = spans.SelfTimeByLayer();
  for (const auto& [layer, calls_seconds] : layers) {
    total += calls_seconds.second;
  }
  for (const auto& [layer, calls_seconds] : layers) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "self time %-11s %9llu calls %11.3f ms %6.1f%%",
                  layer.c_str(),
                  static_cast<unsigned long long>(calls_seconds.first),
                  calls_seconds.second * 1e3,
                  total > 0.0 ? 100.0 * calls_seconds.second / total : 0.0);
    outcome->notes.push_back(row);
  }
}

}  // namespace

void RunWorkload(const Options& options, const Inputs& inputs,
                 SpanRecorder* spans, Outcome* outcome) {
  const bool tracing = spans->enabled;
  // Set-up runs options.setups times: the first half before the timed
  // phase (the last of these is served), the rest after it, so the
  // repetitions sample different stretches of the run.
  const int setups_before = (options.setups + 1) / 2;
  SetupStats setup;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < setups_before; ++rep) {
    served.reset();
    served = SetUp(options, inputs, spans);
    setup.Record(*served);
  }

  const Producer producer(inputs, served->armed);
  const size_t monitors = producer.size();
  const bool incident = options.workload == "incident";
  const bool wire = served->client != nullptr;
  {
    const auto model = OrDie(served->pipeline->GetContext(MonitorContext(0)),
                             "GetContext");
    const ts::ArimaOrder order = model->perf.arima().order();
    char note[160];
    std::snprintf(note, sizeof(note),
                  "model: ARIMA(%d,%d,%d), %d invariants, %zu signatures",
                  order.p, order.d, order.q,
                  static_cast<int>(std::count(model->invariants.present.begin(),
                                              model->invariants.present.end(),
                                              1)),
                  inputs.signature_runs.size());
    outcome->notes.push_back(note);
  }
  const double timed = options.trace ? options.seconds / 2 : options.seconds;
  int64_t tick = 0;
  Phase warmup;
  Phase untraced;
  Phase traced;
  IncidentState state;
  Counters traced_start;
  size_t traced_first_verdict = 0;

  // Warm-up (at least a window of ticks, in whole jobs on ingest and wire)
  // and the untraced half are not traced; the traced half starts from
  // freshly reset latency histograms.
  spans->enabled = false;
  auto start_tracing = [&] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
    registry.GetHistogram("serve.ingest_seconds").Reset();
    registry.GetHistogram("threadpool.queue_wait").Reset();
    traced_start = Counters::Read();
    traced_first_verdict = state.verdicts.size();
    spans->enabled = tracing;
  };
  if (incident) {
    std::vector<serve::TickSample> batch(monitors);
    for (; tick < kWindowTicks; ++tick) {
      producer.Fill(tick, &batch);
      const serve::TickSummary summary =
          OrDie(served->fleet->IngestTick(batch), "IngestTick");
      warmup.offered += batch.size();
      warmup.rejected += static_cast<uint64_t>(summary.rejected);
      warmup.alarms += static_cast<uint64_t>(summary.new_alarms);
      warmup.accepted.push_back(static_cast<uint32_t>(summary.samples));
    }
    if (warmup.alarms > 0) {
      outcome->failed += warmup.alarms;
      outcome->failures.push_back("background monitor alarmed on clean "
                                  "traffic during warm-up");
    }
    for (int m = 0; m < kIncidentMonitors; ++m) {
      IncidentMonitor monitor;
      monitor.armed = served->incident[static_cast<size_t>(m)];
      monitor.queue = &inputs.incident_queues[static_cast<size_t>(m)];
      state.monitors.push_back(monitor);
    }
    RunIncident(producer, served.get(), timed, &tick, &state, &untraced,
                nullptr, outcome);
    if (options.trace) {
      start_tracing();
      RunIncident(producer, served.get(), timed, &tick, &state, &traced, spans,
                  outcome);
    }
    DrainIncident(served.get(), &state, options.trace ? &traced : &untraced,
                  spans, outcome);
  } else {
    Transport transport(served.get(), nullptr);
    while (tick < kWindowTicks) {
      RunJobs(&transport, producer, 0.0, &tick, &warmup, nullptr);
    }
    RunJobs(&transport, producer, timed, &tick, &untraced, nullptr);
    if (options.trace) {
      start_tracing();
      Transport traced_transport(served.get(), spans);
      RunJobs(&traced_transport, producer, timed, &tick, &traced, spans);
    }
  }
  const double rss_mb = PeakRssMb();
  LayerReadings readings;
  if (options.trace) {
    readings = ReadLayers(producer, *served, traced_start, spans);
  }
  Answers answers;
  if (incident) {
    answers = ComputeAnswers(
        state, *OrDie(served->pipeline->GetContext(MonitorContext(0)),
                      "GetContext"),
        spans);
    AnswerNotes(state, answers, outcome);
  }
  spans->enabled = false;
  CheckOutputs(options, served.get(), state, {&warmup, &untraced, &traced},
               outcome);

  served.reset();
  spans->enabled = tracing;
  for (int rep = setups_before; rep < options.setups; ++rep) {
    setup.Record(*SetUp(options, inputs, spans));
  }
  spans->enabled = false;

  EndToEndMetrics(options, untraced, setup.seconds, rss_mb, outcome);
  if (options.trace) {
    PerLayerMetrics({readings, setup, traced, untraced, state,
                     traced_first_verdict, answers, wire, monitors},
                    *spans, outcome);
  }
}

}  // namespace invarnetx::perfbench
