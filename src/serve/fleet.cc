#include "serve/fleet.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/statusz.h"

namespace invarnetx::serve {

namespace {

// One window-slab row: [cpi, metric 0 .. metric 25] per tick slot.
constexpr size_t kRowDoubles = static_cast<size_t>(telemetry::kNumMetrics) + 1;

// Monitors per window-slab block. A block stores its windows slot-major:
// slot s holds the rows of the block's kSlabBlock monitors back to back,
// so a tick's writes for neighbouring monitors (which share a write slot
// when they were armed together) land in one contiguous stretch instead of
// one row per window-sized stride.
constexpr size_t kSlabBlock = 16;

// Offset of shard-local monitor `local`'s row for window slot `slot`.
size_t SlabRow(size_t capacity, uint32_t local, uint32_t slot) {
  const size_t block = local / kSlabBlock;
  const size_t lane = local % kSlabBlock;
  return ((block * capacity + slot) * kSlabBlock + lane) * kRowDoubles;
}

// One tick's drain claims, shared with that tick's pool tasks. A shard's
// drain goes to whichever of its task and the ingesting thread claims it
// first, and the ingesting thread waits only for the drains tasks took. A
// task that loses the claim touches nothing but this state, which its
// shared_ptr keeps alive after the tick has returned.
struct TickDrains {
  std::array<std::atomic<uint8_t>, kMaxThreads> claimed{};
  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;  // drains completed by pool tasks

  bool Claim(size_t shard) {
    return claimed[shard].exchange(1) == 0;
  }
  void Finish() {
    std::lock_guard<std::mutex> lock(mu);
    ++finished;
    cv.notify_all();
  }
  void WaitFor(int drains) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return finished == drains; });
  }
};

}  // namespace

MonitorFleet::MonitorFleet(const core::InvarNetX* pipeline, FleetConfig config)
    : pipeline_(pipeline), config_(config) {
  if (config_.window_capacity == 0) config_.window_capacity = 1;
  if (config_.storm_window_ticks == 0) config_.storm_window_ticks = 1;
  if (config_.watchdog_window_ticks == 0) config_.watchdog_window_ticks = 1;
  storm_window_.resize(config_.storm_window_ticks, 0);
  tick_latencies_.resize(config_.watchdog_window_ticks, 0.0);
  latency_scratch_.reserve(config_.watchdog_window_ticks);
  consecutive_required_ = pipeline_->config().consecutive_required;
  effective_threads_ = EffectiveThreadCount(config_.threads);

  // Resolve the shard count once; it is fixed for the fleet's lifetime (a
  // monitor's shard is part of its handle assignment). An auto count never
  // exceeds one shard per expected slab block: a shard's first monitor
  // allocates a whole block, so a shard of one monitor would hold 16
  // windows.
  int shards = config_.shards;
  if (shards < 1) {
    shards = EffectiveThreadCount(0);
    if (config_.expected_monitors > 0) {
      const size_t blocks =
          (config_.expected_monitors + kSlabBlock - 1) / kSlabBlock;
      shards = static_cast<int>(
          std::min(static_cast<size_t>(shards), blocks));
    }
  }
  shards = std::min(shards, kMaxThreads);
  config_.shards = shards;

  const size_t initial_ring =
      config_.ring_capacity == 0 ? 1 : config_.ring_capacity;
  const size_t per_shard_hint =
      config_.expected_monitors == 0
          ? 0
          : config_.expected_monitors / static_cast<size_t>(shards) + 1;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  active_monitors_gauge_ = &registry.GetGauge("serve.active_monitors");
  alarms_active_gauge_ = &registry.GetGauge("serve.alarms_active");
  diagnosis_backlog_gauge_ = &registry.GetGauge("serve.diagnosis_backlog");
  ingest_p99_gauge_ = &registry.GetGauge("serve.ingest_p99_seconds");
  ticks_ingested_counter_ = &registry.GetCounter("serve.ticks_ingested");
  samples_ingested_counter_ = &registry.GetCounter("serve.samples_ingested");
  alarms_raised_counter_ = &registry.GetCounter("serve.alarms_raised");
  diagnoses_completed_counter_ =
      &registry.GetCounter("serve.diagnoses_completed");
  ingest_seconds_histogram_ = &registry.GetHistogram("serve.ingest_seconds");
  queue_depth_histogram_ =
      &registry.GetHistogram("serve.diagnosis_queue_depth");
  shards_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>(initial_ring);
    const obs::MetricLabels labels = {{"shard", std::to_string(s)}};
    shard->samples_counter = &registry.GetCounter("serve.shard_samples", labels);
    shard->window_overflow_counter =
        &registry.GetCounter("serve.shard_overflow", labels);
    shard->ring_overflow_counter =
        &registry.GetCounter("serve.ring_overflow", labels);
    if (per_shard_hint > 0) {
      ShardHot& hot = shard->hot;
      hot.predictor.reserve(per_shard_hint);
      hot.last_residual.reserve(per_shard_hint);
      hot.threshold.reserve(per_shard_hint);
      hot.debounce.reserve(per_shard_hint);
      hot.alarm.reserve(per_shard_hint);
      hot.first_alarm_tick.reserve(per_shard_hint);
      hot.window_total.reserve(per_shard_hint);
      hot.window_head.reserve(per_shard_hint);
      hot.epoch.reserve(per_shard_hint);
      const size_t blocks = (per_shard_hint + kSlabBlock - 1) / kSlabBlock;
      hot.window_slab.reserve(blocks * kSlabBlock * config_.window_capacity *
                              kRowDoubles);
      shard->members.reserve(per_shard_hint);
    }
    shards_.push_back(std::move(shard));
  }
  if (config_.expected_monitors > 0) {
    index_.reserve(config_.expected_monitors);
    slots_.reserve(config_.expected_monitors);
    shard_of_.reserve(config_.expected_monitors);
    local_of_.reserve(config_.expected_monitors);
    job_active_.reserve(config_.expected_monitors);
    seen_stamp_.reserve(config_.expected_monitors);
  }
  shard_count_scratch_.resize(static_cast<size_t>(shards), 0);
  shard_pushed_scratch_.resize(static_cast<size_t>(shards), 0);

  if (effective_threads_ > 1) {
    ThreadPool::Shared().EnsureSize(effective_threads_);
  }
  status_cache_.slow_tick_budget_seconds = config_.slow_tick_budget_seconds;
  FleetStatusBoard::Shared().Register(this);
}

MonitorFleet::~MonitorFleet() {
  // Deregister first: once this returns, no /statusz scrape can reach us.
  FleetStatusBoard::Shared().Deregister(this);
  // Pool workers capture `this` (results_mu_/results_cv_); never let the
  // fleet die with diagnoses in flight.
  WaitForDiagnoses();
}

Result<MonitorHandle> MonitorFleet::StartJob(
    const core::OperationContext& context) {
  Result<std::shared_ptr<const core::ContextModel>> model =
      pipeline_->GetContext(context);
  if (!model.ok()) return model.status();

  auto [it, inserted] = index_.try_emplace(context, kInvalidMonitor);
  if (inserted) {
    // First job for this context: assign the next dense handle and its
    // shard, and grow that shard's SoA columns by one monitor (and its
    // window slab by a block when the monitor opens one).
    const MonitorHandle handle = static_cast<MonitorHandle>(slots_.size());
    const uint32_t shard_index =
        static_cast<uint32_t>(handle) % static_cast<uint32_t>(shards_.size());
    Shard& shard = *shards_[shard_index];
    const uint32_t local = static_cast<uint32_t>(shard.members.size());
    it->second = handle;

    slots_.push_back(ColdSlot{context, nullptr});
    shard_of_.push_back(shard_index);
    local_of_.push_back(local);
    job_active_.push_back(0);
    seen_stamp_.push_back(0);

    ShardHot& hot = shard.hot;
    hot.predictor.emplace_back(ts::ArimaModel());  // re-pinned below
    hot.last_residual.push_back(0.0);
    hot.threshold.push_back(0.0);
    hot.debounce.push_back(0);
    hot.alarm.push_back(kAlarmNone);
    hot.first_alarm_tick.push_back(-1);
    hot.window_total.push_back(0);
    hot.window_head.push_back(0);
    hot.epoch.push_back(0);
    if (local % kSlabBlock == 0) {
      hot.window_slab.resize(hot.window_slab.size() +
                             kSlabBlock * config_.window_capacity *
                                 kRowDoubles);
    }
    shard.members.push_back(handle);

    // Auto ring capacity tracks the shard's population, so a well-formed
    // batch (each monitor at most once per tick) can never be rejected.
    // Safe between ticks: every ring is drained before IngestTick returns.
    if (config_.ring_capacity == 0 &&
        shard.ring.capacity() < shard.members.size()) {
      shard.ring.Reset(shard.members.size());
    }
  }

  const MonitorHandle handle = it->second;
  const size_t h = static_cast<size_t>(handle);
  ColdSlot& cold = slots_[h];
  ShardHot& hot = shards_[shard_of_[h]]->hot;
  const uint32_t local = local_of_[h];

  // Pin the epoch snapshot and cache the scalar alarm threshold; the
  // per-sample path then compares against one double instead of re-deriving
  // the rule from the model.
  cold.model = std::move(model.value());
  hot.threshold[local] =
      cold.model->perf.Threshold(pipeline_->config().threshold_rule);
  hot.epoch[local] = cold.model->epoch;
  hot.predictor[local] = ts::ArimaPredictor(cold.model->perf.arima());
  hot.last_residual[local] = 0.0;
  hot.debounce[local] = 0;
  if (hot.alarm[local] != kAlarmNone) --alarms_latched_;
  hot.alarm[local] = kAlarmNone;
  hot.first_alarm_tick[local] = -1;
  hot.window_total[local] = 0;
  hot.window_head[local] = 0;
  interesting_.erase(handle);

  if (job_active_[h] == 0) {
    job_active_[h] = 1;
    ++active_jobs_;
  }
  // New job era: the next backpressure reject per shard is journal-worthy
  // again.
  for (auto& s : shards_) s->backpressure_journaled = false;

  PublishGauges();
  RefreshStatusCache();
  return handle;
}

void MonitorFleet::ObserveOne(Shard& shard, uint32_t local,
                              const TickSample& sample) {
  ShardHot& hot = shard.hot;
  const core::DetectionStep step =
      core::DetectStep(hot.predictor[local], hot.threshold[local],
                       hot.debounce[local], consecutive_required_, sample.cpi);
  hot.last_residual[local] = step.residual;
  hot.debounce[local] = step.debounce;

  const size_t capacity = config_.window_capacity;
  const uint32_t head = hot.window_head[local];
  double* row = hot.window_slab.data() + SlabRow(capacity, local, head);
  row[0] = sample.cpi;
  std::memcpy(row + 1, sample.metrics.data(),
              sizeof(double) * static_cast<size_t>(telemetry::kNumMetrics));
  hot.window_head[local] = head + 1 == capacity ? 0 : head + 1;
  const int64_t total = ++hot.window_total[local];
  // Overwrites are counted per shard; the accounting pass journals the
  // job's first one (total == capacity + 1).
  if (total > static_cast<int64_t>(capacity)) ++shard.tick_overflows;

  if (step.alarm && hot.alarm[local] == kAlarmNone) {
    hot.alarm[local] = kAlarmNew;
    // Absolute job ticks, so the report still names the right tick after
    // the window has evicted it.
    hot.first_alarm_tick[local] = static_cast<int32_t>(total) - 1;
  }
}

void MonitorFleet::DrainShard(Shard& shard, uint32_t expected,
                              const std::vector<TickSample>& samples) {
  RingEntry entry;
  uint32_t drained = 0;
  while (drained < expected) {
    if (shard.ring.TryPop(&entry)) {
      ObserveOne(shard, entry.local, samples[entry.index]);
      ++drained;
    } else {
      // The producer is still distributing this tick's batch; the entries
      // we are owed are already admitted and on their way.
      std::this_thread::yield();
    }
  }
}

Result<TickSummary> MonitorFleet::IngestTick(
    const std::vector<TickSample>& samples) {
  obs::Span ingest_span("serve_ingest_tick", {{"samples", samples.size()}});
  ++tick_stamp_;

  // Phase 1 - validate and resolve every sample up front: errors surface
  // before any observation lands, so a rejected batch leaves the fleet
  // untouched. Duplicate detection is allocation-free: dense tick-stamped
  // flags over handles, no per-tick set.
  handles_scratch_.resize(samples.size());
  const size_t num_shards = shards_.size();
  std::fill(shard_count_scratch_.begin(), shard_count_scratch_.end(), 0u);
  for (size_t i = 0; i < samples.size(); ++i) {
    const MonitorHandle handle = samples[i].monitor;
    if (handle < 0 || static_cast<size_t>(handle) >= slots_.size()) {
      return Status::NotFound("IngestTick: no monitor has handle " +
                              std::to_string(handle));
    }
    if (job_active_[static_cast<size_t>(handle)] == 0) {
      return Status::FailedPrecondition("IngestTick: no active monitor for " +
                                        slots_[static_cast<size_t>(handle)]
                                            .context.ToString());
    }
    if (seen_stamp_[static_cast<size_t>(handle)] == tick_stamp_) {
      return Status::InvalidArgument("IngestTick: duplicate sample for " +
                                     slots_[static_cast<size_t>(handle)]
                                         .context.ToString());
    }
    seen_stamp_[static_cast<size_t>(handle)] = tick_stamp_;
    handles_scratch_[i] = handle;
    ++shard_count_scratch_[shard_of_[static_cast<size_t>(handle)]];
  }

  // Phase 2 - deterministic admission: a shard accepts at most its ring
  // capacity this tick, decided by counts in batch order - never by queue
  // timing - so the reject set is identical for every thread count.
  int nonempty = 0;
  int first_nonempty = -1;
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s]->tick_overflows = 0;
    if (shard_count_scratch_[s] == 0) continue;
    ++nonempty;
    if (first_nonempty < 0) first_nonempty = static_cast<int>(s);
  }
  const bool parallel = effective_threads_ > 1 && nonempty > 1;
  // Samples shard s admits this tick: its count, capped by the ring.
  auto admitted = [this](size_t s) {
    return static_cast<uint32_t>(std::min<size_t>(shard_count_scratch_[s],
                                                  shards_[s]->ring.capacity()));
  };

  // Drain tasks for every shard after the first start before the push
  // phase, so detection pipelines with distribution. Each task races this
  // thread to claim its shard's drain, so the tick never waits for a pool
  // worker to come free - only for a drain a task actually took.
  std::shared_ptr<TickDrains> drains;
  if (parallel) {
    drains = std::make_shared<TickDrains>();
    for (size_t s = static_cast<size_t>(first_nonempty) + 1; s < num_shards;
         ++s) {
      if (shard_count_scratch_[s] == 0) continue;
      Shard* shard = shards_[s].get();
      ThreadPool::Shared().Submit(
          [this, shard, s, expected = admitted(s), &samples, drains] {
            if (!drains->Claim(s)) return;
            DrainShard(*shard, expected, samples);
            drains->Finish();
          });
    }
  }

  // Phase 3 - distribute in batch order. An admitted push cannot fail: at
  // most capacity entries are pushed per shard per tick and the consumer
  // only ever removes entries, so the ring never holds more than capacity.
  TickSummary summary;
  accepted_scratch_.resize(samples.size());
  std::fill(shard_pushed_scratch_.begin(), shard_pushed_scratch_.end(), 0u);
  for (size_t i = 0; i < samples.size(); ++i) {
    const MonitorHandle handle = handles_scratch_[i];
    const uint32_t s = shard_of_[static_cast<size_t>(handle)];
    Shard& shard = *shards_[s];
    if (shard_pushed_scratch_[s] < shard.ring.capacity()) {
      ++shard_pushed_scratch_[s];
      shard.ring.TryPush(RingEntry{local_of_[static_cast<size_t>(handle)],
                                   static_cast<uint32_t>(i)});
      accepted_scratch_[i] = 1;
    } else {
      accepted_scratch_[i] = 0;
      ++summary.rejected;
    }
  }

  // Phase 4 - drain. This thread takes the first shard, then every shard
  // whose task has not claimed it yet, then waits for the drains tasks
  // took. Serially (no pool) it drains every shard in shard order.
  if (first_nonempty >= 0) {
    const size_t first = static_cast<size_t>(first_nonempty);
    DrainShard(*shards_[first], admitted(first), samples);
    int taken_by_tasks = 0;
    for (size_t s = first + 1; s < num_shards; ++s) {
      if (shard_count_scratch_[s] == 0) continue;
      if (parallel && !drains->Claim(s)) {
        ++taken_by_tasks;
        continue;
      }
      DrainShard(*shards_[s], admitted(s), samples);
    }
    if (taken_by_tasks > 0) drains->WaitFor(taken_by_tasks);
  }

  // Phase 5 - accounting and alarm handling, serially in batch order, so
  // diagnosis dispatch order is deterministic for every shard and thread
  // count. The walk reads hot columns only.
  const int64_t first_overflow =
      static_cast<int64_t>(config_.window_capacity) + 1;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (accepted_scratch_[i] == 0) continue;
    const MonitorHandle handle = handles_scratch_[i];
    const size_t h = static_cast<size_t>(handle);
    ShardHot& hot = shards_[shard_of_[h]]->hot;
    const uint32_t local = local_of_[h];
    if (hot.window_total[local] == first_overflow) {
      interesting_.insert(handle);
      obs::EventJournal::Shared().Record(
          obs::EventKind::kRingOverflow, "window overwriting oldest ticks",
          {{"context", slots_[h].context.ToString()},
           {"capacity", static_cast<uint64_t>(config_.window_capacity)}});
    }
    if (hot.alarm[local] != kAlarmNew) continue;
    hot.alarm[local] = kAlarmAccounted;
    interesting_.insert(handle);
    ++summary.new_alarms;
    ++alarms_raised_;
    ++alarms_latched_;
    alarms_raised_counter_->Increment();
    obs::EventJournal::Shared().Record(
        obs::EventKind::kAlarm, "debounced alarm latched",
        {{"context", slots_[h].context.ToString()},
         {"tick", hot.first_alarm_tick[local]}});
    if (config_.diagnose_on_alarm) DispatchDiagnosis(handle);
  }
  summary.alarms_active = static_cast<int>(alarms_latched_);

  // Per-shard series: one batched increment per shard instead of one atomic
  // per sample.
  for (size_t s = 0; s < num_shards; ++s) {
    Shard& shard = *shards_[s];
    const uint32_t count = shard_count_scratch_[s];
    if (count == 0) continue;
    const uint32_t accepted = admitted(s);
    summary.samples += static_cast<int>(accepted);
    shard.samples += accepted;
    shard.samples_counter->Increment(accepted);
    if (shard.tick_overflows > 0) {
      window_overflows_ += shard.tick_overflows;
      shard.window_overflow_counter->Increment(shard.tick_overflows);
    }
    const uint32_t rejected = count - accepted;
    if (rejected > 0) {
      shard.ring_rejects += rejected;
      shard.ring_overflow_counter->Increment(rejected);
      samples_rejected_ += rejected;
      if (!shard.backpressure_journaled) {
        shard.backpressure_journaled = true;
        obs::EventJournal::Shared().Record(
            obs::EventKind::kBackpressure, "ingest ring full; samples rejected",
            {{"shard", static_cast<uint64_t>(s)},
             {"rejected", static_cast<uint64_t>(rejected)},
             {"ring_capacity", static_cast<uint64_t>(shard.ring.capacity())}});
      }
    }
  }

  ticks_ingested_counter_->Increment();
  samples_ingested_counter_->Increment(static_cast<uint64_t>(summary.samples));
  ++ticks_ingested_;
  samples_ingested_ += static_cast<uint64_t>(summary.samples);
  PublishGauges();
  ingest_span.End();
  ingest_seconds_histogram_->Record(ingest_span.Seconds());
  RunWatchdogs(summary.new_alarms, ingest_span.Seconds());
  RefreshStatusCache();
  return summary;
}

telemetry::NodeTrace MonitorFleet::MaterializeWindow(
    const Shard& shard, uint32_t local, const std::string& ip) const {
  // Oldest retained tick first; a tick's slot is its absolute tick modulo
  // capacity.
  const ShardHot& hot = shard.hot;
  const size_t capacity = config_.window_capacity;
  const int64_t total = hot.window_total[local];
  const int64_t size = std::min(total, static_cast<int64_t>(capacity));
  const int64_t start = total - size;
  telemetry::NodeTrace out;
  out.ip = ip;
  out.cpi.reserve(static_cast<size_t>(size));
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    out.metrics[static_cast<size_t>(m)].reserve(static_cast<size_t>(size));
  }
  for (int64_t i = 0; i < size; ++i) {
    const uint32_t slot = static_cast<uint32_t>(
        (start + i) % static_cast<int64_t>(capacity));
    const double* row = hot.window_slab.data() + SlabRow(capacity, local, slot);
    out.cpi.push_back(row[0]);
    for (int m = 0; m < telemetry::kNumMetrics; ++m) {
      out.metrics[static_cast<size_t>(m)].push_back(row[m + 1]);
    }
  }
  return out;
}

void MonitorFleet::DispatchDiagnosis(MonitorHandle handle) {
  // Snapshot everything the diagnosis needs now: later ticks keep mutating
  // the live window while the MIC matrix grinds on the copy, and a StartJob
  // re-arm can swap the monitor's model epoch underneath us.
  const size_t h = static_cast<size_t>(handle);
  const ColdSlot& cold = slots_[h];
  const Shard& shard = *shards_[shard_of_[h]];
  const uint32_t local = local_of_[h];
  FleetDiagnosis pending;
  pending.context = cold.context;
  pending.epoch = shard.hot.epoch[local];
  pending.first_alarm_tick = shard.hot.first_alarm_tick[local];
  std::shared_ptr<const core::ContextModel> model = cold.model;
  telemetry::NodeTrace window =
      MaterializeWindow(shard, local, cold.context.node_ip);

  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    depth = ++pending_;
  }
  queue_depth_histogram_->Record(static_cast<double>(depth));
  diagnosis_backlog_gauge_->Set(static_cast<double>(depth));

  // The registry handles are copied into the task: past the notify below
  // the fleet may already be getting destroyed, while the process-wide
  // registry they point into outlives it.
  auto task = [this, pending = std::move(pending), model = std::move(model),
               window = std::move(window),
               completed_counter = diagnoses_completed_counter_,
               backlog_gauge = diagnosis_backlog_gauge_]() mutable {
    Result<core::DiagnosisReport> report =
        pipeline_->InferCauseForModel(*model, window);
    if (report.ok()) {
      pending.report = std::move(report.value());
      pending.report.anomaly_detected = true;
      pending.report.first_alarm_tick = pending.first_alarm_tick;
    } else {
      pending.status = report.status();
    }
    completed_counter->Increment();
    diagnoses_completed_.fetch_add(1, std::memory_order_relaxed);
    obs::EventJournal::Shared().Record(
        obs::EventKind::kDiagnosis, "alarm-triggered diagnosis completed",
        {{"context", pending.context.ToString()},
         {"epoch", pending.epoch},
         {"ok", pending.status.ok()}});
    size_t backlog = 0;
    {
      std::lock_guard<std::mutex> lock(results_mu_);
      results_.push_back(std::move(pending));
      backlog = --pending_;
      // Notify under the lock: a WaitForDiagnoses caller may destroy the
      // fleet the moment it sees pending_ == 0, and it cannot leave wait()
      // until this mutex is released - keeping the cv alive for the
      // broadcast.
      results_cv_.notify_all();
    }
    // Only the process-wide registry is touched past the notify: the fleet
    // may already be getting destroyed by the thread it just woke.
    backlog_gauge->Set(static_cast<double>(backlog));
  };
  if (config_.threads == 1) {
    task();
  } else {
    ThreadPool::Shared().Submit(std::move(task));
  }
}

void MonitorFleet::WaitForDiagnoses() {
  std::unique_lock<std::mutex> lock(results_mu_);
  results_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::vector<FleetDiagnosis> MonitorFleet::TakeDiagnoses() {
  std::vector<FleetDiagnosis> out;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    out.swap(results_);
  }
  std::sort(out.begin(), out.end(),
            [](const FleetDiagnosis& a, const FleetDiagnosis& b) {
              if (!(a.context == b.context)) return a.context < b.context;
              return a.first_alarm_tick < b.first_alarm_tick;
            });
  return out;
}

size_t MonitorFleet::pending_diagnoses() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  return pending_;
}

MonitorHandle MonitorFleet::Resolve(
    const core::OperationContext& context) const {
  auto it = index_.find(context);
  return it == index_.end() ? kInvalidMonitor : it->second;
}

MonitorView MonitorFleet::ViewLocked(MonitorHandle handle) const {
  const size_t h = static_cast<size_t>(handle);
  const ShardHot& hot = shards_[shard_of_[h]]->hot;
  const uint32_t local = local_of_[h];
  const int64_t total = hot.window_total[local];
  const int64_t capacity = static_cast<int64_t>(config_.window_capacity);
  MonitorView view;
  view.context = slots_[h].context;
  view.handle = handle;
  view.shard = static_cast<int>(shard_of_[h]);
  view.job_active = job_active_[h] != 0;
  view.alarm_active = hot.alarm[local] != kAlarmNone;
  view.epoch = hot.epoch[local];
  view.first_alarm_tick = hot.first_alarm_tick[local];
  view.ticks_observed = total;
  view.window_ticks = static_cast<int>(std::min(total, capacity));
  view.window_capacity = config_.window_capacity;
  view.window_start_tick = total - std::min(total, capacity);
  view.last_residual = hot.last_residual[local];
  view.debounce = hot.debounce[local];
  return view;
}

MonitorStatus MonitorFleet::StatusRow(MonitorHandle handle) const {
  const MonitorView view = ViewLocked(handle);
  MonitorStatus row;
  row.context = view.context.ToString();
  row.shard = view.shard;
  row.job_active = view.job_active;
  row.alarm_active = view.alarm_active;
  row.epoch = view.epoch;
  row.first_alarm_tick = view.first_alarm_tick;
  row.ticks_observed = static_cast<int>(view.ticks_observed);
  row.window_ticks = view.window_ticks;
  return row;
}

std::optional<MonitorView> MonitorFleet::View(MonitorHandle handle) const {
  if (handle < 0 || static_cast<size_t>(handle) >= slots_.size()) {
    return std::nullopt;
  }
  return ViewLocked(handle);
}

std::optional<MonitorView> MonitorFleet::View(
    const core::OperationContext& context) const {
  return View(Resolve(context));
}

void MonitorFleet::PublishGauges() {
  active_monitors_gauge_->Set(static_cast<double>(active_jobs_));
  alarms_active_gauge_->Set(static_cast<double>(alarms_latched_));
}

void MonitorFleet::RunWatchdogs(int new_alarms, double ingest_seconds) {
  // Both detectors keep rings of the last min(ticks, window) ticks; `tick`
  // is this tick's ordinal, and the slot it overwrites held the tick that
  // just left the window.
  const uint64_t tick = ticks_ingested_ - 1;

  // Alarm-storm detector: new alarms over a sliding window of ticks, with
  // trip-at-T / clear-at-T/2 hysteresis so a storm journals twice (start
  // and end), not once per tick.
  if (config_.storm_alarm_threshold > 0) {
    int& slot = storm_window_[tick % storm_window_.size()];
    if (tick >= storm_window_.size()) storm_alarms_in_window_ -= slot;
    slot = new_alarms;
    storm_alarms_in_window_ += new_alarms;
    if (!storm_active_ &&
        storm_alarms_in_window_ >= config_.storm_alarm_threshold) {
      storm_active_ = true;
      obs::EventJournal::Shared().Record(
          obs::EventKind::kAlarmStorm, "alarm storm started",
          {{"alarms_in_window", storm_alarms_in_window_},
           {"window_ticks",
            std::min<uint64_t>(tick + 1, storm_window_.size())},
           {"threshold", config_.storm_alarm_threshold}});
    } else if (storm_active_ &&
               storm_alarms_in_window_ <= config_.storm_alarm_threshold / 2) {
      storm_active_ = false;
      obs::EventJournal::Shared().Record(
          obs::EventKind::kAlarmStorm, "alarm storm cleared",
          {{"alarms_in_window", storm_alarms_in_window_}});
    }
  }

  // Slow-tick watchdog: p99 of recent batched-ingest latencies against the
  // configured budget, same trip/recover hysteresis.
  tick_latencies_[tick % tick_latencies_.size()] = ingest_seconds;
  // The rank-th smallest latency, selected in a reused scratch buffer.
  latency_scratch_.assign(
      tick_latencies_.begin(),
      tick_latencies_.begin() + static_cast<std::ptrdiff_t>(std::min<uint64_t>(
                                    tick + 1, tick_latencies_.size())));
  const size_t rank = std::min(
      latency_scratch_.size() - 1,
      static_cast<size_t>(0.99 * static_cast<double>(latency_scratch_.size())));
  std::nth_element(latency_scratch_.begin(),
                   latency_scratch_.begin() + static_cast<std::ptrdiff_t>(rank),
                   latency_scratch_.end());
  ingest_p99_seconds_ = latency_scratch_[rank];
  ingest_p99_gauge_->Set(ingest_p99_seconds_);
  if (config_.slow_tick_budget_seconds > 0.0) {
    if (!slow_ticks_active_ &&
        ingest_p99_seconds_ > config_.slow_tick_budget_seconds) {
      slow_ticks_active_ = true;
      obs::EventJournal::Shared().Record(
          obs::EventKind::kSlowTick, "ingest p99 above budget",
          {{"p99_seconds", ingest_p99_seconds_},
           {"budget_seconds", config_.slow_tick_budget_seconds}});
    } else if (slow_ticks_active_ &&
               ingest_p99_seconds_ <= config_.slow_tick_budget_seconds) {
      slow_ticks_active_ = false;
      obs::EventJournal::Shared().Record(
          obs::EventKind::kSlowTick, "ingest p99 back under budget",
          {{"p99_seconds", ingest_p99_seconds_}});
    }
  }
}

void MonitorFleet::RefreshStatusCache() {
  FleetStatus status;
  status.active_monitors = active_jobs_;
  status.monitors_total = slots_.size();
  status.alarms_active = alarms_latched_;
  status.ticks_ingested = ticks_ingested_;
  status.samples_ingested = samples_ingested_;
  status.samples_rejected = samples_rejected_;
  status.alarms_raised = alarms_raised_;
  status.window_overflows = window_overflows_;
  status.storm_active = storm_active_;
  status.slow_ticks_active = slow_ticks_active_;
  status.ingest_p99_seconds = ingest_p99_seconds_;
  status.slow_tick_budget_seconds = config_.slow_tick_budget_seconds;
  status.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardStatus row;
    row.shard = static_cast<int>(s);
    row.monitors = shard.members.size();
    row.ring_capacity = shard.ring.capacity();
    row.samples = shard.samples;
    row.ring_rejects = shard.ring_rejects;
    status.shards.push_back(row);
  }

  // Per-monitor rows are capped: a fleet of at most status_top_k monitors
  // lists them all; otherwise at most status_top_k interesting rows (alarm
  // latched or window overflowed this job), walked off the ordered
  // interesting_ index in handle order.
  if (slots_.size() <= config_.status_top_k) {
    status.monitors.reserve(slots_.size());
    for (size_t h = 0; h < slots_.size(); ++h) {
      status.monitors.push_back(StatusRow(static_cast<MonitorHandle>(h)));
    }
  } else {
    for (const MonitorHandle handle : interesting_) {
      if (status.monitors.size() >= config_.status_top_k) break;
      status.monitors.push_back(StatusRow(handle));
    }
  }
  status.monitors_listed_truncated = status.monitors.size() < slots_.size();

  std::lock_guard<std::mutex> lock(status_mu_);
  status_cache_ = std::move(status);
}

FleetStatus MonitorFleet::Snapshot() const {
  FleetStatus status;
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status = status_cache_;
  }
  // Counters pool workers advance are read live; everything else is the
  // ingestion thread's cache.
  status.pending_diagnoses = pending_diagnoses();
  status.diagnoses_completed =
      diagnoses_completed_.load(std::memory_order_relaxed);
  return status;
}

}  // namespace invarnetx::serve
