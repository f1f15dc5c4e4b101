#ifndef INVARNETX_SERVE_FLEET_H_
#define INVARNETX_SERVE_FLEET_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/spsc_ring.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "telemetry/metrics.h"
#include "timeseries/arima.h"

namespace invarnetx::serve {

// Dense index of one monitor within its fleet, assigned at the first
// StartJob for its operation context and stable for the fleet's lifetime.
// It is the only name a sample has for its monitor: the ingest hot path
// resolves it with two array loads, and the hashed context index is only
// consulted by StartJob and Resolve.
using MonitorHandle = int32_t;
inline constexpr MonitorHandle kInvalidMonitor = -1;

// /statusz snapshot cap: at most this many per-monitor rows, picked in
// handle order from the interesting monitors (alarm latched or window
// overflowed this job). Fleets with <= kStatusTopK monitors list
// everything. The cap keeps the status refresh O(K) at fleet scale.
inline constexpr size_t kStatusTopK = 32;
// Sliding windows of the alarm-storm detector and the slow-tick watchdog,
// in ingest ticks.
inline constexpr size_t kStormWindowTicks = 16;
inline constexpr size_t kWatchdogWindowTicks = 64;

// Execution knobs of a MonitorFleet - runtime concerns only: fleet verdicts
// and drained diagnoses are bit-identical for every `threads` and `shards`
// value (as long as no ingest ring overflows; overflow itself is
// deterministic for a fixed shard count and ring capacity).
struct FleetConfig {
  // Observation retention per monitor, in ticks. Windows live in one slab
  // per shard, grown a block of 16 monitors at a time, so a shard holding
  // m monitors keeps ceil(m / 16) x 16 x window_capacity rows of 216 bytes
  // (27 doubles) however few of them it fills.
  size_t window_capacity = 256;
  // Workers for the per-tick shard fan-out (<= 0: one per hardware thread;
  // 1: fully serial - no pool, deterministic single-thread execution).
  // Asynchronous diagnoses additionally use the shared ThreadPool unless
  // this is 1, in which case they run inline.
  int threads = 0;
  // Monitor shards. Each shard owns a bounded SPSC ingest ring (producer =
  // the ingestion thread, consumer = whichever of the tick's pool task and
  // the ingestion thread claims the shard's drain) and the
  // structure-of-arrays hot state of its monitors. Monitors are assigned
  // shard = handle % shards at StartJob. <= 0: one shard per hardware
  // thread, but no more than ceil(expected_monitors / 16) when
  // expected_monitors is set, so no shard holds a mostly empty slab block.
  int shards = 0;
  // Per-shard ingest ring capacity = the backpressure limit: a shard
  // accepts at most this many samples per tick; the rest are rejected
  // (counted in serve.ring_overflow{shard=S} and TickSummary::rejected,
  // journaled once per shard per job era) instead of blocking the
  // ingestion thread. 0 (the default) = auto: each ring grows with its
  // shard's monitor count, so a well-formed batch is never rejected.
  size_t ring_capacity = 0;
  // When true (the default), a monitor's first debounced alarm of a job
  // triggers one asynchronous diagnosis on a snapshot of its window, so
  // detection never blocks on the MIC matrix.
  bool diagnose_on_alarm = true;

  // --- Observability knobs (no effect on verdicts or diagnoses) ---

  // Alarm-storm detector: trips when new alarms across the last
  // kStormWindowTicks ingest ticks reach this threshold; clears (with
  // hysteresis) when they fall to half the threshold. Both events are
  // journaled. A zero threshold disables the detector.
  int storm_alarm_threshold = 8;
  // Slow-tick watchdog: journals when the p99 of the last
  // kWatchdogWindowTicks ingest latencies exceeds the budget, and again
  // when it recovers. A non-positive budget disables the watchdog.
  double slow_tick_budget_seconds = 0.25;
  // Pre-sizes the per-shard state (SoA vectors + window slabs) and the
  // context index for this many monitors, so arming a large fleet never
  // re-copies a half-built slab. 0 = grow on demand.
  size_t expected_monitors = 0;
};

// One monitor's observations for one cluster tick. `monitor` is the dense
// handle StartJob (or the wire's HELLO) returned for the monitor's
// (operation-context x node) pair.
struct TickSample {
  MonitorHandle monitor = kInvalidMonitor;
  double cpi = 0.0;
  std::array<double, telemetry::kNumMetrics> metrics{};
};

// What one batched ingest tick did to the fleet.
struct TickSummary {
  int samples = 0;        // accepted (observed) samples
  int rejected = 0;       // backpressure: dropped by a full ingest ring
  int new_alarms = 0;     // monitors whose debounced alarm first fired now
  int alarms_active = 0;  // latched alarms across the fleet after this tick
};

// One monitor's row in a fleet status snapshot.
struct MonitorStatus {
  std::string context;  // OperationContext::ToString()
  int shard = 0;
  bool alarm_active = false;
  uint64_t epoch = 0;
  int first_alarm_tick = -1;
  int ticks_observed = 0;  // absolute, including window-evicted ticks
  int window_ticks = 0;    // currently retained
};

// One shard's row in a fleet status snapshot.
struct ShardStatus {
  int shard = 0;
  size_t monitors = 0;
  size_t ring_capacity = 0;
  uint64_t samples = 0;       // accepted samples routed through this shard
  uint64_t ring_rejects = 0;  // backpressure drops at this shard's ring
};

// Point-in-time fleet state for /statusz. Produced by
// MonitorFleet::Snapshot(), which is safe to call from any thread (it reads
// a cache the ingestion thread maintains - HTTP scrapes never touch the
// monitor state itself).
struct FleetStatus {
  size_t monitors_total = 0;
  size_t alarms_active = 0;
  size_t pending_diagnoses = 0;
  uint64_t ticks_ingested = 0;
  uint64_t samples_ingested = 0;
  uint64_t samples_rejected = 0;  // total backpressure drops
  uint64_t alarms_raised = 0;
  uint64_t diagnoses_completed = 0;
  uint64_t window_overflows = 0;  // samples that overwrote unread history
  bool storm_active = false;
  bool slow_ticks_active = false;     // watchdog currently tripped
  double ingest_p99_seconds = 0.0;    // over the watchdog window
  double slow_tick_budget_seconds = 0.0;
  std::vector<ShardStatus> shards;
  // Capped at kStatusTopK interesting rows unless the fleet is that small;
  // monitors_listed_truncated says rows were left out.
  std::vector<MonitorStatus> monitors;
  bool monitors_listed_truncated = false;
};

// Introspection view of one monitor (tests, replay rendering). Reads the
// live hot state; call from the ingestion thread like StartJob/IngestTick.
struct MonitorView {
  core::OperationContext context;
  MonitorHandle handle = kInvalidMonitor;
  int shard = 0;
  bool alarm_active = false;
  uint64_t epoch = 0;           // model epoch pinned at StartJob
  int first_alarm_tick = -1;    // absolute job tick; -1 if none
  int64_t ticks_observed = 0;   // absolute, including window-evicted ticks
  int window_ticks = 0;         // currently retained
  size_t window_capacity = 0;   // fixed allocation, in ticks
  int64_t window_start_tick = 0;  // absolute tick of the oldest retained
  double last_residual = 0.0;
  int debounce = 0;             // consecutive threshold exceedances
};

// A completed alarm-triggered diagnosis.
struct FleetDiagnosis {
  core::OperationContext context;
  uint64_t epoch = 0;         // model epoch the diagnosis ran against
  int first_alarm_tick = -1;  // absolute job tick (eviction-stable)
  Status status;              // cause inference itself can fail
  core::DiagnosisReport report;  // meaningful when status.ok()
};

// Many concurrent (operation-context x node) monitors behind one ingestion
// API - the paper's "monitor per node" (Sec. 3.2) scaled to a fleet. The
// engine is sharded for scale:
//
//   - StartJob assigns each monitor a dense MonitorHandle and a shard
//     (handle % shards). The hot detection state - fixed-size ARIMA
//     predictor, latest residual, cached alarm threshold, debounce counter,
//     alarm latch, window cursors, pinned epoch - lives in
//     structure-of-arrays vectors packed per shard, and every shard's
//     observation windows share one slot-major slab; cold state (context
//     string, model snapshot) is out-of-line so the per-sample path never
//     touches it.
//   - IngestTick validates the batch up front (allocation-free: dense
//     tick-stamped flags over handles), then distributes entries into each
//     shard's bounded SPSC ring. Exactly one consumer per shard pops its
//     ring in FIFO order and runs detection: the ingestion thread drains
//     the first shard, and each other shard goes to whichever of its
//     shared-ThreadPool task and the ingestion thread claims it first, so
//     ingest stays live even when every pool worker is grinding a long
//     diagnosis. Every monitor's stream stays serial and verdicts are
//     bit-identical for every shard and thread count.
//   - Backpressure is explicit and deterministic: a shard accepts at most
//     ring_capacity samples per tick (admission is decided by per-tick
//     counts in batch order, never by queue timing); the rest are rejected
//     and counted, and the ingestion thread never blocks on a full ring.
//
// Threading contract: StartJob / IngestTick / TakeDiagnoses / View are
// driven from one ingestion thread (the fleet parallelizes internally);
// completed diagnoses are handed back in deterministic (context, alarm
// tick) order. Retraining the pipeline while the fleet is live is safe:
// every monitor pins its model epoch at StartJob.
//
// Self-observability (obs::MetricsRegistry::Shared()):
//   gauge     serve.alarms_active         latched alarms across the fleet
//   gauge     serve.diagnosis_backlog     diagnoses in flight right now
//   gauge     serve.ingest_p99_seconds    p99 over the watchdog window
//   histogram serve.ingest_seconds        per-tick batched ingest latency
//   histogram serve.diagnosis_queue_depth pending diagnoses at enqueue time
//   counter   serve.ticks_ingested / serve.samples_ingested
//   counter   serve.alarms_raised / serve.diagnoses_completed
//   counter   serve.shard_samples{shard=S}   accepted samples per shard
//   counter   serve.shard_overflow{shard=S}  window overwrites per shard
//   counter   serve.ring_overflow{shard=S}   backpressure drops per shard
// plus journal events (obs::EventJournal::Shared()): alarm, diagnosis,
// ring_overflow (first window overwrite per monitor per job),
// backpressure (first ring reject per shard per job era), alarm_storm,
// slow_tick.
class MonitorFleet {
 public:
  explicit MonitorFleet(const core::InvarNetX* pipeline,
                        FleetConfig config = {});
  ~MonitorFleet();

  MonitorFleet(const MonitorFleet&) = delete;
  MonitorFleet& operator=(const MonitorFleet&) = delete;

  // Arms (or re-arms, mid-job) the monitor for this context, creating it
  // on first use, and returns its dense handle - stamp it into TickSamples
  // to keep the ingest path free of string-keyed lookups. Fails if the
  // context has not been trained. Re-arming clears the monitor's window
  // and alarm latch; an in-flight diagnosis of the previous job keeps
  // running on its snapshot and is still delivered.
  Result<MonitorHandle> StartJob(const core::OperationContext& context);

  // Batched per-tick cluster ingestion: one sample per monitor, named by
  // the handle StartJob returned (a handle this fleet never assigned is a
  // NotFound error naming it), and a monitor may appear at most once per
  // tick. Detection fans out one consumer per shard; a shard whose ring is
  // at capacity rejects the overflow instead of blocking.
  Result<TickSummary> IngestTick(const std::vector<TickSample>& samples);

  // Blocks until every enqueued asynchronous diagnosis completed.
  void WaitForDiagnoses();

  // Drains completed diagnoses, sorted by (context, first alarm tick) so
  // replay output is deterministic. Call WaitForDiagnoses first when the
  // full set is wanted.
  std::vector<FleetDiagnosis> TakeDiagnoses();

  size_t alarms_active() const { return alarms_latched_; }
  size_t monitor_count() const { return slots_.size(); }
  size_t pending_diagnoses() const;
  int shard_count() const { return static_cast<int>(shards_.size()); }

  // The handle serving `context`, or kInvalidMonitor.
  MonitorHandle Resolve(const core::OperationContext& context) const;
  // Introspection of one monitor's live state (ingestion thread only).
  std::optional<MonitorView> View(MonitorHandle handle) const;
  std::optional<MonitorView> View(const core::OperationContext& context) const;
  const FleetConfig& config() const { return config_; }

  // Thread-safe point-in-time status for /statusz: reads the cache the
  // ingestion thread refreshes at every StartJob / IngestTick, so a scrape
  // never races the monitor state. Live counters (pending diagnoses) are
  // folded in at read time.
  FleetStatus Snapshot() const;

 private:
  // One ring entry: which monitor (shard-local index, so the consumer
  // never touches the cold slot array) and which batch row carries its
  // sample this tick.
  struct RingEntry {
    uint32_t local = 0;
    uint32_t index = 0;
  };

  // Alarm latch states. The kernel latches kAlarmNew; the serial
  // accounting pass of the same tick journals it, dispatches its diagnosis
  // and moves it to kAlarmAccounted, so each job's alarm is handled once.
  static constexpr uint8_t kAlarmNone = 0;
  static constexpr uint8_t kAlarmNew = 1;
  static constexpr uint8_t kAlarmAccounted = 2;

  // Structure-of-arrays hot detection state of one shard, indexed by the
  // shard-local monitor index. Everything the per-sample path reads or
  // writes lives here, packed contiguously; scanning a shard's alarms or
  // residuals walks flat arrays. A window retains min(window_total,
  // capacity) ticks; the oldest sits at absolute tick window_total minus
  // that.
  struct ShardHot {
    std::vector<ts::ArimaPredictor> predictor;  // fixed size, inline state
    std::vector<double> last_residual;
    std::vector<double> threshold;        // cached from the pinned model
    std::vector<int32_t> debounce;        // consecutive exceedances
    std::vector<uint8_t> alarm;           // kAlarm* latch
    std::vector<int32_t> first_alarm_tick;
    std::vector<int64_t> window_total;    // absolute ticks pushed
    std::vector<uint32_t> window_head;    // next slab write slot
    std::vector<uint64_t> epoch;          // pinned at StartJob
    // All windows of the shard, slot-major in blocks of kSlabBlock
    // monitors (see SlabRow in fleet.cc): one tick's rows for a block are
    // contiguous. Row = [cpi, metric 0..25].
    std::vector<double> window_slab;
  };

  struct Shard {
    explicit Shard(size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<RingEntry> ring;
    ShardHot hot;
    std::vector<MonitorHandle> members;  // local index -> handle
    // Bound once at fleet construction; the hot path pays relaxed atomics,
    // not registry map lookups.
    obs::Counter* samples_counter = nullptr;
    obs::Counter* window_overflow_counter = nullptr;
    obs::Counter* ring_overflow_counter = nullptr;
    uint64_t samples = 0;       // fleet-local tallies for /statusz
    uint64_t ring_rejects = 0;
    // Window overwrites by this tick's drain, read by the accounting pass.
    uint32_t tick_overflows = 0;
    // First backpressure reject per job era (any StartJob resets) is
    // journaled; later ones only count.
    bool backpressure_journaled = false;
  };

  // Cold per-monitor state, touched at StartJob / alarm / diagnosis time
  // only - never on the per-sample path.
  struct ColdSlot {
    core::OperationContext context;
    std::shared_ptr<const core::ContextModel> model;
  };

  // The per-sample path: core::DetectStep (the detection kernel every
  // detector shares) against the shard's SoA state, alarm latch, window
  // slab push, and the shard's per-tick overflow/event tallies.
  void ObserveOne(Shard& shard, uint32_t local, const TickSample& sample);
  // Pops `expected` entries off the shard's ring (spinning on empty - the
  // producer is still distributing) and observes each.
  void DrainShard(Shard& shard, uint32_t expected,
                  const std::vector<TickSample>& samples);
  // Copies a monitor's retained window, oldest first, into a NodeTrace.
  telemetry::NodeTrace MaterializeWindow(const Shard& shard, uint32_t local,
                                         const std::string& ip) const;
  MonitorView ViewLocked(MonitorHandle handle) const;
  MonitorStatus StatusRow(MonitorHandle handle) const;

  // Snapshots the monitor's window + pinned model and enqueues the cause
  // inference (inline when config_.threads == 1).
  void DispatchDiagnosis(MonitorHandle handle);
  void PublishGauges();
  // Refreshes the cached /statusz snapshot; ingestion thread only. O(1)
  // counters plus at most kStatusTopK formatted rows walked off the
  // interesting_ index.
  void RefreshStatusCache();
  // Feeds the alarm-storm detector and slow-tick watchdog with one tick's
  // outcome; journals trips and recoveries. Ingestion thread only.
  void RunWatchdogs(int new_alarms, double ingest_seconds);

  const core::InvarNetX* pipeline_;
  FleetConfig config_;
  int consecutive_required_ = 3;
  int effective_threads_ = 1;  // EffectiveThreadCount(config_.threads)

  // Monitor index: hashed context index for StartJob/Resolve, dense arrays
  // for the hot path.
  std::unordered_map<core::OperationContext, MonitorHandle,
                     core::OperationContextHash>
      index_;
  std::vector<ColdSlot> slots_;            // handle -> cold state
  std::vector<uint32_t> shard_of_;         // handle -> shard
  std::vector<uint32_t> local_of_;         // handle -> shard-local index
  std::vector<std::unique_ptr<Shard>> shards_;

  // Per-tick scratch, reused so steady-state ingest is allocation-free.
  uint64_t tick_stamp_ = 0;
  std::vector<uint64_t> seen_stamp_;       // handle -> last tick seen
  std::vector<MonitorHandle> handles_scratch_;
  std::vector<uint8_t> accepted_scratch_;
  std::vector<uint32_t> shard_count_scratch_;
  std::vector<uint32_t> shard_pushed_scratch_;

  // Monitors with an alarm latched or a window overflowed this job, in
  // handle order: the rows /statusz may list. Maintained at alarm/overflow
  // accounting and StartJob, so a refresh walks at most kStatusTopK
  // entries instead of the fleet.
  std::set<MonitorHandle> interesting_;

  // Registry handles bound once at construction, like the shard counters:
  // StartJob and IngestTick never look a metric up by name.
  obs::Gauge* alarms_active_gauge_ = nullptr;
  obs::Gauge* diagnosis_backlog_gauge_ = nullptr;
  obs::Gauge* ingest_p99_gauge_ = nullptr;
  obs::Counter* ticks_ingested_counter_ = nullptr;
  obs::Counter* samples_ingested_counter_ = nullptr;
  obs::Counter* alarms_raised_counter_ = nullptr;
  obs::Counter* diagnoses_completed_counter_ = nullptr;
  obs::Histogram* ingest_seconds_histogram_ = nullptr;
  obs::Histogram* queue_depth_histogram_ = nullptr;

  // Completed-diagnosis hand-off between pool workers and the ingestion
  // thread.
  mutable std::mutex results_mu_;
  std::condition_variable results_cv_;
  std::vector<FleetDiagnosis> results_;
  size_t pending_ = 0;

  // Lifetime tallies mirrored into FleetStatus (the shared registry's
  // counters are process-wide; these are this fleet's own). Maintained
  // incrementally - no O(monitors) scans on the ingest path.
  size_t alarms_latched_ = 0;
  uint64_t ticks_ingested_ = 0;
  uint64_t samples_ingested_ = 0;
  uint64_t samples_rejected_ = 0;
  uint64_t alarms_raised_ = 0;
  uint64_t window_overflows_ = 0;
  std::atomic<uint64_t> diagnoses_completed_{0};  // pool workers bump this

  // Alarm-storm detector + slow-tick watchdog state; ingestion thread only.
  // Both windows are fixed rings indexed by tick ordinal, so the detectors
  // never allocate.
  std::array<int, kStormWindowTicks> storm_window_{};  // new alarms per tick
  int storm_alarms_in_window_ = 0;
  bool storm_active_ = false;
  std::array<double, kWatchdogWindowTicks> tick_latencies_{};  // ingest s
  std::array<double, kWatchdogWindowTicks> latency_scratch_{};  // p99 pick
  bool slow_ticks_active_ = false;
  double ingest_p99_seconds_ = 0.0;

  // Cached status the HTTP plane reads; guarded because scrape threads call
  // Snapshot() while the ingestion thread refreshes it.
  mutable std::mutex status_mu_;
  FleetStatus status_cache_;
};

}  // namespace invarnetx::serve

#endif  // INVARNETX_SERVE_FLEET_H_
