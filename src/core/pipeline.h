#ifndef INVARNETX_CORE_PIPELINE_H_
#define INVARNETX_CORE_PIPELINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "causal/ranking.h"
#include "common/status.h"
#include "core/anomaly.h"
#include "core/association.h"
#include "core/context.h"
#include "core/invariants.h"
#include "core/perf_model.h"
#include "core/sigdb.h"
#include "telemetry/trace.h"

namespace invarnetx::core {

// Tunable parameters of the InvarNet-X pipeline, defaulting to the paper's
// choices (tau = epsilon = 0.2, beta = 1.2, beta-max rule, 3-consecutive
// debounce, MIC associations, operation context on).
struct InvarNetXConfig {
  double tau = 0.2;
  double epsilon = 0.2;
  double beta = 1.2;
  ThresholdRule threshold_rule = ThresholdRule::kBetaMax;
  int consecutive_required = 3;
  AssociationEngineType engine = AssociationEngineType::kMic;
  // When false, a single global model/invariant set/signature base is used
  // for everything - the "InvarNet-X (no operation context)" baseline.
  bool use_operation_context = true;
  SimilarityMetric similarity = SimilarityMetric::kJaccard;
  // Below this similarity the problem is reported as unknown (the operator
  // gets hints - the violated association pairs - instead of a cause).
  double min_similarity = 0.25;
  size_t top_k = 5;
  // Workers for invariant mining and the cluster scan (<= 0: one per
  // hardware thread; 1: serial). A runtime knob, not persisted with the
  // store; results are bit-identical for every value.
  int num_threads = 0;
  // Memoize per-pair association scores in the shared score cache, so
  // repeated diagnoses of the same traces skip the MIC dynamic program.
  // Off by default: served windows never repeat, so every diagnosis would
  // insert 325 entries that never hit (retrains reuse scores through the
  // MiningSnapshot instead).
  bool use_association_cache = false;
  // Run the incremental-mining byte-identity oracle on every retrain that
  // uses a prior (see AssociationOptions::verify_incremental). CI/debug
  // only - it costs the cold recompute the incremental path exists to skip.
  bool verify_incremental = false;
};

// Provenance of the invariant mining that produced a ContextModel: the
// per-example whole-run association matrices together with the per-metric
// digests they were scored over. Carried inside the published snapshot so
// the next retrain of the same context can hand each example its
// predecessor as an incremental prior (the dirty-pair rule: only pairs
// whose series content changed are rescored). Priors are matched
// positionally, which is only attempted when engine and example count
// agree; content safety comes from the digests themselves, so a stale or
// misaligned prior can reduce reuse but never change a score.
struct MiningSnapshot {
  std::string engine;  // AssociationEngine::name() records used
  std::vector<MatrixMiningRecord> records;  // one per example, in order
};

// Everything InvarNet-X learned about one operation context. Context models
// are published as immutable epochized snapshots: every TrainContext* /
// AddSignature / LoadFromDirectory builds a fresh ContextModel and swaps it
// in under the pipeline's lock, bumping `epoch`. Consumers that hold a
// snapshot (GetContext returns a shared_ptr) keep diagnosing against the
// epoch they started with even while the context is retrained - the online
// monitors' retrain-safety guarantee.
struct ContextModel {
  PerformanceModel perf;
  InvariantSet invariants;
  SignatureDatabase sigdb;
  // Mining provenance for incremental retraining. Empty on models restored
  // from disk (the XML stores persist invariants, not raw matrices), in
  // which case the first retrain runs cold and repopulates it.
  MiningSnapshot mining;
  // Publication sequence number of this snapshot within its context;
  // starts at 1 for the first trained/loaded model.
  uint64_t epoch = 0;
};

// What one diagnosis cost the analysis engine itself - the self-measured
// counterpart of the paper's Table 1 overhead numbers. Cache tallies are
// deltas of the shared score cache over this call, so they are approximate
// when diagnoses run concurrently.
struct DiagnosisCost {
  double detect_seconds = 0.0;  // CPI anomaly detection (Perf-D)
  double matrix_seconds = 0.0;  // association matrix of the abnormal run
  double infer_seconds = 0.0;   // violation tuple + signature query
  double causal_seconds = 0.0;  // causal fallback ranking (0 when skipped)
  double total_seconds = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // One-line `key=value` rendering for reports and logs.
  std::string Summary() const;
};

// The output of one diagnosis: detection outcome, the violation evidence,
// and the ranked causes (most probable first).
struct DiagnosisReport {
  bool anomaly_detected = false;
  int first_alarm_tick = -1;
  std::vector<uint8_t> violations;  // over the context's invariants
  int num_violations = 0;
  // |I - A| per invariant, same indexing as `violations` - the evidence
  // the hints are sorted by and the causal fallback weights edges with.
  std::vector<double> deviations;
  std::vector<RankedCause> causes;
  bool known_problem = false;  // top cause clears min_similarity
  // Causal-graph fallback ranking over the broken-edge subgraph of the
  // invariant network: filled when the signature engine found no cause
  // above min_similarity (unseen fault), most suspicious metric first.
  std::vector<causal::RankedSuspect> suspects;
  bool used_causal_fallback = false;
  // Human-readable violated pairs ("metric_a ~ metric_b"), capped at 10 -
  // the paper's hints for uninvestigated problems.
  std::vector<std::string> hints;
  // Self-observability summary appended by Diagnose / InferCause.
  DiagnosisCost cost;
};

// The InvarNet-X pipeline facade (Fig. 3): offline training (performance
// model building, invariant construction, signature base building) and
// online diagnosis (performance anomaly detection, cause inference).
class InvarNetX {
 public:
  explicit InvarNetX(InvarNetXConfig config = InvarNetXConfig());

  // ---- offline part -----------------------------------------------------

  // Trains the ARIMA performance model and the MIC likely invariants for a
  // context from >= 2 fault-free runs. `node_index` selects whose series in
  // the traces belong to this context.
  Status TrainContext(const OperationContext& context,
                      const std::vector<telemetry::RunTrace>& normal_runs,
                      size_t node_index);

  // One (run, node) pair used as a training example.
  struct TrainExample {
    const telemetry::RunTrace* run = nullptr;
    size_t node_index = 0;
  };

  // Generalized training entry point: pools the given examples into one
  // context model. Used directly by the no-operation-context baseline,
  // which pools every node's series under a single global key.
  Status TrainContextFromExamples(const OperationContext& context,
                                  const std::vector<TrainExample>& examples);

  // Adds the violation signature of an investigated problem from a run
  // recorded while the problem was active.
  Status AddSignature(const OperationContext& context,
                      const std::string& problem,
                      const telemetry::RunTrace& abnormal_run,
                      size_t node_index);

  // ---- online part ------------------------------------------------------

  // Full diagnosis of a run: anomaly detection on CPI first; cause
  // inference only when the alarm fires.
  Result<DiagnosisReport> Diagnose(const OperationContext& context,
                                   const telemetry::RunTrace& run,
                                   size_t node_index) const;

  // Cause inference alone (used when detection is handled elsewhere).
  Result<DiagnosisReport> InferCause(const OperationContext& context,
                                     const telemetry::RunTrace& run,
                                     size_t node_index) const;

  // Cause inference against an explicit model snapshot. This is the
  // retrain-safe entry point the online monitors use: the caller pins the
  // epoch it selected at job start and keeps diagnosing against it even if
  // the context has been retrained since.
  Result<DiagnosisReport> InferCauseForModel(
      const ContextModel& model, const telemetry::NodeTrace& node) const;

  // ---- introspection / persistence ---------------------------------------

  bool HasContext(const OperationContext& context) const;
  // Returns the current epoch snapshot of the context's model. The snapshot
  // is immutable and stays valid (and internally consistent) for as long as
  // the caller holds it, regardless of concurrent retraining.
  Result<std::shared_ptr<const ContextModel>> GetContext(
      const OperationContext& context) const;

  // Writes models.xml / invariants.xml / signatures.xml into `directory`
  // (which must exist), in the paper's tuple formats.
  Status SaveToDirectory(const std::string& directory) const;
  // Restores the offline state written by SaveToDirectory. Performance
  // models are restored exactly (coefficients + calibrated thresholds).
  Status LoadFromDirectory(const std::string& directory);

  const InvarNetXConfig& config() const { return config_; }

 private:
  // Applies the no-operation-context collapse when configured.
  OperationContext Key(const OperationContext& context) const;

  // The mining execution knobs (thread count, cache) from this config.
  AssociationOptions AssocOptions() const;

  // Association matrix of the whole abnormal run (data before, during and
  // after the problem).
  Result<AssociationMatrix> AbnormalMatrix(
      const telemetry::NodeTrace& node) const;

  // Current snapshot for an already-collapsed key; nullptr when untrained.
  std::shared_ptr<const ContextModel> Snapshot(
      const OperationContext& key) const;
  // Swaps `fresh` in as the key's new snapshot, assigning it the next epoch.
  void Publish(const OperationContext& key,
               std::shared_ptr<ContextModel> fresh);

  InvarNetXConfig config_;
  // Guards contexts_ (the map itself and slot pointer swaps); the pointed-to
  // ContextModels are immutable after publication and need no lock.
  mutable std::mutex contexts_mu_;
  std::map<OperationContext, std::shared_ptr<const ContextModel>> contexts_;
};

}  // namespace invarnetx::core

#endif  // INVARNETX_CORE_PIPELINE_H_
