#ifndef INVARNETX_CORE_ASSOCIATION_H_
#define INVARNETX_CORE_ASSOCIATION_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/assoc_cache.h"
#include "telemetry/trace.h"

namespace invarnetx::core {

// Flat upper-triangle matrix of pairwise association scores between the 26
// metrics; index with telemetry::PairIndex(a, b). Scores are in [0, 1];
// pairs whose association is undefined (constant series, fit failure) hold
// 0, as the paper specifies.
using AssociationMatrix = std::vector<double>;

// Which association discovery engine to use: MIC is the paper's choice;
// ARX is the Jiang et al. baseline it compares against; the ensemble
// follows the authors' earlier work (their reference [11], "An ensemble
// MIC-based approach...", IEEE BigData 2013) by blending MIC with rank
// correlation so that monotone couplings contribute even when the MIC
// grid estimate is noisy on short windows.
enum class AssociationEngineType { kMic, kArx, kEnsemble };

std::string AssociationEngineName(AssociationEngineType type);

// Strategy interface for scoring the association of two metric series.
class AssociationEngine {
 public:
  virtual ~AssociationEngine() = default;

  virtual std::string name() const = 0;
  // Score in [0, 1]. Implementations return errors only for structurally
  // invalid input (length mismatch / too short); statistical degeneracies
  // score 0. Engines hold no per-call mutable state visible across threads:
  // Score must be safe to call concurrently from parallel mining workers
  // (scratch memory, if any, is per-thread).
  //
  // Computes the degeneracy of both inputs, then defers to ScoreHinted.
  Result<double> Score(const std::vector<double>& x,
                       const std::vector<double>& y) const;

  // Score with caller-precomputed degeneracy flags. `x_degenerate` /
  // `y_degenerate` MUST equal IsDegenerateSeries(x) / IsDegenerateSeries(y);
  // ComputeAssociationMatrix computes them once per metric instead of once
  // per pair (each metric participates in 25 pairs), then fans out through
  // this entry point. Results are identical to Score().
  virtual Result<double> ScoreHinted(const std::vector<double>& x,
                                     const std::vector<double>& y,
                                     bool x_degenerate,
                                     bool y_degenerate) const = 0;

  static std::unique_ptr<AssociationEngine> Make(AssociationEngineType type);
};

// True when a series carries no association information: exactly constant,
// or numerically near-constant (variance within float noise of zero
// relative to the series scale). Such series must short-circuit to score 0
// instead of paying the MIC grid search for an unstable answer.
bool IsDegenerateSeries(const std::vector<double>& v);

// Execution options for ComputeAssociationMatrix: how wide to fan the
// C(26,2) = 325 pair scores out, and whether to memoize per-pair scores in
// the shared AssociationScoreCache. Both knobs only change cost, never
// values: parallel output is bit-identical to the serial path, and a cache
// hit returns the exact double a cold compute produced.
struct AssociationOptions {
  // Workers for the pair fan-out. <= 0: one per hardware thread;
  // 1: plain serial loop in the caller.
  int num_threads = 0;
  // Off by default: real traffic never repeats a window, so the cache
  // rarely hits and only grows (every matrix inserts its 325 pairs).
  bool use_cache = false;
  // Oracle for the incremental path: when a prior record is supplied, also
  // run the cold full recompute and fail with Internal if the two matrices
  // are not byte-identical. Costs the full compute - CI/debug only. The
  // INVARNETX_VERIFY_INCREMENTAL=1 environment variable forces this on
  // process-wide.
  bool verify_incremental = false;
};

// One matrix computation's provenance: the per-metric content digests of
// the series it was scored over, plus the scores themselves. A record from
// a previous computation is the "prior" of an incremental recompute: any
// pair whose two endpoint digests are unchanged must score identically
// (digest equality implies numerically identical inputs and the engines
// are deterministic), so its stored score is reused verbatim - the
// dirty-pair rule of incremental invariant maintenance.
struct MatrixMiningRecord {
  std::array<SeriesDigest, telemetry::kNumMetrics> digests{};
  AssociationMatrix matrix;
};

// What an incremental matrix computation did: `rescored` pairs had at least
// one dirty endpoint (or no usable prior) and went through the engine (or
// the shared score cache); `reused` pairs were copied from the prior
// record. rescored + reused == kNumMetricPairs on success.
struct IncrementalMatrixStats {
  int rescored = 0;
  int reused = 0;
};

// Computes the full pairwise association matrix of one node's metrics.
// Scores are written into a preallocated matrix slot per pair (no
// reduction-order dependence); on engine failure the Status of the lowest
// pair index is returned, matching the serial loop's first error.
Result<AssociationMatrix> ComputeAssociationMatrix(
    const telemetry::NodeTrace& node, const AssociationEngine& engine,
    const AssociationOptions& options);

// Default options: full hardware fan-out, cache enabled.
Result<AssociationMatrix> ComputeAssociationMatrix(
    const telemetry::NodeTrace& node, const AssociationEngine& engine);

// Incremental form. `prior` (nullable) is the record of a previous
// computation with the same engine and metric layout: pairs whose endpoint
// digests match the prior reuse its scores and skip the engine entirely.
// `record` (nullable) receives this computation's digests and matrix for
// use as the next prior. `stats` (nullable) receives the rescored/reused
// split. The result is byte-identical to a cold full recompute for every
// prior (enforced by tests, and at runtime when options.verify_incremental
// or INVARNETX_VERIFY_INCREMENTAL=1 is set); a stale or mismatched prior
// only reduces the reuse rate, never correctness.
Result<AssociationMatrix> ComputeAssociationMatrix(
    const telemetry::NodeTrace& node, const AssociationEngine& engine,
    const AssociationOptions& options, const MatrixMiningRecord* prior,
    MatrixMiningRecord* record, IncrementalMatrixStats* stats);

}  // namespace invarnetx::core

#endif  // INVARNETX_CORE_ASSOCIATION_H_
