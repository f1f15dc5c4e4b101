#include "core/association.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>

#include "arx/arx.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "core/assoc_cache.h"
#include "mic/mic.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace invarnetx::core {
namespace {

// Relative variance below which a series is treated as constant. Collector
// quantization and float round-off put O(eps^2) variance on a constant
// signal (~1e-30); a genuinely informative series sits many orders above
// this even at small amplitudes.
constexpr double kDegenerateRelativeVariance = 1e-18;

// Shared per-thread MIC scratch memory: each mining worker reuses one
// workspace across every pair it scores (pool workers are long-lived, see
// ThreadLocalInstance), so the kernel is allocation-free in steady state.
// The workspace never changes results - only where the scratch bytes live.
mic::MicWorkspace& WorkerMicWorkspace() {
  return ThreadLocalInstance<mic::MicWorkspace>();
}

// MIC needs at least 4 points to place a 2x2 grid. Shorter series (a trace
// cut short, a served window that alarms within its first ticks) carry no
// mineable association - "no association", not an error, matching how
// degenerate series and unfittable ARX pairs score.
constexpr size_t kMinScoreableTicks = 4;

class MicEngine : public AssociationEngine {
 public:
  std::string name() const override { return "mic"; }

  Result<double> ScoreHinted(const std::vector<double>& x,
                             const std::vector<double>& y, bool x_degenerate,
                             bool y_degenerate) const override {
    // Degenerate (constant) series carry no association information.
    if (x_degenerate || y_degenerate) return 0.0;
    if (x.size() < kMinScoreableTicks || y.size() < kMinScoreableTicks) {
      return 0.0;
    }
    return mic::MicScore(x, y, &WorkerMicWorkspace());
  }
};

// Blend of MIC and |Spearman| (their ensemble paper combines multiple
// association measures; rank correlation is the natural monotone partner
// for the grid-based MIC).
class EnsembleEngine : public AssociationEngine {
 public:
  std::string name() const override { return "ensemble"; }

  Result<double> ScoreHinted(const std::vector<double>& x,
                             const std::vector<double>& y, bool x_degenerate,
                             bool y_degenerate) const override {
    if (x_degenerate || y_degenerate) return 0.0;
    if (x.size() < kMinScoreableTicks || y.size() < kMinScoreableTicks) {
      return 0.0;
    }
    Result<double> mic_score =
        mic::MicScore(x, y, &WorkerMicWorkspace());
    if (!mic_score.ok()) return mic_score.status();
    Result<double> rank = SpearmanCorrelation(x, y);
    if (!rank.ok()) return rank.status();
    return 0.6 * mic_score.value() + 0.4 * std::fabs(rank.value());
  }
};

class ArxEngine : public AssociationEngine {
 public:
  std::string name() const override { return "arx"; }

  Result<double> ScoreHinted(const std::vector<double>& x,
                             const std::vector<double>& y, bool x_degenerate,
                             bool y_degenerate) const override {
    if (x.size() != y.size()) {
      return Status::InvalidArgument("ArxEngine: length mismatch");
    }
    if (x_degenerate || y_degenerate) return 0.0;
    Result<double> score = arx::ArxAssociationScore(x, y);
    // An unfittable pair is "no association", not an error (the paper
    // assigns 0 to pairs absent from a run).
    if (!score.ok()) return 0.0;
    return score.value();
  }
};

// Span tick count of one node trace: the CPI series length when present,
// otherwise the first non-empty metric series (a partially collected trace
// may leave leading series empty); 0 for a fully empty trace.
size_t TraceTicks(const telemetry::NodeTrace& node) {
  if (!node.cpi.empty()) return node.cpi.size();
  for (const std::vector<double>& series : node.metrics) {
    if (!series.empty()) return series.size();
  }
  return 0;
}

}  // namespace

bool IsDegenerateSeries(const std::vector<double>& v) {
  const double variance = Variance(v);
  if (variance <= 0.0) return true;
  const double mean = Mean(v);
  return variance <= kDegenerateRelativeVariance * std::max(1.0, mean * mean);
}

Result<double> AssociationEngine::Score(const std::vector<double>& x,
                                        const std::vector<double>& y) const {
  return ScoreHinted(x, y, IsDegenerateSeries(x), IsDegenerateSeries(y));
}

std::string AssociationEngineName(AssociationEngineType type) {
  switch (type) {
    case AssociationEngineType::kMic: return "mic";
    case AssociationEngineType::kArx: return "arx";
    case AssociationEngineType::kEnsemble: return "ensemble";
  }
  return "unknown";
}

std::unique_ptr<AssociationEngine> AssociationEngine::Make(
    AssociationEngineType type) {
  switch (type) {
    case AssociationEngineType::kMic:
      return std::make_unique<MicEngine>();
    case AssociationEngineType::kArx:
      return std::make_unique<ArxEngine>();
    case AssociationEngineType::kEnsemble:
      return std::make_unique<EnsembleEngine>();
  }
  return nullptr;
}

Result<AssociationMatrix> ComputeAssociationMatrix(
    const telemetry::NodeTrace& node, const AssociationEngine& engine,
    const AssociationOptions& options, const MatrixMiningRecord* prior,
    MatrixMiningRecord* record, IncrementalMatrixStats* stats) {
  AssociationMatrix matrix(telemetry::kNumMetricPairs, 0.0);
  const std::string engine_name = engine.name();
  AssociationScoreCache& cache = AssociationScoreCache::Shared();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  // Handles bound outside the fan-out: inside the per-pair lambda they cost
  // relaxed atomics only, keeping the instrumented matrix bit-identical and
  // contention-free.
  obs::Counter& pairs_scored = registry.GetCounter("assoc.pairs_scored");
  obs::Histogram& pair_seconds = registry.GetHistogram("assoc.pair_score");
  obs::Span span("assoc_matrix",
                 {{"engine", engine_name}, {"ticks", TraceTicks(node)}});
  registry.GetCounter("assoc.matrices").Increment();

  // Per-metric state, computed once per matrix instead of once per pair:
  // every metric participates in 25 pairs, so without hoisting the
  // degeneracy scan runs up to 25x per series and the cache key rehashes
  // each full series on every lookup. Digests double as the dirty-pair
  // test against the prior record.
  const bool want_digests =
      options.use_cache || prior != nullptr || record != nullptr;
  std::array<bool, telemetry::kNumMetrics> degenerate;
  std::array<bool, telemetry::kNumMetrics> clean;  // digest matches prior
  std::array<SeriesDigest, telemetry::kNumMetrics> digest;
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    const std::vector<double>& series = node.metrics[static_cast<size_t>(m)];
    degenerate[static_cast<size_t>(m)] = IsDegenerateSeries(series);
    if (want_digests) digest[static_cast<size_t>(m)] = HashSeries(series);
    clean[static_cast<size_t>(m)] =
        prior != nullptr &&
        digest[static_cast<size_t>(m)] == prior->digests[static_cast<size_t>(m)];
  }

  // Each worker writes only its own preallocated slot, so the result is
  // identical for any thread count; the pair index doubles as the task
  // index, so error propagation follows the serial visitation order.
  std::atomic<int> reused{0};
  Status mined = ParallelFor(
      static_cast<size_t>(telemetry::kNumMetricPairs), options.num_threads,
      [&](size_t pair) -> Status {
        int a = 0, b = 0;
        telemetry::PairFromIndex(static_cast<int>(pair), &a, &b);
        // Dirty-pair rule: both endpoint digests unchanged since the prior
        // record means this score cannot have moved - copy it.
        if (clean[static_cast<size_t>(a)] && clean[static_cast<size_t>(b)]) {
          matrix[pair] = prior->matrix[pair];
          reused.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        }
        const std::vector<double>& x = node.metrics[static_cast<size_t>(a)];
        const std::vector<double>& y = node.metrics[static_cast<size_t>(b)];
        PairScoreKey key;
        if (options.use_cache) {
          key = CombinePairKey(engine_name, digest[static_cast<size_t>(a)],
                               digest[static_cast<size_t>(b)]);
          if (std::optional<double> hit = cache.Lookup(key)) {
            matrix[pair] = *hit;
            return Status::Ok();
          }
        }
        const uint64_t start_us = obs::UptimeMicros();
        Result<double> score = engine.ScoreHinted(
            x, y, degenerate[static_cast<size_t>(a)],
            degenerate[static_cast<size_t>(b)]);
        // Failed pairs record nothing: assoc.pair_score and
        // assoc.pairs_scored count successfully scored pairs only.
        if (!score.ok()) return score.status();
        pair_seconds.Record(
            static_cast<double>(obs::UptimeMicros() - start_us) / 1e6);
        pairs_scored.Increment();
        matrix[pair] = score.value();
        if (options.use_cache) cache.Insert(key, score.value());
        return Status::Ok();
      });
  if (!mined.ok()) return mined;

  const int num_reused = reused.load(std::memory_order_relaxed);
  if (prior != nullptr) {
    registry.GetCounter("assoc.pairs_reused")
        .Increment(static_cast<uint64_t>(num_reused));
    registry.GetCounter("assoc.pairs_rescored")
        .Increment(static_cast<uint64_t>(telemetry::kNumMetricPairs -
                                         num_reused));
  }
  if (stats != nullptr) {
    stats->reused = num_reused;
    stats->rescored = telemetry::kNumMetricPairs - num_reused;
  }
  if (record != nullptr) {
    record->digests = digest;
    record->matrix = matrix;
  }

  // Byte-identity oracle: a prior must never change the result, only the
  // cost. Recomputes cold (no prior, no cache - the exact fallback path)
  // and compares raw bytes.
  if (prior != nullptr && options.verify_incremental) {
    AssociationOptions cold_options = options;
    cold_options.use_cache = false;
    cold_options.verify_incremental = false;
    Result<AssociationMatrix> cold = ComputeAssociationMatrix(
        node, engine, cold_options, nullptr, nullptr, nullptr);
    if (!cold.ok()) return cold.status();
    if (std::memcmp(matrix.data(), cold.value().data(),
                    matrix.size() * sizeof(double)) != 0) {
      return Status::Internal(
          "incremental association matrix differs from cold recompute");
    }
  }
  return matrix;
}

Result<AssociationMatrix> ComputeAssociationMatrix(
    const telemetry::NodeTrace& node, const AssociationEngine& engine,
    const AssociationOptions& options) {
  return ComputeAssociationMatrix(node, engine, options, nullptr, nullptr,
                                  nullptr);
}

Result<AssociationMatrix> ComputeAssociationMatrix(
    const telemetry::NodeTrace& node, const AssociationEngine& engine) {
  return ComputeAssociationMatrix(node, engine, AssociationOptions());
}

}  // namespace invarnetx::core
