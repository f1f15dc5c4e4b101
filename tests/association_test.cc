#include "core/association.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/assoc_cache.h"
#include "mic/mic.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace invarnetx::core {
namespace {

telemetry::NodeTrace RandomNode(uint64_t seed, int ticks = 64) {
  Rng rng(seed);
  telemetry::NodeTrace node;
  node.ip = "10.0.0.7";
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    std::vector<double>& series = node.metrics[m];
    for (int t = 0; t < ticks; ++t) {
      series.push_back(50.0 + 10.0 * rng.Gaussian());
    }
  }
  return node;
}

bool SameBytes(const AssociationMatrix& a, const AssociationMatrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ------------------------------------------------- parallel determinism --

TEST(AssociationParallelTest, MatrixBitIdenticalAcrossThreadCounts) {
  const telemetry::NodeTrace node = RandomNode(42);
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);
  AssociationOptions serial{.num_threads = 1, .use_cache = false};
  Result<AssociationMatrix> reference =
      ComputeAssociationMatrix(node, *engine, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int threads : {2, 8}) {
    AssociationOptions options{.num_threads = threads, .use_cache = false};
    Result<AssociationMatrix> parallel =
        ComputeAssociationMatrix(node, *engine, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(SameBytes(reference.value(), parallel.value()))
        << "matrix differs from serial at " << threads << " threads";
  }
}

TEST(AssociationParallelTest, ErrorsMatchSerialAcrossThreadCounts) {
  // Metric 0 is shorter than the rest, so every pair touching it fails
  // inside worker context; all thread counts must surface the same error
  // (pair index 0 = metrics (0, 1) is the lowest failing task).
  telemetry::NodeTrace node = RandomNode(43);
  node.metrics[0].pop_back();
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);
  std::string serial_message;
  for (int threads : {1, 2, 8}) {
    AssociationOptions options{.num_threads = threads, .use_cache = false};
    Result<AssociationMatrix> result =
        ComputeAssociationMatrix(node, *engine, options);
    ASSERT_FALSE(result.ok()) << threads << " threads";
    if (serial_message.empty()) {
      serial_message = result.status().ToString();
    } else {
      EXPECT_EQ(result.status().ToString(), serial_message)
          << threads << " threads";
    }
  }
}

// --------------------------------------------------------- score cache --

TEST(AssociationCacheTest, WarmRunIsBitIdenticalAndHits) {
  AssociationScoreCache& cache = AssociationScoreCache::Shared();
  cache.Clear();
  const telemetry::NodeTrace node = RandomNode(44);
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);

  AssociationOptions cached{.num_threads = 1, .use_cache = true};
  const uint64_t misses_before = cache.misses();
  Result<AssociationMatrix> cold = ComputeAssociationMatrix(node, *engine,
                                                            cached);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cache.misses() - misses_before,
            static_cast<uint64_t>(telemetry::kNumMetricPairs));

  const uint64_t hits_before = cache.hits();
  Result<AssociationMatrix> warm = ComputeAssociationMatrix(node, *engine,
                                                            cached);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.hits() - hits_before,
            static_cast<uint64_t>(telemetry::kNumMetricPairs));
  EXPECT_TRUE(SameBytes(cold.value(), warm.value()));

  // And the cached result matches a cache-off compute exactly.
  AssociationOptions uncached{.num_threads = 1, .use_cache = false};
  Result<AssociationMatrix> direct =
      ComputeAssociationMatrix(node, *engine, uncached);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameBytes(direct.value(), warm.value()));
}

TEST(AssociationCacheTest, HashSeparatesInputs) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {4.0, 3.0, 2.0, 1.0};
  const PairScoreKey base = HashSeriesPair("mic", x, y);
  EXPECT_EQ(HashSeriesPair("mic", x, y), base);  // deterministic
  EXPECT_FALSE(HashSeriesPair("ensemble", x, y) == base);  // engine keyed
  EXPECT_FALSE(HashSeriesPair("mic", y, x) == base);       // order matters
  std::vector<double> x2 = x;
  x2[3] = 4.0000001;
  EXPECT_FALSE(HashSeriesPair("mic", x2, y) == base);  // content keyed
}

TEST(AssociationCacheTest, InsertLookupClear) {
  AssociationScoreCache cache;
  const PairScoreKey key = HashSeriesPair("mic", {1, 2, 3, 4}, {2, 4, 6, 8});
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, 0.625);
  ASSERT_TRUE(cache.Lookup(key).has_value());
  EXPECT_EQ(*cache.Lookup(key), 0.625);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(key).has_value());
}

TEST(AssociationCacheTest, SeriesDigestKeysAreOrderAndEngineSensitive) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {4.0, 3.0, 2.0, 1.0};
  const SeriesDigest dx = HashSeries(x);
  const SeriesDigest dy = HashSeries(y);
  EXPECT_TRUE(HashSeries(x) == dx);   // deterministic
  EXPECT_FALSE(dx == dy);             // content keyed
  std::vector<double> x2 = x;
  x2[3] = 4.0000001;
  EXPECT_FALSE(HashSeries(x2) == dx);  // one-ulp-scale change separates

  const PairScoreKey base = CombinePairKey("mic", dx, dy);
  EXPECT_EQ(CombinePairKey("mic", dx, dy), base);          // deterministic
  EXPECT_FALSE(CombinePairKey("mic", dy, dx) == base);     // order matters
  EXPECT_FALSE(CombinePairKey("ensemble", dx, dy) == base);  // engine keyed
  EXPECT_FALSE(CombinePairKey("mic", HashSeries(x2), dy) == base);
}

TEST(AssociationCacheTest, NegativeZeroDigestsAsPositiveZero) {
  // Regression: digests used to hash raw double bytes, so -0.0 and 0.0 -
  // numerically equal, and scored identically by every engine - produced
  // different digests. That missed the cache and, worse, read as "dirty"
  // to the incremental retrain path.
  const std::vector<double> pos = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> neg = pos;
  neg[0] = -0.0;
  EXPECT_TRUE(HashSeries(pos) == HashSeries(neg));
  EXPECT_EQ(HashSeriesPair("mic", pos, pos), HashSeriesPair("mic", neg, neg));
  // A genuinely different value still separates.
  std::vector<double> other = pos;
  other[0] = 1e-300;
  EXPECT_FALSE(HashSeries(other) == HashSeries(pos));
}

TEST(AssociationCacheTest, FullShardRetainsRecentlyTouchedKeys) {
  // Bounded eviction: a full shard drops its least-recently-touched half,
  // not the whole shard (the old wholesale flush collapsed the hit rate to
  // ~0 exactly when the working set reached capacity). Keys are crafted to
  // land in one shard (ShardFor uses key.lo mod the shard count).
  AssociationScoreCache cache(8);
  std::vector<PairScoreKey> keys;
  for (uint64_t i = 0; i < 8; ++i) {
    keys.push_back(PairScoreKey{16 * i, 1000 + i});
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    cache.Insert(keys[i], static_cast<double>(i));
  }
  ASSERT_EQ(cache.size(), 8u);
  // Touch the second half: these are now the shard's hot keys.
  for (size_t i = 4; i < 8; ++i) {
    ASSERT_TRUE(cache.Lookup(keys[i]).has_value());
  }
  // Overflow the shard: the untouched first half is evicted, the hot half
  // and the new key are retained.
  const PairScoreKey fresh{16 * 8, 1008};
  cache.Insert(fresh, 8.0);
  EXPECT_EQ(cache.flushes(), 1u);
  EXPECT_EQ(cache.evicted(), 4u);
  EXPECT_EQ(cache.size(), 5u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(cache.Lookup(keys[i]).has_value()) << "cold key " << i;
  }
  for (size_t i = 4; i < 8; ++i) {
    ASSERT_TRUE(cache.Lookup(keys[i]).has_value()) << "hot key " << i;
    EXPECT_EQ(*cache.Lookup(keys[i]), static_cast<double>(i));
  }
  ASSERT_TRUE(cache.Lookup(fresh).has_value());
  EXPECT_EQ(*cache.Lookup(fresh), 8.0);
}

// ------------------------------------------------- incremental mining --

TEST(AssociationIncrementalTest, UnchangedPriorReusesEveryPair) {
  const telemetry::NodeTrace node = RandomNode(71);
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);
  AssociationOptions options{.num_threads = 1, .use_cache = false};

  MatrixMiningRecord record;
  Result<AssociationMatrix> cold = ComputeAssociationMatrix(
      node, *engine, options, nullptr, &record, nullptr);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(SameBytes(cold.value(), record.matrix));

  IncrementalMatrixStats stats;
  Result<AssociationMatrix> warm = ComputeAssociationMatrix(
      node, *engine, options, &record, nullptr, &stats);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(stats.reused, telemetry::kNumMetricPairs);
  EXPECT_EQ(stats.rescored, 0);
  EXPECT_TRUE(SameBytes(cold.value(), warm.value()));
}

TEST(AssociationIncrementalTest, OneDirtyMetricRescoresExactly25Pairs) {
  const telemetry::NodeTrace base = RandomNode(72);
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);
  AssociationOptions serial{.num_threads = 1, .use_cache = false};

  MatrixMiningRecord record;
  ASSERT_TRUE(ComputeAssociationMatrix(base, *engine, serial, nullptr,
                                       &record, nullptr)
                  .ok());

  telemetry::NodeTrace perturbed = base;
  for (double& v : perturbed.metrics[11]) v += 0.5;
  Result<AssociationMatrix> cold =
      ComputeAssociationMatrix(perturbed, *engine, serial);
  ASSERT_TRUE(cold.ok());

  // The incremental result must be byte-identical to the cold recompute at
  // every thread count, rescoring only the 25 pairs involving the dirty
  // metric.
  for (int threads : {1, 2, 8}) {
    AssociationOptions options{.num_threads = threads, .use_cache = false};
    IncrementalMatrixStats stats;
    MatrixMiningRecord next;
    Result<AssociationMatrix> incremental = ComputeAssociationMatrix(
        perturbed, *engine, options, &record, &next, &stats);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(stats.rescored, telemetry::kNumMetrics - 1)
        << threads << " threads";
    EXPECT_EQ(stats.reused,
              telemetry::kNumMetricPairs - (telemetry::kNumMetrics - 1));
    EXPECT_TRUE(SameBytes(cold.value(), incremental.value()))
        << threads << " threads";
    // The refreshed record is usable as the next prior.
    EXPECT_TRUE(SameBytes(incremental.value(), next.matrix));
  }
}

TEST(AssociationIncrementalTest, OracleDetectsCorruptPrior) {
  const telemetry::NodeTrace node = RandomNode(73);
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);
  AssociationOptions options{.num_threads = 1, .use_cache = false};
  MatrixMiningRecord record;
  ASSERT_TRUE(ComputeAssociationMatrix(node, *engine, options, nullptr,
                                       &record, nullptr)
                  .ok());

  // A clean pass under the oracle succeeds...
  options.verify_incremental = true;
  EXPECT_TRUE(
      ComputeAssociationMatrix(node, *engine, options, &record, nullptr,
                               nullptr)
          .ok());

  // ...and a corrupted prior score (reused verbatim because its digests
  // still match) is caught as a byte mismatch against the cold recompute.
  record.matrix[0] += 1.0;
  Result<AssociationMatrix> corrupt = ComputeAssociationMatrix(
      node, *engine, options, &record, nullptr, nullptr);
  EXPECT_FALSE(corrupt.ok());
}

// ------------------------------------------ workspace kernel exactness --

// The tentpole guarantee: the workspace kernel, hinted degeneracy
// short-circuit, and digest-derived cache keys must leave every
// association matrix byte-identical to the pre-workspace path - modeled
// here by mic::MicReference plus the per-pair degeneracy rule - across
// random seeds, thread counts, and cache state.
TEST(AssociationExactnessTest, MatrixMatchesReferenceKernel) {
  std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(AssociationEngineType::kMic);
  for (uint64_t seed : {97u, 403u}) {
    telemetry::NodeTrace node = RandomNode(seed);
    // Stress degenerate and heavily tied metrics too.
    node.metrics[3].assign(node.metrics[3].size(), 7.25);
    for (double& v : node.metrics[5]) v = std::floor(v / 5.0) * 5.0;

    AssociationMatrix reference(telemetry::kNumMetricPairs, 0.0);
    for (int pair = 0; pair < telemetry::kNumMetricPairs; ++pair) {
      int a = 0, b = 0;
      telemetry::PairFromIndex(pair, &a, &b);
      const std::vector<double>& x = node.metrics[static_cast<size_t>(a)];
      const std::vector<double>& y = node.metrics[static_cast<size_t>(b)];
      if (IsDegenerateSeries(x) || IsDegenerateSeries(y)) continue;
      reference[static_cast<size_t>(pair)] =
          mic::MicReference(x, y).value().mic;
    }

    AssociationScoreCache::Shared().Clear();
    for (int threads : {1, 2, 8}) {
      for (bool use_cache : {false, true}) {
        AssociationOptions options{.num_threads = threads,
                                   .use_cache = use_cache};
        Result<AssociationMatrix> matrix =
            ComputeAssociationMatrix(node, *engine, options);
        ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
        EXPECT_TRUE(SameBytes(reference, matrix.value()))
            << "seed " << seed << ", " << threads << " threads, cache "
            << (use_cache ? "on" : "off");
      }
    }
    // Warm-cache rerun (every pair hits) must still be byte-identical.
    AssociationOptions warm{.num_threads = 4, .use_cache = true};
    Result<AssociationMatrix> warm_matrix =
        ComputeAssociationMatrix(node, *engine, warm);
    ASSERT_TRUE(warm_matrix.ok());
    EXPECT_TRUE(SameBytes(reference, warm_matrix.value())) << "warm cache";
  }
}

// ------------------------------------------------- degenerate shortcut --

TEST(DegenerateSeriesTest, ClassifiesSeries) {
  EXPECT_TRUE(IsDegenerateSeries({}));
  EXPECT_TRUE(IsDegenerateSeries({3.0}));
  EXPECT_TRUE(IsDegenerateSeries(std::vector<double>(64, 7.5)));
  // Constant plus float-noise jitter: variance ~1e-30 relative to scale.
  std::vector<double> jitter(64, 5.0);
  for (size_t i = 0; i < jitter.size(); ++i) {
    jitter[i] += (i % 2 == 0 ? 1.0 : -1.0) * 1e-15;
  }
  EXPECT_TRUE(IsDegenerateSeries(jitter));
  // Small but genuine variation is not degenerate.
  std::vector<double> varied;
  for (int i = 0; i < 64; ++i) varied.push_back(5.0 + 0.001 * i);
  EXPECT_FALSE(IsDegenerateSeries(varied));
}

TEST(DegenerateSeriesTest, EnginesScoreDegeneratePairsZero) {
  std::vector<double> jitter(64, 5.0);
  for (size_t i = 0; i < jitter.size(); ++i) {
    jitter[i] += (i % 2 == 0 ? 1.0 : -1.0) * 1e-15;
  }
  std::vector<double> varied;
  for (int i = 0; i < 64; ++i) varied.push_back(0.5 * i);

  for (AssociationEngineType type :
       {AssociationEngineType::kMic, AssociationEngineType::kEnsemble,
        AssociationEngineType::kArx}) {
    std::unique_ptr<AssociationEngine> engine = AssociationEngine::Make(type);
    Result<double> score = engine->Score(jitter, varied);
    ASSERT_TRUE(score.ok()) << engine->name();
    EXPECT_EQ(score.value(), 0.0) << engine->name();
    score = engine->Score(varied, jitter);
    ASSERT_TRUE(score.ok()) << engine->name();
    EXPECT_EQ(score.value(), 0.0) << engine->name();
  }
}

// MIC needs 4 points for its smallest grid: a shorter pair carries no
// association and scores 0.0, not an error, however strongly it co-varies.
// A whole 3-tick run mines to an all-zero matrix.
TEST(DegenerateSeriesTest, EnginesScoreSubFourTickPairsZero) {
  const std::vector<double> x = {1.0, 3.0, 2.0};
  const std::vector<double> y = {2.0, 6.0, 4.0};
  const telemetry::NodeTrace node = RandomNode(11, /*ticks=*/3);
  for (AssociationEngineType type :
       {AssociationEngineType::kMic, AssociationEngineType::kEnsemble}) {
    std::unique_ptr<AssociationEngine> engine = AssociationEngine::Make(type);
    Result<double> score = engine->Score(x, y);
    ASSERT_TRUE(score.ok()) << engine->name();
    EXPECT_EQ(score.value(), 0.0) << engine->name();
    Result<AssociationMatrix> matrix = ComputeAssociationMatrix(node, *engine);
    ASSERT_TRUE(matrix.ok()) << engine->name();
    for (double value : matrix.value()) {
      EXPECT_EQ(value, 0.0) << engine->name();
    }
  }
}

}  // namespace
}  // namespace invarnetx::core
