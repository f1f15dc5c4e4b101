#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/random.h"
#include "mic/mic.h"
#include "mic/simd.h"

// Counting operator new: a warm MicWorkspace must make the kernel
// allocation-free in steady state.
#include "alloc_counter.h"

namespace invarnetx::mic {
namespace {

using testing_alloc::HeapAllocations;

std::vector<double> Linspace(int n) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(static_cast<double>(i) / n);
  return out;
}

// ---------------------------------------------------------- public Mic() --

TEST(MicTest, RejectsBadInput) {
  EXPECT_FALSE(Mic({1, 2, 3}, {1, 2}).ok());
  EXPECT_FALSE(Mic({1, 2, 3}, {1, 2, 3}).ok());  // < 4 points
  MicOptions bad_alpha;
  bad_alpha.alpha = 0.0;
  EXPECT_FALSE(Mic({1, 2, 3, 4}, {1, 2, 3, 4}, bad_alpha).ok());
  MicOptions bad_clump;
  bad_clump.clump_factor = 0;
  EXPECT_FALSE(Mic({1, 2, 3, 4}, {1, 2, 3, 4}, bad_clump).ok());
}

TEST(MicTest, PerfectLinearRelationshipScoresOne) {
  std::vector<double> x = Linspace(200);
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 * v + 1.0);
  Result<MicResult> r = Mic(x, y);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().mic, 0.95);
}

TEST(MicTest, PerfectNonlinearRelationshipsScoreHigh) {
  std::vector<double> x = Linspace(200);
  std::vector<double> parabola, sine, expy;
  for (double v : x) {
    parabola.push_back((v - 0.5) * (v - 0.5));  // non-monotone
    sine.push_back(std::sin(8.0 * v));
    expy.push_back(std::exp(3.0 * v));
  }
  EXPECT_GT(MicScore(x, parabola).value(), 0.8);
  EXPECT_GT(MicScore(x, sine).value(), 0.7);
  EXPECT_GT(MicScore(x, expy).value(), 0.95);
}

TEST(MicTest, IndependentNoiseScoresLow) {
  Rng rng(41);
  std::vector<double> x, y;
  for (int i = 0; i < 400; ++i) {
    x.push_back(rng.Gaussian(0, 1));
    y.push_back(rng.Gaussian(0, 1));
  }
  Result<double> score = MicScore(x, y);
  ASSERT_TRUE(score.ok());
  EXPECT_LT(score.value(), 0.35);
}

TEST(MicTest, SymmetricInArguments) {
  Rng rng(42);
  std::vector<double> x, y;
  for (int i = 0; i < 150; ++i) {
    const double v = rng.Uniform();
    x.push_back(v);
    y.push_back(v * v + rng.Gaussian(0, 0.05));
  }
  const double xy = MicScore(x, y).value();
  const double yx = MicScore(y, x).value();
  EXPECT_DOUBLE_EQ(xy, yx);
}

TEST(MicTest, DeterministicAcrossCalls) {
  Rng rng(43);
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(rng.Uniform());
    y.push_back(rng.Uniform());
  }
  EXPECT_DOUBLE_EQ(MicScore(x, y).value(), MicScore(x, y).value());
}

TEST(MicTest, ScoreWithinUnitInterval) {
  Rng rng(44);
  for (int round = 0; round < 10; ++round) {
    std::vector<double> x, y;
    for (int i = 0; i < 60; ++i) {
      x.push_back(rng.Gaussian(0, 1));
      y.push_back(0.5 * x.back() + rng.Gaussian(0, 0.5));
    }
    const double s = MicScore(x, y).value();
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(MicTest, NoiseDegradesScoreMonotonically) {
  Rng rng(45);
  std::vector<double> x = Linspace(300);
  double prev = 1.1;
  for (double noise : {0.0, 0.3, 1.0, 3.0}) {
    std::vector<double> y;
    for (double v : x) y.push_back(v + rng.Gaussian(0, noise));
    const double s = MicScore(x, y).value();
    EXPECT_LT(s, prev + 0.12);  // allow small non-monotone wiggle
    prev = s;
  }
  EXPECT_LT(prev, 0.5);  // heavy noise ends low
}

TEST(MicTest, ConstantSeriesScoresZero) {
  std::vector<double> x = Linspace(50);
  std::vector<double> y(50, 2.0);
  Result<MicResult> r = Mic(x, y);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().mic, 1e-9);
}

TEST(MicTest, TiesHandled) {
  // Heavily tied data (integers mod 3) with an exact functional relation.
  std::vector<double> x, y;
  for (int i = 0; i < 120; ++i) {
    x.push_back(i % 3);
    y.push_back(2.0 * (i % 3));
  }
  Result<double> s = MicScore(x, y);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s.value(), 0.9);
}

TEST(MicTest, ReportsMaximizingGrid) {
  std::vector<double> x = Linspace(100);
  std::vector<double> y = x;
  Result<MicResult> r = Mic(x, y);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().best_x, 2);
  EXPECT_GE(r.value().best_y, 2);
}

// ------------------------------------------------ companion MINE stats ---

TEST(MineStatsTest, LinearRelationship) {
  std::vector<double> x = Linspace(200);
  Result<MicResult> r = Mic(x, x);
  ASSERT_TRUE(r.ok());
  // A noiseless line: full-strength functional fit on the smallest grid,
  // no asymmetry.
  EXPECT_GT(r.value().mev, 0.95);
  EXPECT_NEAR(r.value().mcn, 2.0, 1e-9);  // log2(2*2)
  EXPECT_LT(r.value().mas, 0.1);
}

TEST(MineStatsTest, MevNeverExceedsMic) {
  Rng rng(51);
  for (int round = 0; round < 10; ++round) {
    std::vector<double> x, y;
    for (int i = 0; i < 80; ++i) {
      x.push_back(rng.Gaussian(0, 1));
      y.push_back(0.5 * x.back() * x.back() + rng.Gaussian(0, 0.3));
    }
    Result<MicResult> r = Mic(x, y);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.value().mev, r.value().mic + 1e-9);
    EXPECT_GE(r.value().mas, 0.0);
    EXPECT_LE(r.value().mas, 1.0);
    EXPECT_GE(r.value().mcn, 2.0 - 1e-9);
  }
}

TEST(MineStatsTest, ParabolaNeedsMoreCellsThanLine) {
  // A non-monotone function cannot be captured by a 2-column grid: its
  // minimal MIC-achieving grid is strictly larger than the line's.
  std::vector<double> x = Linspace(300);
  std::vector<double> parabola;
  for (double v : x) parabola.push_back((v - 0.5) * (v - 0.5));
  const MicResult line = Mic(x, x).value();
  const MicResult curve = Mic(x, parabola).value();
  EXPECT_GT(curve.mcn, line.mcn);
}

// ------------------------------------------------------------- internals --

TEST(EquipartitionTest, BalancedWithoutTies) {
  std::vector<double> y;
  for (int i = 0; i < 12; ++i) y.push_back(i);
  internal::YPartition part = internal::EquipartitionY(y, 3);
  EXPECT_EQ(part.num_rows, 3);
  int counts[3] = {0, 0, 0};
  for (int r : part.row_of_point) ++counts[r];
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 4);
  EXPECT_EQ(counts[2], 4);
}

TEST(EquipartitionTest, TiesStayTogether) {
  std::vector<double> y = {1, 1, 1, 1, 1, 2, 3, 4};
  internal::YPartition part = internal::EquipartitionY(y, 4);
  // All the 1s must share a row.
  const int row_of_ones = part.row_of_point[0];
  for (int i = 1; i < 5; ++i) EXPECT_EQ(part.row_of_point[i], row_of_ones);
}

TEST(EquipartitionTest, OrderedByValue) {
  std::vector<double> y = {5, 1, 4, 2, 3, 0};
  internal::YPartition part = internal::EquipartitionY(y, 2);
  // Small values in row 0, large in row 1.
  EXPECT_EQ(part.row_of_point[5], 0);  // value 0
  EXPECT_EQ(part.row_of_point[0], 1);  // value 5
}

TEST(ClumpsTest, EqualXForcedTogether) {
  std::vector<double> x = {1, 1, 2, 3};
  std::vector<int> rows = {0, 1, 0, 1};
  internal::ClumpPartition clumps = internal::BuildClumps(x, rows);
  // First clump must contain both x=1 points (heterogeneous rows).
  ASSERT_GE(clumps.boundaries.size(), 2u);
  EXPECT_EQ(clumps.boundaries[0], 0);
  EXPECT_EQ(clumps.boundaries[1], 2);
}

TEST(ClumpsTest, SameRowRunsMerge) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<int> rows = {0, 0, 0, 1, 1, 1};
  internal::ClumpPartition clumps = internal::BuildClumps(x, rows);
  // Two clumps: the row-0 run and the row-1 run.
  ASSERT_EQ(clumps.boundaries.size(), 3u);
  EXPECT_EQ(clumps.boundaries[1], 3);
  EXPECT_EQ(clumps.boundaries[2], 6);
}

TEST(SuperclumpsTest, CapsClumpCount) {
  std::vector<int> boundaries;
  for (int i = 0; i <= 100; ++i) boundaries.push_back(i);
  std::vector<int> super = internal::BuildSuperclumps(boundaries, 10);
  EXPECT_LE(super.size(), 12u);  // ~10 superclumps + endpoints slack
  EXPECT_EQ(super.front(), 0);
  EXPECT_EQ(super.back(), 100);
  // Boundaries must be a subset of the originals (strictly increasing).
  for (size_t i = 1; i < super.size(); ++i) {
    EXPECT_GT(super[i], super[i - 1]);
  }
}

TEST(SuperclumpsTest, NoOpWhenUnderCap) {
  std::vector<int> boundaries = {0, 5, 10};
  EXPECT_EQ(internal::BuildSuperclumps(boundaries, 10), boundaries);
}

TEST(SuperclumpsTest, NeverEmitsMoreThanMaxClumps) {
  // Adversarial layouts sweeping clump counts, size skews and caps: the
  // output must respect the cap OptimizeXAxis sizes its DP tables for
  // (at most max_clumps superclumps), stay strictly increasing, and cover
  // [0, n] exactly. Regression for the leftover-points overflow where a
  // max_clumps+1-th superclump could be appended after the cap was reached.
  Rng rng(0xC1A5);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<int> boundaries = {0};
    const int k = 1 + static_cast<int>(rng.UniformInt(40));
    for (int i = 0; i < k; ++i) {
      // Mix tiny clumps with occasional huge ones to stress the
      // desired-size heuristic.
      const int size = rng.Uniform() < 0.2
                           ? 50 + static_cast<int>(rng.UniformInt(200))
                           : 1 + static_cast<int>(rng.UniformInt(4));
      boundaries.push_back(boundaries.back() + size);
    }
    for (int max_clumps = 1; max_clumps <= 12; ++max_clumps) {
      const std::vector<int> super =
          internal::BuildSuperclumps(boundaries, max_clumps);
      const int cap = std::min(k, max_clumps);
      ASSERT_LE(static_cast<int>(super.size()) - 1, cap)
          << "trial " << trial << " max_clumps " << max_clumps;
      ASSERT_GE(super.size(), 2u);
      EXPECT_EQ(super.front(), 0);
      EXPECT_EQ(super.back(), boundaries.back());
      for (size_t i = 1; i < super.size(); ++i) {
        ASSERT_GT(super[i], super[i - 1]);
      }
    }
  }
}

TEST(SuperclumpsTest, ExponentialSkewRespectsCap) {
  // Exponentially growing clump sizes push nearly all mass into the last
  // clump; the desired-size heuristic closes superclumps early, so the
  // trailing clumps must fold into the final superclump, not overflow it.
  std::vector<int> boundaries = {0};
  int size = 1;
  for (int i = 0; i < 16; ++i) {
    boundaries.push_back(boundaries.back() + size);
    size *= 2;
  }
  for (int max_clumps = 1; max_clumps <= 8; ++max_clumps) {
    const std::vector<int> super =
        internal::BuildSuperclumps(boundaries, max_clumps);
    EXPECT_LE(static_cast<int>(super.size()) - 1, max_clumps);
    EXPECT_EQ(super.front(), 0);
    EXPECT_EQ(super.back(), boundaries.back());
  }
}

TEST(RowEntropyTest, UniformMaximal) {
  std::vector<int> rows = {0, 1, 0, 1};
  EXPECT_NEAR(internal::RowEntropy(rows, 2), std::log(2.0), 1e-12);
  std::vector<int> single(4, 0);
  EXPECT_DOUBLE_EQ(internal::RowEntropy(single, 1), 0.0);
}

TEST(OptimizeXAxisTest, PerfectSeparationRecoversFullMi) {
  // 2 clumps, each pure in one of 2 rows: I = H(Q) = ln 2, so the column
  // objective sum must be 0 (= -n H(Q|P) with H(Q|P) = 0).
  std::vector<int> boundaries = {0, 5, 10};
  std::vector<int> rows_in_x(10, 0);
  for (int i = 5; i < 10; ++i) rows_in_x[static_cast<size_t>(i)] = 1;
  std::vector<double> best =
      internal::OptimizeXAxis(boundaries, rows_in_x, 2, 2);
  EXPECT_NEAR(best[1], 0.0, 1e-12);
  // With one column the objective is -n H(Q) = -10 ln 2.
  EXPECT_NEAR(best[0], -10.0 * std::log(2.0), 1e-9);
}

// -------------------------------------------- workspace kernel exactness --

// Field-by-field exact comparison: the workspace kernel must reproduce the
// reference (allocating, map-backed) kernel bit for bit, not approximately,
// so doubles are compared by bit pattern (EXPECT_DOUBLE_EQ allows 4 ULPs).
void ExpectExactlyEqual(const MicResult& got, const MicResult& want,
                        const std::string& label) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(got.mic), bits(want.mic))
      << label << " mic " << got.mic << " vs " << want.mic;
  EXPECT_EQ(got.best_x, want.best_x) << label;
  EXPECT_EQ(got.best_y, want.best_y) << label;
  EXPECT_EQ(bits(got.mev), bits(want.mev))
      << label << " mev " << got.mev << " vs " << want.mev;
  EXPECT_EQ(bits(got.mcn), bits(want.mcn))
      << label << " mcn " << got.mcn << " vs " << want.mcn;
  EXPECT_EQ(bits(got.mas), bits(want.mas))
      << label << " mas " << got.mas << " vs " << want.mas;
}

// A pair of n-point series; `shape` picks smooth (0), x quantized (1),
// y quantized (2), heavily tied (3: both axes take at most 3 values), or
// two-valued x (4: one tie run over the first kTermTableMaxPoints points, so
// for longer series the x axis has a clump exactly as wide as the term
// table's last row, and y takes at most 3 values).
void MakeSeries(int n, int shape, Rng* rng, std::vector<double>* x,
                std::vector<double>* y) {
  x->clear();
  y->clear();
  for (int i = 0; i < n; ++i) {
    const double vx = rng->Gaussian(0, 1);
    const double vy = 0.5 * vx * vx + rng->Gaussian(0, 0.4);
    switch (shape) {
      case 1:
        x->push_back(std::floor(4.0 * vx) / 4.0);
        y->push_back(vy);
        break;
      case 2:
        x->push_back(vx);
        y->push_back(std::floor(3.0 * vy) / 3.0);
        break;
      case 3:
        x->push_back(std::clamp(std::round(vx), -1.0, 1.0));
        y->push_back(std::clamp(std::floor(vy), 0.0, 2.0));
        break;
      case 4:
        x->push_back(i < internal::kTermTableMaxPoints ? 0.0 : 1.0);
        y->push_back(std::clamp(std::floor(vy), 0.0, 2.0));
        break;
      default:
        x->push_back(vx);
        y->push_back(vy);
    }
  }
}

TEST(MicWorkspaceTest, BitIdenticalToReferenceAcrossRandomSeries) {
  // One workspace reused across every call: later inputs see buffers dirtied
  // by earlier ones, which must never leak into results. Lengths run longer
  // -> shorter -> longer, so the term table grows from a non-empty state and
  // shorter series read rows a longer one appended; n = kMax fills the
  // table exactly and longer series put columns past it. Covers smooth,
  // quantized and heavily tied series.
  constexpr int kMax = internal::kTermTableMaxPoints;
  MicWorkspace workspace;
  Rng rng(0xE4AC7);
  for (int n : {64, 30, kMax + 1, 100, kMax, kMax + 44, 31}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> x, y;
      MakeSeries(n, trial % 5, &rng, &x, &y);
      const Result<MicResult> fast = Mic(x, y, MicOptions(), &workspace);
      const Result<MicResult> reference = MicReference(x, y);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(reference.ok());
      ExpectExactlyEqual(fast.value(), reference.value(),
                         "n=" + std::to_string(n) + " trial " +
                             std::to_string(trial));
    }
  }
}

TEST(MicWorkspaceTest, DirtyWorkspaceMatchesColdWorkspace) {
  std::vector<double> xa = Linspace(150), ya, xb, yb;
  Rng rng(0xD1127);
  for (double v : xa) ya.push_back(std::sin(6.0 * v));
  for (int i = 0; i < 41; ++i) {
    xb.push_back(rng.Gaussian(0, 1));
    yb.push_back(rng.Uniform());
  }
  MicWorkspace cold;
  const MicResult first = Mic(xa, ya, MicOptions(), &cold).value();
  MicWorkspace dirty;
  ASSERT_TRUE(Mic(xb, yb, MicOptions(), &dirty).ok());  // different shapes
  const MicResult again = Mic(xa, ya, MicOptions(), &dirty).value();
  ExpectExactlyEqual(again, first, "dirty workspace");
}

TEST(MicWorkspaceTest, ZeroSteadyStateAllocations) {
  Rng rng(0x0A110C);
  std::vector<double> x, y, xs, ys;
  for (int i = 0; i < 300; ++i) {
    x.push_back(rng.Gaussian(0, 1));
    y.push_back(0.7 * x.back() + rng.Gaussian(0, 0.5));
  }
  for (int i = 0; i < 120; ++i) {  // shorter series with ties
    xs.push_back(i % 7);
    ys.push_back(rng.Gaussian(0, 1));
  }
  MicWorkspace workspace;
  const Result<MicResult> warm = Mic(x, y, MicOptions(), &workspace);
  ASSERT_TRUE(warm.ok());

  // Warm buffers at the high-water mark: the same call must not touch the
  // heap at all.
  uint64_t before = HeapAllocations();
  const Result<MicResult> repeat = Mic(x, y, MicOptions(), &workspace);
  uint64_t after = HeapAllocations();
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(after - before, 0u) << "warm Mic() allocated";
  ExpectExactlyEqual(repeat.value(), warm.value(), "warm repeat");

  // A shorter series after a longer one fits in the grown buffers.
  ASSERT_TRUE(Mic(xs, ys, MicOptions(), &workspace).ok());  // settle ties path
  before = HeapAllocations();
  const Result<MicResult> shorter = Mic(xs, ys, MicOptions(), &workspace);
  after = HeapAllocations();
  ASSERT_TRUE(shorter.ok());
  EXPECT_EQ(after - before, 0u) << "shorter warm Mic() allocated";
}

// ----------------------------------------------------- SIMD dispatch tiers --

// Runs `body` under every SIMD tier the host supports (always at least the
// scalar tier), restoring the ambient dispatch level afterwards.
template <typename Body>
void ForEachSimdLevel(const Body& body) {
  const SimdLevel ambient = ActiveSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(DetectSimdLevel());
  }
  for (SimdLevel level : levels) {
    SetSimdLevel(level);
    body(level);
  }
  SetSimdLevel(ambient);
}

TEST(MicSimdTest, EveryTierBitIdenticalToReference) {
  // The vectorized DP reduction must be bit-identical to the scalar one
  // (and both to the allocating reference kernel): the max over
  // dp[s] + col_score[t][s] is order-independent because no candidate is
  // NaN or -0.0, so lane-parallel evaluation cannot change the result.
  constexpr int kMax = internal::kTermTableMaxPoints;
  MicWorkspace workspace;
  Rng rng(0x51D);
  for (int n : {30, 100, kMax, kMax + 1}) {
    for (int shape : {0, 3, 4}) {  // smooth, heavily tied, two-valued x
      std::vector<double> x, y;
      MakeSeries(n, shape, &rng, &x, &y);
      const Result<MicResult> reference = MicReference(x, y);
      ASSERT_TRUE(reference.ok());
      ForEachSimdLevel([&](SimdLevel level) {
        const Result<MicResult> got = Mic(x, y, MicOptions(), &workspace);
        ASSERT_TRUE(got.ok());
        ExpectExactlyEqual(got.value(), reference.value(),
                           std::string("n=") + std::to_string(n) + " shape " +
                               std::to_string(shape) + " level " +
                               SimdLevelName(level));
      });
    }
  }
}

TEST(MicSimdTest, ZeroSteadyStateAllocationsOnEveryTier) {
  // The dispatch layer must not cost the zero-allocation guarantee.
  Rng rng(0x51D2);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(rng.Gaussian(0, 1));
    y.push_back(0.5 * x.back() + rng.Gaussian(0, 0.5));
  }
  MicWorkspace workspace;
  ASSERT_TRUE(Mic(x, y, MicOptions(), &workspace).ok());  // warm buffers
  ForEachSimdLevel([&](SimdLevel level) {
    ASSERT_TRUE(Mic(x, y, MicOptions(), &workspace).ok());  // settle tier
    const uint64_t before = HeapAllocations();
    const Result<MicResult> warm = Mic(x, y, MicOptions(), &workspace);
    const uint64_t after = HeapAllocations();
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(after - before, 0u)
        << "warm Mic() allocated at level " << SimdLevelName(level);
  });
}

TEST(MicSimdTest, EnvKnobForcesScalar) {
  // DetectSimdLevel honors INVARNETX_SIMD=scalar (read once at startup);
  // whatever it picked, SetSimdLevel can override and the active level
  // round-trips.
  const SimdLevel ambient = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdLevel(ambient);
  EXPECT_EQ(ActiveSimdLevel(), ambient);
  if (const char* env = std::getenv("INVARNETX_SIMD");
      env != nullptr && std::string_view(env) == "scalar") {
    EXPECT_EQ(DetectSimdLevel(), SimdLevel::kScalar);
  }
}

// ------------------------------------------- pinned MINE stats regression --
// Golden values captured from the pre-workspace kernel (the PR 4 seed) on
// fixed series; the rewrite must keep reproducing them. The 1e-9 tolerance
// absorbs libm differences across toolchains; in-process bit-exactness is
// separately enforced against MicReference above.

TEST(MineStatsRegressionTest, PinnedKnownSeries) {
  const int n = 200;
  std::vector<double> x, lin, par, sine, cst;
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>(i) / n;
    x.push_back(v);
    lin.push_back(3.0 * v + 1.0);
    par.push_back((v - 0.5) * (v - 0.5));
    sine.push_back(std::sin(8.0 * v));
    cst.push_back(2.0);
  }
  std::vector<double> checker_x, checker_y;  // 2x2 alternating lattice
  for (int i = 0; i < 128; ++i) {
    checker_x.push_back((i % 2) + 0.1 * ((i / 2) % 2));
    checker_y.push_back(((i / 2) % 2) + 0.1 * (i % 2));
  }

  struct Golden {
    const char* name;
    const std::vector<double>* a;
    const std::vector<double>* b;
    double mic, mev, mcn, mas;
    int best_x, best_y;
  };
  const Golden goldens[] = {
      {"linear", &x, &lin, 1.0, 1.0, 2.0, 0.0, 2, 2},
      {"parabola", &x, &par, 0.99997720580681748, 0.99992786404566159,
       3.9068905956085187, 0.68357612758637565, 5, 3},
      {"sine", &x, &sine, 1.0, 1.0, 3.0, 0.66898238364292006, 4, 2},
      {"checkerboard", &checker_x, &checker_y, 1.0, 1.0, 3.0, 0.0, 2, 4},
  };
  for (const Golden& g : goldens) {
    const Result<MicResult> r = Mic(*g.a, *g.b);
    ASSERT_TRUE(r.ok()) << g.name;
    EXPECT_NEAR(r.value().mic, g.mic, 1e-9) << g.name;
    EXPECT_NEAR(r.value().mev, g.mev, 1e-9) << g.name;
    EXPECT_NEAR(r.value().mcn, g.mcn, 1e-9) << g.name;
    EXPECT_NEAR(r.value().mas, g.mas, 1e-9) << g.name;
    EXPECT_EQ(r.value().best_x, g.best_x) << g.name;
    EXPECT_EQ(r.value().best_y, g.best_y) << g.name;
    // And every pinned series must match the reference kernel bit for bit.
    const Result<MicResult> ref = MicReference(*g.a, *g.b);
    ASSERT_TRUE(ref.ok()) << g.name;
    ExpectExactlyEqual(r.value(), ref.value(), g.name);
  }

  // Constant y: every statistic collapses to float residue of the empty /
  // single-row grids (the best grid is residue-dependent, so only the
  // magnitude is pinned).
  const Result<MicResult> flat = Mic(x, cst);
  ASSERT_TRUE(flat.ok());
  EXPECT_LT(flat.value().mic, 1e-12);
  EXPECT_LT(flat.value().mev, 1e-12);
  EXPECT_LT(flat.value().mas, 1e-12);
  EXPECT_NEAR(flat.value().mcn, 2.0, 1e-9);
}

TEST(OptimizeXAxisTest, MonotoneInColumnBudget) {
  Rng rng(46);
  std::vector<int> boundaries;
  boundaries.push_back(0);
  for (int i = 1; i <= 12; ++i) {
    boundaries.push_back(boundaries.back() + 1 +
                         static_cast<int>(rng.UniformInt(3)));
  }
  std::vector<int> rows_in_x;
  for (int i = 0; i < boundaries.back(); ++i) {
    rows_in_x.push_back(static_cast<int>(rng.UniformInt(3)));
  }
  std::vector<double> best =
      internal::OptimizeXAxis(boundaries, rows_in_x, 3, 6);
  for (size_t l = 1; l < best.size(); ++l) {
    EXPECT_GE(best[l], best[l - 1] - 1e-12);
  }
}

}  // namespace
}  // namespace invarnetx::mic
