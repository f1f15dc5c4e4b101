#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace invarnetx {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Corruption("").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NumericalError("").code(), StatusCode::kNumericalError);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(5);
  b.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += child.NextU64() == b.NextU64();
  EXPECT_LT(equal, 5);
}

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, IdentityMultiplication) {
  Matrix id(3, 3);
  for (size_t i = 0; i < 3; ++i) id(i, i) = 1.0;
  Matrix m(3, 3);
  int v = 1;
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) m(r, c) = v++;
  Matrix prod = id.Multiply(m);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), m(r, c));
}

TEST(MatrixTest, TransposeSwapsIndices) {
  Matrix m(2, 3);
  m(0, 1) = 5.0;
  m(1, 2) = 7.0;
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(2, 1), 7.0);
}

TEST(MatrixTest, MultiplyVec) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  std::vector<double> out = m.MultiplyVec({1.0, 1.0});
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(LinearSolveTest, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  Result<std::vector<double>> x = SolveLinearSystem(a, {5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-9);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-9);
}

TEST(LinearSolveTest, RejectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  Result<std::vector<double>> x = SolveLinearSystem(a, {1.0, 2.0});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kNumericalError);
}

TEST(LinearSolveTest, RejectsShapeMismatch) {
  Matrix a(2, 3);
  EXPECT_FALSE(SolveLinearSystem(a, {1.0, 2.0}).ok());
}

TEST(LinearSolveTest, NeedsPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  Result<std::vector<double>> x = SolveLinearSystem(a, {2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 3.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 2.0, 1e-12);
}

TEST(LeastSquaresTest, RecoversLine) {
  // y = 2 + 3x, exactly.
  Matrix x(5, 2);
  std::vector<double> y(5);
  for (int i = 0; i < 5; ++i) {
    x(static_cast<size_t>(i), 0) = 1.0;
    x(static_cast<size_t>(i), 1) = i;
    y[static_cast<size_t>(i)] = 2.0 + 3.0 * i;
  }
  Result<std::vector<double>> beta = LeastSquares(x, y);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR(beta.value()[0], 2.0, 1e-6);
  EXPECT_NEAR(beta.value()[1], 3.0, 1e-6);
}

TEST(LeastSquaresTest, RejectsUnderdetermined) {
  Matrix x(2, 3);
  EXPECT_FALSE(LeastSquares(x, {1.0, 2.0}).ok());
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, MeanAndVariance) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(Variance(v), 2.0);
}

TEST(StatsTest, EmptySeriesSafe) {
  std::vector<double> v;
  EXPECT_DOUBLE_EQ(Mean(v), 0.0);
  EXPECT_DOUBLE_EQ(Variance(v), 0.0);
  EXPECT_DOUBLE_EQ(Min(v), 0.0);
  EXPECT_DOUBLE_EQ(Max(v), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  Result<double> p50 = Percentile(v, 50.0);
  ASSERT_TRUE(p50.ok());
  EXPECT_DOUBLE_EQ(p50.value(), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0).value(), 4.0);
}

TEST(StatsTest, PercentileRejectsBadInput) {
  EXPECT_FALSE(Percentile({}, 50.0).ok());
  EXPECT_FALSE(Percentile({1.0}, -1.0).ok());
  EXPECT_FALSE(Percentile({1.0}, 101.0).ok());
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y).value(), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, neg).value(), -1.0, 1e-12);
}

TEST(StatsTest, PearsonZeroVarianceIsZero) {
  std::vector<double> x = {1, 1, 1, 1};
  std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y).value(), 0.0);
}

TEST(StatsTest, SpearmanMonotoneNonlinear) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 8, 27, 64, 125};  // monotone but nonlinear
  EXPECT_NEAR(SpearmanCorrelation(x, y).value(), 1.0, 1e-12);
}

TEST(StatsTest, AverageRanksHandlesTies) {
  std::vector<double> v = {10, 20, 20, 30};
  std::vector<double> ranks = AverageRanks(v);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(StatsTest, PolyFitRecoversQuadratic) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i * 0.5);
    y.push_back(1.0 - 2.0 * (i * 0.5) + 0.5 * (i * 0.5) * (i * 0.5));
  }
  Result<std::vector<double>> c = PolyFit(x, y, 2);
  ASSERT_TRUE(c.ok());
  // LeastSquares applies a tiny stabilizing ridge, so recovery is to ~1e-4.
  EXPECT_NEAR(c.value()[0], 1.0, 1e-4);
  EXPECT_NEAR(c.value()[1], -2.0, 1e-4);
  EXPECT_NEAR(c.value()[2], 0.5, 1e-4);
  EXPECT_NEAR(PolyEval(c.value(), 2.0), 1.0 - 4.0 + 2.0, 1e-4);
}

TEST(StatsTest, PolyFitRejectsTooFewPoints) {
  EXPECT_FALSE(PolyFit({1.0, 2.0}, {1.0, 2.0}, 2).ok());
}

TEST(StatsTest, NormalizeToMin) {
  Result<std::vector<double>> n = NormalizeToMin({2.0, 4.0, 6.0});
  ASSERT_TRUE(n.ok());
  EXPECT_DOUBLE_EQ(n.value()[0], 1.0);
  EXPECT_DOUBLE_EQ(n.value()[2], 3.0);
  EXPECT_FALSE(NormalizeToMin({0.0, 1.0}).ok());
  EXPECT_FALSE(NormalizeToMin({}).ok());
}

TEST(StatsTest, WilsonIntervalKnownValues) {
  // 8/10 successes: the 95% Wilson interval is approximately [0.49, 0.94].
  Result<ProportionInterval> ci = WilsonInterval(8, 10);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci.value().lo, 0.49, 0.02);
  EXPECT_NEAR(ci.value().hi, 0.94, 0.02);
  // Extremes stay within [0, 1] and are asymmetric near the boundary.
  Result<ProportionInterval> zero = WilsonInterval(0, 10);
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(zero.value().lo, 0.0);
  EXPECT_GT(zero.value().hi, 0.2);
  Result<ProportionInterval> all = WilsonInterval(10, 10);
  ASSERT_TRUE(all.ok());
  EXPECT_DOUBLE_EQ(all.value().hi, 1.0);
  EXPECT_LT(all.value().lo, 0.8);
}

TEST(StatsTest, WilsonIntervalValidates) {
  EXPECT_FALSE(WilsonInterval(1, 0).ok());
  EXPECT_FALSE(WilsonInterval(-1, 10).ok());
  EXPECT_FALSE(WilsonInterval(11, 10).ok());
}

TEST(StatsTest, WilsonIntervalNarrowsWithSampleSize) {
  const ProportionInterval small = WilsonInterval(8, 10).value();
  const ProportionInterval big = WilsonInterval(80, 100).value();
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, RendersAlignedTable) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  TextTable t({"a", "b"});
  t.AddRow({"x,y", "say \"hi\""});
  const std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.912, 1), "91.2%");
}

}  // namespace
}  // namespace invarnetx
