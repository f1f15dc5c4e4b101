#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "timeseries/acf.h"
#include "timeseries/arima.h"
#include "timeseries/diagnostics.h"
#include "timeseries/diff.h"

// Counting operator new: the streaming predictor must never allocate.
#include "alloc_counter.h"

namespace invarnetx::ts {
namespace {

using testing_alloc::HeapAllocations;

// Synthesizes an AR(1) series x_t = c + phi x_{t-1} + eps.
std::vector<double> MakeAr1(double phi, double c, double sigma, int n,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  double x = c / (1.0 - phi);
  for (int i = 0; i < n; ++i) {
    x = c + phi * x + rng.Gaussian(0.0, sigma);
    out.push_back(x);
  }
  return out;
}

// ------------------------------------------------------------------ diff --

TEST(DiffTest, FirstDifference) {
  Result<std::vector<double>> d = Difference({1, 3, 6, 10}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), (std::vector<double>{2, 3, 4}));
}

TEST(DiffTest, SecondDifference) {
  Result<std::vector<double>> d = Difference({1, 3, 6, 10}, 2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), (std::vector<double>{1, 1}));
}

TEST(DiffTest, ZeroDifferenceIdentity) {
  Result<std::vector<double>> d = Difference({1, 2}, 0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), (std::vector<double>{1, 2}));
}

TEST(DiffTest, RejectsBadInput) {
  EXPECT_FALSE(Difference({1, 2}, -1).ok());
  EXPECT_FALSE(Difference({1, 2}, 2).ok());
}

TEST(DiffTest, UndifferenceInvertsD1) {
  // Forecast of w = 4 after series ending at 10 should be 14.
  Result<double> y = Undifference({10.0}, 1, 4.0);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ(y.value(), 14.0);
}

TEST(DiffTest, UndifferenceInvertsD2) {
  // series 1,3,6,10: diffs 2,3,4; second diffs 1,1. A second-diff forecast
  // of 1 implies next first-diff 5, next value 15.
  Result<double> y = Undifference({6.0, 10.0}, 2, 1.0);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ(y.value(), 15.0);
}

TEST(DiffTest, UndifferenceD0IsIdentity) {
  EXPECT_DOUBLE_EQ(Undifference({}, 0, 3.5).value(), 3.5);
}

TEST(DiffTest, RoundTripPropertyRandomSeries) {
  Rng rng(99);
  for (int d = 0; d <= 2; ++d) {
    std::vector<double> series;
    for (int i = 0; i < 30; ++i) series.push_back(rng.Gaussian(0, 1));
    Result<std::vector<double>> w = Difference(series, d);
    ASSERT_TRUE(w.ok());
    if (w.value().empty()) continue;
    // Reconstruct the last point of the series from its predecessors.
    std::vector<double> tail(series.begin(), series.end() - 1);
    Result<double> rebuilt = Undifference(tail, d, w.value().back());
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_NEAR(rebuilt.value(), series.back(), 1e-9) << "d=" << d;
  }
}

// ------------------------------------------------------------------- acf --

TEST(AcfTest, WhiteNoiseUncorrelated) {
  std::vector<double> series = MakeAr1(0.0, 0.0, 1.0, 4000, 21);
  Result<std::vector<double>> acf = Acf(series, 5);
  ASSERT_TRUE(acf.ok());
  EXPECT_DOUBLE_EQ(acf.value()[0], 1.0);
  for (int lag = 1; lag <= 5; ++lag) {
    EXPECT_NEAR(acf.value()[static_cast<size_t>(lag)], 0.0, 0.05);
  }
}

TEST(AcfTest, Ar1DecaysGeometrically) {
  std::vector<double> series = MakeAr1(0.7, 0.0, 1.0, 20000, 22);
  Result<std::vector<double>> acf = Acf(series, 3);
  ASSERT_TRUE(acf.ok());
  EXPECT_NEAR(acf.value()[1], 0.7, 0.05);
  EXPECT_NEAR(acf.value()[2], 0.49, 0.06);
}

TEST(AcfTest, ConstantSeriesZeroBeyondLag0) {
  std::vector<double> series(50, 3.0);
  Result<std::vector<double>> acf = Acf(series, 3);
  ASSERT_TRUE(acf.ok());
  EXPECT_DOUBLE_EQ(acf.value()[0], 1.0);
  EXPECT_DOUBLE_EQ(acf.value()[1], 0.0);
}

// ----------------------------------------------------------------- arima --

TEST(ArimaTest, FitRecoversAr1Coefficient) {
  std::vector<double> series = MakeAr1(0.65, 1.0, 0.5, 5000, 31);
  Result<ArimaModel> model = ArimaModel::Fit(series, ArimaOrder{1, 0, 0});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model.value().ar()[0], 0.65, 0.05);
  EXPECT_NEAR(model.value().intercept(), 1.0, 0.15);
  EXPECT_NEAR(model.value().sigma2(), 0.25, 0.05);
}

TEST(ArimaTest, FitRejectsShortSeries) {
  std::vector<double> tiny(8, 1.0);
  EXPECT_FALSE(ArimaModel::Fit(tiny, ArimaOrder{1, 0, 0}).ok());
}

TEST(ArimaTest, FitRejectsNegativeOrder) {
  std::vector<double> series(100, 1.0);
  EXPECT_FALSE(ArimaModel::Fit(series, ArimaOrder{-1, 0, 0}).ok());
}

TEST(ArimaTest, WhiteNoiseModelUsesMean) {
  std::vector<double> series = MakeAr1(0.0, 2.0, 1.0, 2000, 32);
  Result<ArimaModel> model = ArimaModel::Fit(series, ArimaOrder{0, 0, 0});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model.value().intercept(), 2.0, 0.1);
}

TEST(ArimaTest, PredictionBeatsNaiveOnAr1) {
  std::vector<double> series = MakeAr1(0.8, 0.0, 1.0, 2000, 33);
  Result<ArimaModel> model = ArimaModel::Fit(series, ArimaOrder{1, 0, 0});
  ASSERT_TRUE(model.ok());
  Result<std::vector<double>> preds =
      model.value().PredictInSample(series);
  ASSERT_TRUE(preds.ok());
  double model_sse = 0.0, naive_sse = 0.0;
  for (size_t i = 10; i < series.size(); ++i) {
    model_sse += std::pow(series[i] - preds.value()[i], 2);
    naive_sse += std::pow(series[i] - series[i - 1], 2);
  }
  EXPECT_LT(model_sse, naive_sse);
}

TEST(ArimaTest, TrendNeedsDifferencing) {
  // Random walk with drift: ARIMA(0,1,0)-ish; check residuals are small
  // relative to the drifting scale.
  Rng rng(34);
  std::vector<double> series;
  double x = 0.0;
  for (int i = 0; i < 800; ++i) {
    x += 0.5 + rng.Gaussian(0.0, 0.1);
    series.push_back(x);
  }
  Result<ArimaModel> model = ArimaModel::Fit(series, ArimaOrder{1, 1, 0});
  ASSERT_TRUE(model.ok());
  Result<std::vector<double>> resid = model.value().AbsResiduals(series);
  ASSERT_TRUE(resid.ok());
  double mean_resid = 0.0;
  for (size_t i = 10; i < resid.value().size(); ++i) {
    mean_resid += resid.value()[i];
  }
  mean_resid /= static_cast<double>(resid.value().size() - 10);
  EXPECT_LT(mean_resid, 0.2);  // ~sigma of the innovations
}

TEST(ArimaTest, MaTermImprovesMa1Fit) {
  // x_t = eps_t + 0.7 eps_{t-1}
  Rng rng(35);
  std::vector<double> series;
  double prev_eps = rng.Gaussian(0, 1);
  for (int i = 0; i < 5000; ++i) {
    const double eps = rng.Gaussian(0, 1);
    series.push_back(eps + 0.7 * prev_eps);
    prev_eps = eps;
  }
  Result<ArimaModel> ma = ArimaModel::Fit(series, ArimaOrder{0, 0, 1});
  ASSERT_TRUE(ma.ok());
  EXPECT_NEAR(ma.value().ma()[0], 0.7, 0.1);
}

TEST(ArimaTest, FromParametersValidates) {
  EXPECT_FALSE(
      ArimaModel::FromParameters(ArimaOrder{1, 0, 0}, {}, {}, 0.0, 1.0).ok());
  Result<ArimaModel> ok =
      ArimaModel::FromParameters(ArimaOrder{1, 0, 0}, {0.5}, {}, 0.1, 1.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value().ar()[0], 0.5);
}

TEST(ArimaPredictorTest, WarmupEchoesThenPredicts) {
  Result<ArimaModel> model =
      ArimaModel::FromParameters(ArimaOrder{1, 0, 0}, {0.5}, {}, 0.0, 1.0);
  ASSERT_TRUE(model.ok());
  ArimaPredictor predictor(model.value());
  EXPECT_FALSE(predictor.Ready());
  EXPECT_DOUBLE_EQ(predictor.PredictNext(), 0.0);
  predictor.Observe(4.0);
  EXPECT_TRUE(predictor.Ready());
  // AR(1) with phi=0.5, c=0: forecast = 0.5 * 4 = 2.
  EXPECT_DOUBLE_EQ(predictor.PredictNext(), 2.0);
  const double resid = predictor.Observe(3.0);
  EXPECT_DOUBLE_EQ(resid, 1.0);
}

TEST(ArimaPredictorTest, ResetClearsHistory) {
  Result<ArimaModel> model =
      ArimaModel::FromParameters(ArimaOrder{1, 0, 0}, {0.5}, {}, 0.0, 1.0);
  ASSERT_TRUE(model.ok());
  ArimaPredictor predictor(model.value());
  predictor.Observe(4.0);
  predictor.Reset();
  EXPECT_FALSE(predictor.Ready());
}

TEST(ArimaPredictorTest, D1ForecastTracksRandomWalk) {
  // ARIMA(0,1,0) with intercept mu predicts y_t + mu.
  Result<ArimaModel> model =
      ArimaModel::FromParameters(ArimaOrder{0, 1, 0}, {}, {}, 0.5, 1.0);
  ASSERT_TRUE(model.ok());
  ArimaPredictor predictor(model.value());
  predictor.Observe(10.0);
  EXPECT_TRUE(predictor.Ready());
  EXPECT_DOUBLE_EQ(predictor.PredictNext(), 10.5);
  predictor.Observe(11.0);
  EXPECT_DOUBLE_EQ(predictor.PredictNext(), 11.5);
}

// ----------------------------------------------- predictor exactness --

// The original deque-backed streaming predictor, kept verbatim as the
// exactness oracle for the fixed-size ArimaPredictor: three bounded
// std::deque histories, a vector tail and ts::Undifference per forecast,
// and the forecast computed twice per Observe. Readable, allocating, slow.
class ArimaPredictorReference {
 public:
  explicit ArimaPredictorReference(ArimaModel model)
      : model_(std::move(model)) {}

  bool Ready() const {
    const ArimaOrder& o = model_.order();
    return w_history_.size() >= static_cast<size_t>(o.p) &&
           raw_history_.size() >= static_cast<size_t>(o.d);
  }

  double PredictNext() const {
    if (!Ready()) return raw_history_.empty() ? 0.0 : raw_history_.back();
    const int d = model_.order().d;
    const double wfc = ForecastDifferenced();
    std::vector<double> tail(raw_history_.end() - d, raw_history_.end());
    return Undifference(tail, d, wfc).value();
  }

  double Observe(double value) {
    const ArimaOrder& o = model_.order();
    const bool model_based = Ready();
    const double forecast = PredictNext();
    const double w_forecast = model_based ? ForecastDifferenced() : 0.0;
    raw_history_.push_back(value);
    const size_t raw_cap = static_cast<size_t>(o.d) + 1;
    while (raw_history_.size() > raw_cap) raw_history_.pop_front();
    if (raw_history_.size() >= static_cast<size_t>(o.d) + 1) {
      double w = 0.0;
      double coeff = 1.0;
      for (int k = 0; k <= o.d; ++k) {
        w += coeff *
             raw_history_[raw_history_.size() - 1 - static_cast<size_t>(k)];
        coeff *= -static_cast<double>(o.d - k) / static_cast<double>(k + 1);
      }
      const double innovation = model_based ? (w - w_forecast) : 0.0;
      w_history_.push_back(w);
      const size_t w_cap = static_cast<size_t>(std::max(o.p, 1));
      while (w_history_.size() > w_cap) w_history_.pop_front();
      if (o.q > 0) {
        residuals_.push_back(innovation);
        while (residuals_.size() > static_cast<size_t>(o.q)) {
          residuals_.pop_front();
        }
      }
    }
    return std::fabs(value - forecast);
  }

  void Reset() {
    raw_history_.clear();
    w_history_.clear();
    residuals_.clear();
  }

 private:
  double ForecastDifferenced() const {
    const ArimaOrder& o = model_.order();
    double acc = model_.intercept();
    for (int i = 1; i <= o.p; ++i) {
      acc += model_.ar()[static_cast<size_t>(i - 1)] *
             w_history_[w_history_.size() - static_cast<size_t>(i)];
    }
    for (int j = 1; j <= o.q; ++j) {
      if (residuals_.size() < static_cast<size_t>(j)) break;
      acc += model_.ma()[static_cast<size_t>(j - 1)] *
             residuals_[residuals_.size() - static_cast<size_t>(j)];
    }
    return acc;
  }

  ArimaModel model_;
  std::deque<double> raw_history_;
  std::deque<double> w_history_;
  std::deque<double> residuals_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// A model of the given order with fixed, alternating-sign coefficients.
ArimaModel ModelOfOrder(const ArimaOrder& order) {
  std::vector<double> ar;
  std::vector<double> ma;
  for (int i = 0; i < order.p; ++i) {
    ar.push_back((i % 2 == 0 ? 0.3 : -0.2) / (i + 1));
  }
  for (int j = 0; j < order.q; ++j) {
    ma.push_back((j % 2 == 0 ? -0.25 : 0.15) / (j + 1));
  }
  return ArimaModel::FromParameters(order, ar, ma,
                                    0.01 * (1 + order.p + order.q), 1.0)
      .value();
}

// A CPI-like series: level plus a slow wave plus AR(1) noise.
std::vector<double> CpiLikeSeries(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  double noise = 0.0;
  for (int t = 0; t < n; ++t) {
    noise = 0.6 * noise + rng.Gaussian(0.0, 0.05);
    out.push_back(1.2 + 0.1 * std::sin(0.07 * t) + noise);
  }
  return out;
}

// Streams `series` through the fixed-size predictor and the reference in
// lockstep, resetting both at `reset_at`, and requires bit-identical
// Ready / PredictNext / Observe at every step. A copy of the predictor
// taken at the midpoint must continue identically.
void ExpectMatchesReference(const ArimaModel& model,
                            const std::vector<double>& series,
                            size_t reset_at) {
  const std::string order = model.order().ToString();
  ArimaPredictor predictor(model);
  ArimaPredictorReference reference(model);
  std::optional<ArimaPredictor> copy;
  for (size_t t = 0; t < series.size(); ++t) {
    if (t == reset_at) {
      predictor.Reset();
      reference.Reset();
    }
    if (t == series.size() / 2) copy = predictor;
    ASSERT_EQ(predictor.Ready(), reference.Ready()) << order << " t=" << t;
    ASSERT_EQ(Bits(predictor.PredictNext()), Bits(reference.PredictNext()))
        << order << " t=" << t;
    const double residual = predictor.Observe(series[t]);
    ASSERT_EQ(Bits(residual), Bits(reference.Observe(series[t])))
        << order << " t=" << t;
    if (copy.has_value()) {
      ASSERT_EQ(Bits(copy->Observe(series[t])), Bits(residual))
          << order << " copy t=" << t;
    }
  }
}

TEST(ArimaPredictorExactnessTest, EveryOrderWithinBoundsMatchesReference) {
  const std::vector<double> series = CpiLikeSeries(400, 71);
  for (int p = 0; p <= kMaxArimaP; ++p) {
    for (int d = 0; d <= kMaxArimaD; ++d) {
      for (int q = 0; q <= kMaxArimaQ; ++q) {
        ExpectMatchesReference(ModelOfOrder(ArimaOrder{p, d, q}), series,
                               /*reset_at=*/150);
      }
    }
  }
}

TEST(ArimaPredictorExactnessTest, FittedModelsAndAbsResidualsMatchReference) {
  for (uint64_t seed : {72u, 73u, 74u}) {
    const std::vector<double> series =
        CpiLikeSeries(300, seed * 1000 + seed);
    Result<ArimaModel> model = FitArimaAuto(series);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ExpectMatchesReference(model.value(), series, /*reset_at=*/120);

    // AbsResiduals (threshold calibration) runs the same predictor; the
    // reference recomputes it with the warmup echo of PredictInSample.
    Result<std::vector<double>> residuals = model.value().AbsResiduals(series);
    ASSERT_TRUE(residuals.ok());
    ArimaPredictorReference reference(model.value());
    for (size_t i = 0; i < series.size(); ++i) {
      const double pred =
          reference.Ready() ? reference.PredictNext() : series[i];
      reference.Observe(series[i]);
      ASSERT_EQ(Bits(residuals.value()[i]), Bits(std::fabs(series[i] - pred)))
          << "seed " << seed << " i=" << i;
    }
  }
}

TEST(ArimaPredictorExactnessTest, ConstructionResetAndObserveNeverAllocate) {
  const ArimaModel model = ModelOfOrder(ArimaOrder{kMaxArimaP, kMaxArimaD,
                                                   kMaxArimaQ});
  const std::vector<double> series = CpiLikeSeries(200, 75);
  const uint64_t before = HeapAllocations();
  ArimaPredictor predictor(model);
  double sum = 0.0;
  for (double v : series) sum += predictor.Observe(v);
  predictor.Reset();
  ArimaPredictor copy = predictor;
  for (double v : series) sum += copy.Observe(v);
  predictor = copy;
  sum += predictor.PredictNext();
  const uint64_t after = HeapAllocations();
  EXPECT_EQ(after - before, 0u) << "predictor allocated";
  EXPECT_TRUE(std::isfinite(sum));
}

TEST(ArimaBoundsTest, OrdersAboveTheBoundsAreTypedErrors) {
  const std::vector<double> series = CpiLikeSeries(400, 76);
  for (const ArimaOrder& order :
       {ArimaOrder{kMaxArimaP + 1, 0, 0}, ArimaOrder{0, kMaxArimaD + 1, 0},
        ArimaOrder{0, 0, kMaxArimaQ + 1}}) {
    Result<ArimaModel> fit = ArimaModel::Fit(series, order);
    ASSERT_FALSE(fit.ok()) << order.ToString();
    EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
    Result<ArimaModel> built = ArimaModel::FromParameters(
        order, std::vector<double>(static_cast<size_t>(order.p), 0.1),
        std::vector<double>(static_cast<size_t>(order.q), 0.1), 0.0, 1.0);
    ASSERT_FALSE(built.ok()) << order.ToString();
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  // The largest in-bound order is accepted by both.
  const ArimaOrder largest{kMaxArimaP, kMaxArimaD, kMaxArimaQ};
  EXPECT_TRUE(ArimaModel::Fit(series, largest).ok());
  EXPECT_TRUE(ModelOfOrder(largest).order() == largest);

  for (const auto& [p, d, q] : {std::tuple{kMaxArimaP + 1, 2, 3},
                                std::tuple{5, kMaxArimaD + 1, 3},
                                std::tuple{5, 2, kMaxArimaQ + 1}}) {
    Result<ArimaModel> auto_fit = FitArimaAuto(series, p, d, q);
    ASSERT_FALSE(auto_fit.ok());
    EXPECT_EQ(auto_fit.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FitArimaAutoTest, SelectsReasonableOrderForAr1) {
  std::vector<double> series = MakeAr1(0.7, 0.0, 1.0, 600, 36);
  Result<ArimaModel> model = FitArimaAuto(series);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().order().d, 0);
  EXPECT_GE(model.value().order().p + model.value().order().q, 1);
}

TEST(FitArimaAutoTest, ChoosesDifferencingForTrend) {
  Rng rng(37);
  std::vector<double> series;
  double x = 0.0;
  for (int i = 0; i < 400; ++i) {
    x += 1.0 + rng.Gaussian(0.0, 0.05);
    series.push_back(x);
  }
  Result<ArimaModel> model = FitArimaAuto(series);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model.value().order().d, 1);
}

TEST(FitArimaAutoTest, RejectsTinySeries) {
  std::vector<double> tiny(10, 1.0);
  EXPECT_FALSE(FitArimaAuto(tiny).ok());
}

TEST(ArimaOrderTest, ToStringFormat) {
  EXPECT_EQ((ArimaOrder{2, 1, 3}.ToString()), "ARIMA(2,1,3)");
}

// ----------------------------------------------------------- diagnostics --

TEST(ChiSquareTest, KnownValues) {
  // P(chi2_1 >= 3.841) = 0.05; P(chi2_10 >= 18.307) = 0.05.
  EXPECT_NEAR(ChiSquareSurvival(3.841, 1), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquareSurvival(18.307, 10), 0.05, 1e-3);
  // Degenerate edges.
  EXPECT_DOUBLE_EQ(ChiSquareSurvival(0.0, 5), 1.0);
  EXPECT_LT(ChiSquareSurvival(1000.0, 5), 1e-10);
}

TEST(LjungBoxTest, WhiteNoisePasses) {
  Rng rng(61);
  std::vector<double> white;
  for (int i = 0; i < 400; ++i) white.push_back(rng.Gaussian(0, 1));
  Result<LjungBoxResult> result = LjungBoxTest(white, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().WhiteAt(0.01));
  EXPECT_GT(result.value().p_value, 0.01);
}

TEST(LjungBoxTest, AutocorrelatedSeriesFails) {
  std::vector<double> series = MakeAr1(0.8, 0.0, 1.0, 400, 62);
  Result<LjungBoxResult> result = LjungBoxTest(series, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().WhiteAt(0.05));
  EXPECT_LT(result.value().p_value, 1e-6);
  EXPECT_GT(result.value().q, 100.0);
}

TEST(LjungBoxTest, FittedArimaResidualsAreWhite) {
  // After fitting an adequate AR(1), the residuals must pass the test the
  // raw series fails.
  std::vector<double> series = MakeAr1(0.8, 0.0, 1.0, 600, 63);
  Result<ArimaModel> model = ArimaModel::Fit(series, ArimaOrder{1, 0, 0});
  ASSERT_TRUE(model.ok());
  Result<std::vector<double>> preds = model.value().PredictInSample(series);
  ASSERT_TRUE(preds.ok());
  std::vector<double> residuals;
  for (size_t i = 5; i < series.size(); ++i) {
    residuals.push_back(series[i] - preds.value()[i]);
  }
  Result<LjungBoxResult> result =
      LjungBoxTest(residuals, 10, /*fitted_params=*/1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().WhiteAt(0.01));
}

TEST(LjungBoxTest, ValidatesInput) {
  std::vector<double> series(100, 1.0);
  EXPECT_FALSE(LjungBoxTest(series, 0).ok());
  EXPECT_FALSE(LjungBoxTest(series, 5, 5).ok());   // lags <= params
  EXPECT_FALSE(LjungBoxTest(series, 5, -1).ok());
  std::vector<double> tiny(5, 1.0);
  EXPECT_FALSE(LjungBoxTest(tiny, 10).ok());
}

}  // namespace
}  // namespace invarnetx::ts
