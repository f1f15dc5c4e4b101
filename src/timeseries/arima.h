#ifndef INVARNETX_TIMESERIES_ARIMA_H_
#define INVARNETX_TIMESERIES_ARIMA_H_

#include <array>
#include <string>
#include <vector>

#include "common/status.h"

namespace invarnetx::ts {

// Largest orders FitArimaAuto searches. Every ArimaModel stays within them
// (Fit and FromParameters reject larger orders), which is what lets the
// streaming predictor keep its state in fixed inline arrays.
inline constexpr int kMaxArimaP = 5;
inline constexpr int kMaxArimaD = 2;
inline constexpr int kMaxArimaQ = 3;

// ARIMA(p, d, q) model order.
struct ArimaOrder {
  int p = 0;
  int d = 0;
  int q = 0;

  friend bool operator==(const ArimaOrder& a, const ArimaOrder& b) {
    return a.p == b.p && a.d == b.d && a.q == b.q;
  }
  std::string ToString() const;
};

// A fitted ARIMA model: the d-times-differenced series w_t follows
//   w_t = c + sum_i ar[i] w_{t-i} + sum_j ma[j] e_{t-j} + e_t.
//
// Fitted with the Hannan-Rissanen two-stage regression (long-AR residual
// proxy, then joint OLS), which is fast, closed-form, and accurate enough
// for the drift-detection use in InvarNet-X.
class ArimaModel {
 public:
  // An empty ARIMA(0,0,0) model with zero intercept; useful as a
  // placeholder member before Fit/FromParameters assigns a real model.
  ArimaModel() = default;

  // Fits the given order on the series. Requires enough observations for
  // the internal regressions (roughly 3 * (p + q) + d + 10) and an order
  // within [0, kMaxArimaP] x [0, kMaxArimaD] x [0, kMaxArimaQ]
  // (InvalidArgument otherwise).
  static Result<ArimaModel> Fit(const std::vector<double>& series,
                                const ArimaOrder& order);

  const ArimaOrder& order() const { return order_; }
  const std::vector<double>& ar() const { return ar_; }
  const std::vector<double>& ma() const { return ma_; }
  double intercept() const { return intercept_; }
  // Innovation variance estimated from the fitting residuals.
  double sigma2() const { return sigma2_; }
  // Akaike information criterion: n ln(sigma2) + 2 (p + q + 1).
  double aic() const { return aic_; }

  // One-step-ahead in-sample predictions over `series` (same length;
  // the first d + p entries, where the recursion has no history, repeat the
  // observed values so their residual is zero).
  Result<std::vector<double>> PredictInSample(
      const std::vector<double>& series) const;

  // |observed - predicted| over `series`; used for threshold calibration.
  Result<std::vector<double>> AbsResiduals(
      const std::vector<double>& series) const;

  // Direct construction from parameters (used by persistence). The order
  // must be within the same bounds as Fit's (InvalidArgument otherwise), so
  // a store naming a larger order fails at load.
  static Result<ArimaModel> FromParameters(const ArimaOrder& order,
                                           std::vector<double> ar,
                                           std::vector<double> ma,
                                           double intercept, double sigma2);

 private:
  ArimaOrder order_;
  std::vector<double> ar_;
  std::vector<double> ma_;
  double intercept_ = 0.0;
  double sigma2_ = 0.0;
  double aic_ = 0.0;
};

// Streaming one-step-ahead predictor for a fitted ArimaModel. Call
// PredictNext() to obtain the forecast for the upcoming observation, then
// Observe() with the actual value; the residual feeds the MA terms.
//
// The predictor copies the model's order and coefficients and keeps its
// history in fixed inline arrays sized by the kMaxArima* bounds: it never
// points into the model it was built from, is trivially copyable, and never
// allocates on construction, Reset or Observe.
class ArimaPredictor {
 public:
  explicit ArimaPredictor(const ArimaModel& model);

  // Forecast of the next raw observation. Until d + p raw observations have
  // been seen there is not enough history; the predictor then returns the
  // last observed value (or 0 before any observation).
  double PredictNext() const;

  // Feeds the actual observation and returns |observation - forecast|.
  double Observe(double value);

  // Drops accumulated history (e.g., at a workload phase boundary).
  void Reset();

  // True once enough history has accumulated for model-based forecasts
  // (d raw values and p differenced values).
  bool Ready() const { return w_count_ >= order_.p && raw_count_ >= order_.d; }

 private:
  // w-scale forecast given current differenced history and residuals.
  double ForecastDifferenced() const;
  // Raw-scale forecast from a w-scale one: ts::Undifference over the last
  // d raw values, in the same floating-point operation order.
  double ToRawScale(double w_forecast) const;

  ArimaOrder order_;
  double intercept_ = 0.0;
  std::array<double, kMaxArimaP> ar_{};
  std::array<double, kMaxArimaQ> ma_{};
  // Histories, newest first: raw_[0] is the latest raw value, w_[i - 1] the
  // lag-i differenced value, resid_[j - 1] the lag-j w-scale residual. Each
  // holds at most d + 1, max(p, 1) and q entries respectively.
  std::array<double, kMaxArimaD + 1> raw_{};
  std::array<double, kMaxArimaP> w_{};
  std::array<double, kMaxArimaQ> resid_{};
  int raw_count_ = 0;
  int w_count_ = 0;
  int resid_count_ = 0;
};

// Chooses d as the smallest value in [0, max_d] whose differenced series is
// "stationary enough" (lag-1 autocorrelation below 0.9, and further
// differencing does not reduce variance), then grid-searches (p, q) in
// [0, max_p] x [0, max_q] by AIC. (p, q) = (0, 0) with d = 0 is excluded.
// Bounds outside [0, kMaxArimaP] x [0, kMaxArimaD] x [0, kMaxArimaQ] are
// rejected with InvalidArgument.
Result<ArimaModel> FitArimaAuto(const std::vector<double>& series,
                                int max_p = 5, int max_d = 2, int max_q = 3);

}  // namespace invarnetx::ts

#endif  // INVARNETX_TIMESERIES_ARIMA_H_
