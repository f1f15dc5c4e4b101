#include "timeseries/arima.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "common/matrix.h"
#include "common/stats.h"
#include "timeseries/acf.h"
#include "timeseries/diff.h"

namespace invarnetx::ts {
namespace {

// Residuals of an AR(order) OLS fit on w; entries before `order` are zero.
// Used as the innovation proxy in the Hannan-Rissanen second stage.
Result<std::vector<double>> LongArResiduals(const std::vector<double>& w,
                                            int order) {
  const size_t n = w.size();
  const size_t rows = n - static_cast<size_t>(order);
  Matrix x(rows, static_cast<size_t>(order) + 1);
  std::vector<double> y(rows);
  for (size_t t = static_cast<size_t>(order); t < n; ++t) {
    const size_t r = t - static_cast<size_t>(order);
    x(r, 0) = 1.0;
    for (int lag = 1; lag <= order; ++lag) {
      x(r, static_cast<size_t>(lag)) = w[t - static_cast<size_t>(lag)];
    }
    y[r] = w[t];
  }
  Result<std::vector<double>> beta = LeastSquares(x, y);
  if (!beta.ok()) return beta.status();
  std::vector<double> resid(n, 0.0);
  for (size_t t = static_cast<size_t>(order); t < n; ++t) {
    double pred = beta.value()[0];
    for (int lag = 1; lag <= order; ++lag) {
      pred += beta.value()[static_cast<size_t>(lag)] *
              w[t - static_cast<size_t>(lag)];
    }
    resid[t] = w[t] - pred;
  }
  return resid;
}

// InvalidArgument unless `order` lies within the bounds the streaming
// predictor's inline arrays are sized for.
Status CheckOrder(const ArimaOrder& order, const char* who) {
  if (order.p < 0 || order.d < 0 || order.q < 0 || order.p > kMaxArimaP ||
      order.d > kMaxArimaD || order.q > kMaxArimaQ) {
    return Status::InvalidArgument(
        std::string(who) + ": order " + order.ToString() + " outside " +
        ArimaOrder{kMaxArimaP, kMaxArimaD, kMaxArimaQ}.ToString() +
        " bounds");
  }
  return Status::Ok();
}

// Inserts `value` at the front of a newest-first history holding at most
// `cap` entries.
template <size_t N>
void PushFront(std::array<double, N>& history, int* count, int cap,
               double value) {
  for (int i = std::min(*count, cap - 1); i > 0; --i) {
    history[static_cast<size_t>(i)] = history[static_cast<size_t>(i - 1)];
  }
  history[0] = value;
  *count = std::min(*count + 1, cap);
}

}  // namespace

std::string ArimaOrder::ToString() const {
  return "ARIMA(" + std::to_string(p) + "," + std::to_string(d) + "," +
         std::to_string(q) + ")";
}

Result<ArimaModel> ArimaModel::Fit(const std::vector<double>& series,
                                   const ArimaOrder& order) {
  INVARNETX_RETURN_IF_ERROR(CheckOrder(order, "ArimaModel::Fit"));
  Result<std::vector<double>> diffed = Difference(series, order.d);
  if (!diffed.ok()) return diffed.status();
  const std::vector<double>& w = diffed.value();
  const int n = static_cast<int>(w.size());
  const int min_needed = 3 * (order.p + order.q) + 10;
  if (n < min_needed) {
    return Status::InvalidArgument("ArimaModel::Fit: series too short for " +
                                   order.ToString());
  }

  ArimaModel model;
  model.order_ = order;
  model.ar_.assign(static_cast<size_t>(order.p), 0.0);
  model.ma_.assign(static_cast<size_t>(order.q), 0.0);

  if (order.p == 0 && order.q == 0) {
    // White noise around a constant level.
    model.intercept_ = Mean(w);
    double ssr = 0.0;
    for (double v : w) ssr += (v - model.intercept_) * (v - model.intercept_);
    model.sigma2_ = std::max(ssr / n, 1e-12);
    model.aic_ = n * std::log(model.sigma2_) + 2.0;
    return model;
  }

  std::vector<double> innovations(w.size(), 0.0);
  int start = order.p;
  if (order.q > 0) {
    // Stage 1: long autoregression provides an innovation proxy.
    const int long_order =
        std::min(n / 4, std::max(order.p + order.q + 2,
                                 static_cast<int>(10.0 * std::log10(
                                     std::max(n, 10)))));
    Result<std::vector<double>> proxy = LongArResiduals(w, long_order);
    if (!proxy.ok()) return proxy.status();
    innovations = std::move(proxy.value());
    start = std::max(order.p, long_order + order.q);
  }

  // Stage 2: joint OLS of w_t on its own lags and lagged innovations.
  const size_t terms = 1 + static_cast<size_t>(order.p + order.q);
  const size_t rows = w.size() - static_cast<size_t>(start);
  if (rows < terms + 2) {
    return Status::InvalidArgument(
        "ArimaModel::Fit: not enough rows after warmup for " +
        order.ToString());
  }
  Matrix x(rows, terms);
  std::vector<double> y(rows);
  for (size_t t = static_cast<size_t>(start); t < w.size(); ++t) {
    const size_t r = t - static_cast<size_t>(start);
    size_t c = 0;
    x(r, c++) = 1.0;
    for (int lag = 1; lag <= order.p; ++lag) {
      x(r, c++) = w[t - static_cast<size_t>(lag)];
    }
    for (int lag = 1; lag <= order.q; ++lag) {
      x(r, c++) = innovations[t - static_cast<size_t>(lag)];
    }
    y[r] = w[t];
  }
  Result<std::vector<double>> beta = LeastSquares(x, y);
  if (!beta.ok()) return beta.status();
  size_t c = 0;
  model.intercept_ = beta.value()[c++];
  for (int i = 0; i < order.p; ++i) model.ar_[static_cast<size_t>(i)] = beta.value()[c++];
  for (int j = 0; j < order.q; ++j) model.ma_[static_cast<size_t>(j)] = beta.value()[c++];

  double ssr = 0.0;
  const std::vector<double> fitted = x.MultiplyVec(beta.value());
  for (size_t r = 0; r < rows; ++r) {
    const double e = y[r] - fitted[r];
    ssr += e * e;
  }
  const double m = static_cast<double>(rows);
  model.sigma2_ = std::max(ssr / m, 1e-12);
  model.aic_ =
      m * std::log(model.sigma2_) + 2.0 * (order.p + order.q + 1);
  return model;
}

Result<ArimaModel> ArimaModel::FromParameters(const ArimaOrder& order,
                                              std::vector<double> ar,
                                              std::vector<double> ma,
                                              double intercept,
                                              double sigma2) {
  INVARNETX_RETURN_IF_ERROR(CheckOrder(order, "FromParameters"));
  if (ar.size() != static_cast<size_t>(order.p) ||
      ma.size() != static_cast<size_t>(order.q)) {
    return Status::InvalidArgument(
        "FromParameters: coefficient count does not match order");
  }
  ArimaModel model;
  model.order_ = order;
  model.ar_ = std::move(ar);
  model.ma_ = std::move(ma);
  model.intercept_ = intercept;
  model.sigma2_ = sigma2;
  model.aic_ = 0.0;
  return model;
}

Result<std::vector<double>> ArimaModel::PredictInSample(
    const std::vector<double>& series) const {
  if (series.empty()) {
    return Status::InvalidArgument("PredictInSample: empty series");
  }
  ArimaPredictor predictor(*this);
  std::vector<double> preds(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    // During warmup the model recursion has no history; echo the observed
    // value so warmup residuals are zero and do not skew calibration.
    preds[i] = predictor.Ready() ? predictor.PredictNext() : series[i];
    predictor.Observe(series[i]);
  }
  return preds;
}

Result<std::vector<double>> ArimaModel::AbsResiduals(
    const std::vector<double>& series) const {
  Result<std::vector<double>> preds = PredictInSample(series);
  if (!preds.ok()) return preds.status();
  std::vector<double> out(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    out[i] = std::fabs(series[i] - preds.value()[i]);
  }
  return out;
}

ArimaPredictor::ArimaPredictor(const ArimaModel& model)
    : order_(model.order()), intercept_(model.intercept()) {
  // Every ArimaModel's order is within the kMaxArima* bounds (Fit and
  // FromParameters reject the rest), so the copies fit the inline arrays.
  std::copy(model.ar().begin(), model.ar().end(), ar_.begin());
  std::copy(model.ma().begin(), model.ma().end(), ma_.begin());
}

void ArimaPredictor::Reset() {
  raw_count_ = 0;
  w_count_ = 0;
  resid_count_ = 0;
}

double ArimaPredictor::ForecastDifferenced() const {
  double acc = intercept_;
  for (int i = 0; i < order_.p; ++i) {
    acc += ar_[static_cast<size_t>(i)] * w_[static_cast<size_t>(i)];
  }
  const int q = std::min(order_.q, resid_count_);
  for (int j = 0; j < q; ++j) {
    acc += ma_[static_cast<size_t>(j)] * resid_[static_cast<size_t>(j)];
  }
  return acc;
}

double ArimaPredictor::ToRawScale(double w_forecast) const {
  // The difference triangle of the last d raw values (oldest first), built
  // in place: level k's newest entry is the k-th difference at the origin.
  const int d = order_.d;
  std::array<double, kMaxArimaD> level{};
  std::array<double, kMaxArimaD> last{};
  for (int i = 0; i < d; ++i) {
    level[static_cast<size_t>(i)] = raw_[static_cast<size_t>(d - 1 - i)];
  }
  for (int k = 0; k < d; ++k) {
    last[static_cast<size_t>(k)] = level[static_cast<size_t>(d - 1)];
    for (int i = d - 1; i > k; --i) {
      level[static_cast<size_t>(i)] -= level[static_cast<size_t>(i - 1)];
    }
  }
  double forecast = w_forecast;
  for (int k = d - 1; k >= 0; --k) forecast += last[static_cast<size_t>(k)];
  return forecast;
}

double ArimaPredictor::PredictNext() const {
  if (!Ready()) return raw_count_ == 0 ? 0.0 : raw_[0];
  return ToRawScale(ForecastDifferenced());
}

double ArimaPredictor::Observe(double value) {
  const bool model_based = Ready();
  const double w_forecast = model_based ? ForecastDifferenced() : 0.0;
  const double forecast =
      model_based ? ToRawScale(w_forecast) : PredictNext();

  const int d = order_.d;
  PushFront(raw_, &raw_count_, d + 1, value);
  if (raw_count_ == d + 1) {
    // d-th difference of the newest point via the alternating binomial sum.
    double w = 0.0;
    double coeff = 1.0;
    for (int k = 0; k <= d; ++k) {
      w += coeff * raw_[static_cast<size_t>(k)];
      coeff *= -static_cast<double>(d - k) / static_cast<double>(k + 1);
    }
    const double innovation = model_based ? (w - w_forecast) : 0.0;
    PushFront(w_, &w_count_, std::max(order_.p, 1), w);
    if (order_.q > 0) PushFront(resid_, &resid_count_, order_.q, innovation);
  }
  return std::fabs(value - forecast);
}

Result<ArimaModel> FitArimaAuto(const std::vector<double>& series, int max_p,
                                int max_d, int max_q) {
  INVARNETX_RETURN_IF_ERROR(
      CheckOrder(ArimaOrder{max_p, max_d, max_q}, "FitArimaAuto bound"));
  if (series.size() < 20) {
    return Status::InvalidArgument("FitArimaAuto: need >= 20 observations");
  }
  // Pick d: smallest differencing level whose lag-1 autocorrelation drops
  // below 0.8 (a cheap stationarity proxy suited to CPI traces).
  int chosen_d = 0;
  for (int d = 0; d <= max_d; ++d) {
    Result<std::vector<double>> w = Difference(series, d);
    if (!w.ok() || w.value().size() < 10) break;
    Result<std::vector<double>> acf = Acf(w.value(), 1);
    if (!acf.ok()) break;
    chosen_d = d;
    if (std::fabs(acf.value()[1]) < 0.8) break;
  }

  std::optional<ArimaModel> best;
  for (int p = 0; p <= max_p; ++p) {
    for (int q = 0; q <= max_q; ++q) {
      if (p == 0 && q == 0 && chosen_d == 0) continue;
      Result<ArimaModel> fit =
          ArimaModel::Fit(series, ArimaOrder{p, chosen_d, q});
      if (!fit.ok()) continue;
      if (!best.has_value() || fit.value().aic() < best->aic()) {
        best = std::move(fit.value());
      }
    }
  }
  if (!best.has_value()) {
    return Status::NumericalError("FitArimaAuto: no order could be fitted");
  }
  return *std::move(best);
}

}  // namespace invarnetx::ts
