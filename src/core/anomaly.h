#ifndef INVARNETX_CORE_ANOMALY_H_
#define INVARNETX_CORE_ANOMALY_H_

#include <cstdint>
#include <vector>

#include "core/perf_model.h"
#include "timeseries/arima.h"

namespace invarnetx::core {

// Result of scanning one CPI series for anomalies.
struct AnomalyScan {
  std::vector<double> residuals;     // |observed - predicted| per tick
  std::vector<bool> raw_flags;       // per-tick threshold exceedances
  std::vector<bool> alarms;          // debounced: 3 consecutive exceedances
  int first_alarm_tick = -1;         // -1 when no alarm fired
  bool triggered() const { return first_alarm_tick >= 0; }
};

// What one CPI sample did to a detector's streaming state.
struct DetectionStep {
  double residual = 0.0;  // |observed - predicted|; 0 until the model is ready
  bool flag = false;      // residual above the threshold
  int32_t debounce = 0;   // consecutive flagged ticks, this one included
  bool alarm = false;     // debounce reached the consecutive requirement
};

// The per-sample detection kernel, shared by AnomalyDetector and the
// serving fleet: one-step ARIMA residual, compare against the rule's scalar
// threshold (PerformanceModel::Threshold - for kMaxMin the upper bar only,
// see AnomalyDetector), debounce. Advances `predictor`; the caller stores
// the returned debounce back into its state.
inline DetectionStep DetectStep(ts::ArimaPredictor& predictor,
                                double threshold, int32_t debounce,
                                int consecutive_required, double cpi) {
  DetectionStep step;
  const bool ready = predictor.Ready();
  const double residual = predictor.Observe(cpi);
  step.residual = ready ? residual : 0.0;
  step.flag = ready && step.residual > threshold;
  step.debounce = step.flag ? debounce + 1 : 0;
  step.alarm = step.debounce >= consecutive_required;
  return step;
}

// Online performance-anomaly detector: one-step-ahead ARIMA prediction on
// CPI, residual thresholding by the configured rule, and a three-consecutive
// debounce to resist system noise (Sec. 3.2). The threshold is resolved
// from the model once, at construction.
class AnomalyDetector {
 public:
  AnomalyDetector(const PerformanceModel& model, ThresholdRule rule,
                  int consecutive_required = 3);

  // Feeds one CPI observation; returns true when the debounced alarm is
  // raised at this tick.
  bool Observe(double cpi);

  // Current residual of the last observation.
  double last_residual() const { return last_residual_; }
  int consecutive_count() const { return consecutive_; }

  // Clears streaming state (model and thresholds are kept).
  void Reset();

  // Scans a whole series at once.
  AnomalyScan Scan(const std::vector<double>& cpi_series);

 private:
  double threshold_;
  int consecutive_required_;
  ts::ArimaPredictor predictor_;
  int32_t consecutive_ = 0;
  double last_residual_ = 0.0;
  bool last_flag_ = false;
};

}  // namespace invarnetx::core

#endif  // INVARNETX_CORE_ANOMALY_H_
