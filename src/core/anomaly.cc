#include "core/anomaly.h"

namespace invarnetx::core {

// The paper's max-min rule brackets the training-time residual band
// [min(R), max(R)]. Our residuals are absolute prediction errors, so a value
// below min(R) means the one-step forecast fits *better* than it ever did
// during calibration - not a performance degradation. Only the upper bar,
// PerformanceModel::Threshold(kMaxMin) = max(R), raises the alarm (decision
// documented in DESIGN.md and pinned by core_test
// MaxMinRuleIgnoresBetterThanTrainedResiduals).
AnomalyDetector::AnomalyDetector(const PerformanceModel& model,
                                 ThresholdRule rule, int consecutive_required)
    : threshold_(model.Threshold(rule)),
      consecutive_required_(consecutive_required),
      predictor_(model.arima()) {}

bool AnomalyDetector::Observe(double cpi) {
  const DetectionStep step = DetectStep(predictor_, threshold_, consecutive_,
                                        consecutive_required_, cpi);
  last_residual_ = step.residual;
  last_flag_ = step.flag;
  consecutive_ = step.debounce;
  return step.alarm;
}

void AnomalyDetector::Reset() {
  predictor_.Reset();
  consecutive_ = 0;
  last_residual_ = 0.0;
  last_flag_ = false;
}

AnomalyScan AnomalyDetector::Scan(const std::vector<double>& cpi_series) {
  Reset();
  AnomalyScan scan;
  scan.residuals.reserve(cpi_series.size());
  scan.raw_flags.reserve(cpi_series.size());
  scan.alarms.reserve(cpi_series.size());
  for (size_t i = 0; i < cpi_series.size(); ++i) {
    const bool alarm = Observe(cpi_series[i]);
    scan.residuals.push_back(last_residual_);
    scan.raw_flags.push_back(last_flag_);
    scan.alarms.push_back(alarm);
    if (alarm && scan.first_alarm_tick < 0) {
      scan.first_alarm_tick = static_cast<int>(i);
    }
  }
  return scan;
}

}  // namespace invarnetx::core
